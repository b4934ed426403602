import itertools
import random

import pytest

from conftest import PRESETS
from oracle_utils import (
    charpoly_by_cofactors,
    norm_eval,
    roots_by_all_classes,
    vanishing_set_by_sweep,
)
from skewcodes import rootsets
from skewcodes.fields import (
    FieldEmbedding,
    FieldSpec,
    conjugacy_class,
    get_field,
    norm_exponent,
)
from skewcodes.linalg import charpoly_i
from skewcodes.rootsets import (
    AlgebraicSet,
    _class_kernels,
    _reduced_norm_ci,
    is_wedderburn,
    minimal_poly_over_subfield,
    minimal_polynomial,
    set_rank,
    skew_vandermonde,
    vandermonde_rank,
    vanishing_set,
)
from skewcodes.skewpoly import SkewRing, gcrd, lclm


def test_vanishing_set_x21(R4, F4):
    V = vanishing_set(R4.poly([1, 0, 1]))
    assert V == {F4.one, F4.gen, F4.gen**2}


def test_sole_root_despite_splitting(R8, F8):
    al = F8.gen
    f = R8.x_minus(al**2) * R8.x_minus(al)
    assert vanishing_set(f) == {al}


def test_extension_sweep_finds_more_roots(R8, F8, F64):
    al = F8.gen
    f = R8.x_minus(al**2) * R8.x_minus(al)
    emb = FieldEmbedding(F8, F64)
    V = vanishing_set(f, emb)
    assert len(V) == 3
    assert emb.embed(al) in V


def test_f16_cubic_vanishing_set(R16, F16):
    g = F16.gen
    f = R16.poly([g, g**3, g**7, F16.one])
    expect = {F16.one, g**2, g**3, g**6, g**8, g**13, g**14}
    assert vanishing_set(f) == expect


def test_f16_cubic_factorizations(R16, F16):
    g = F16.gen
    f = R16.poly([g, g**3, g**7, F16.one])
    assert R16.x_minus(g**2) * R16.x_minus(g**12) * R16.x_minus(g**2) == f
    assert R16.x_minus(g**3) * R16.x_minus(g**14) * R16.x_minus(g**14) == f
    assert minimal_polynomial(R16, vanishing_set(f)) == f
    assert lclm(R16.x_minus(F16.one), R16.x_minus(g**2), R16.x_minus(g**3)) == f
    other = lclm(R16.x_minus(F16.one), R16.x_minus(g**2), R16.x_minus(g**8))
    assert other == R16.poly([g**10, g**5, F16.one])


def test_f27_minimal_polynomial(R27, F27):
    b = F27.gen
    mA = minimal_polynomial(R27, [b**14, b**25])
    assert mA == R27.poly([b, b, F27.one])
    assert R27.x_minus(b**13) * R27.x_minus(b**14) == mA
    assert R27.x_minus(b**2) * R27.x_minus(b**25) == mA
    assert vanishing_set(mA) == {b**14, b**25}
    # peel right roots: quotient by each stated right factor
    s1, r1 = mA.right_divmod(R27.x_minus(b**14))
    assert r1.is_zero and s1 == R27.x_minus(b**13)
    s2, r2 = mA.right_divmod(R27.x_minus(b**25))
    assert r2.is_zero and s2 == R27.x_minus(b**2)
    # the off-set factor roots are conjugate to set members
    assert b**13 in conjugacy_class(R27.aut, b**25)
    assert b**2 in conjugacy_class(R27.aut, b**14)


def test_singleton_minimal_polynomial(R8, F8):
    for a in F8.elements():
        assert minimal_polynomial(R8, [a]) == R8.x_minus(a)


@pytest.mark.parametrize("name,p,r", [("F4", 2, 2), ("F8", 2, 3), ("F9", 3, 2)])
def test_whole_field_minimal_polynomial(name, p, r):
    field = get_field(name)
    ring = SkewRing(field, 1)
    m = minimal_polynomial(ring, list(field.elements()))
    deg = r * (p - 1) + 1
    expect = ring.x.times_x(deg - 1) - ring.x    # x^(r(p-1)+1) - x
    assert m == expect
    assert set_rank(ring, list(field.elements())) == deg


def test_minimal_polynomial_empty_set_rejected(R4):
    with pytest.raises(ValueError):
        minimal_polynomial(R4, [])


def test_minimal_polynomial_divides_every_annihilator_exhaustive(R4, F4):
    # every polynomial of degree <= 3 over F4 vanishing on A is a left
    # multiple of m_A
    w = F4.gen
    for A in ([F4.one, w], [w, w * w], [F4.zero, w]):
        m = minimal_polynomial(R4, A)
        for ci in itertools.product(range(4), repeat=4):
            f = R4.from_indices(ci)
            if f.is_zero:
                continue
            if all(f(a) == F4.zero for a in A):
                assert m.right_divides(f)


def test_minimal_polynomial_left_divides_annihilators(R8, F8):
    rng = random.Random(5)
    for _ in range(30):
        pts = [F8.element(rng.randrange(8)) for _ in range(3)]
        m = minimal_polynomial(R8, pts)
        z = R8.from_indices([rng.randrange(8) for _ in range(3)] + [1])
        f = z * m
        for a in pts:
            assert f(a) == F8.zero
        assert m.right_divides(f)


def test_vandermonde_golden(R16, F16):
    g = F16.gen
    V = skew_vandermonde(R16, 3, [F16.one, g**2, g**8])
    assert V[0] == [F16.one, F16.one, F16.one]
    assert V[1] == [F16.one, g**2, g**8]
    assert V[2] == [F16.one, g**6, g**9]
    assert vandermonde_rank(R16, 3, [F16.one, g**2, g**8]) == 2


def test_vandermonde_all_ones_for_point_one(R8, F8):
    V = skew_vandermonde(R8, 4, [F8.one, F8.one])
    for row in V:
        assert row == [F8.one, F8.one]


def test_vandermonde_evaluation_identity(R8, F8):
    rng = random.Random(9)
    pts = [F8.element(i) for i in (1, 3, 5, 7)]
    n = 5
    V = skew_vandermonde(R8, n, pts)
    for _ in range(30):
        g = R8.from_indices([rng.randrange(8) for _ in range(n)])
        evals = [g(a) for a in pts]
        combo = [F8.zero] * len(pts)
        for i in range(n):
            gi = g.coefficient(i)
            combo = [acc + gi * V[i][j] for j, acc in enumerate(combo)]
        assert combo == evals


def test_vandermonde_rank_equals_set_rank(R8, F8):
    rng = random.Random(13)
    els = list(F8.elements())
    for _ in range(40):
        pts = rng.sample(els, rng.randrange(1, 6))
        assert vandermonde_rank(R8, len(pts), pts) == set_rank(R8, pts)


def test_wedderburn_checks(R4, R2, F4):
    x21 = R4.poly([1, 0, 1])
    assert is_wedderburn(x21)
    assert not is_wedderburn(R2.poly([1, 0, 1]))
    for a in F4.elements():
        assert is_wedderburn(R4.x_minus(a))
    w = F4.gen
    f = R4.poly([1, 1]) * R4.poly([w, 1])   # (x+1)(x+w), V = {w}
    assert vanishing_set(f) == {w}
    assert not is_wedderburn(f)


def test_union_rank_laws(R8, R9):
    rng = random.Random(17)
    for ring in (R8, R9):
        field = ring.field
        els = list(field.elements())
        for _ in range(40):
            A = AlgebraicSet(field, rng.sample(els, rng.randrange(1, 4)))
            B = AlgebraicSet(field, rng.sample(els, rng.randrange(1, 4)))
            mA = minimal_polynomial(ring, A)
            mB = minimal_polynomial(ring, B)
            mU = minimal_polynomial(ring, A | B)
            assert mU == lclm(mA, mB)
            assert mU.degree <= mA.degree + mB.degree


def test_union_rank_additivity_iff_coprime_f4(R4, F4):
    els = list(F4.elements())
    for sa in range(1, 3):
        for sb in range(1, 3):
            for A in itertools.combinations(els, sa):
                for B in itertools.combinations(els, sb):
                    mA = minimal_polynomial(R4, A)
                    mB = minimal_polynomial(R4, B)
                    mU = minimal_polynomial(R4, list(A) + list(B))
                    additive = mU.degree == mA.degree + mB.degree
                    coprime = gcrd(mA, mB) == R4.one
                    disjoint = not (
                        set(vanishing_set(mA).elements)
                        & set(vanishing_set(mB).elements)
                    )
                    assert additive == coprime == disjoint


def test_minimal_poly_splits_with_conjugate_roots(R9, R27):
    rng = random.Random(19)
    for ring in (R9, R27):
        field = ring.field
        els = list(field.elements())
        for _ in range(25):
            pts = rng.sample(els, rng.randrange(1, 4))
            m = minimal_polynomial(ring, pts)
            classes = [conjugacy_class(ring.aut, a) for a in pts]
            # peel linear right factors down to a constant
            rest = m
            while rest.degree > 0:
                root = next(a for a in field.elements() if not rest(a))
                assert any(root in cls for cls in classes)
                rest, rem = rest.right_divmod(ring.x_minus(root))
                assert rem.is_zero


def test_p_independence_heredity(R8, F8):
    els = list(F8.elements())
    for size in range(1, 5):
        for A in itertools.combinations(els, size):
            if set_rank(R8, A) == len(A):
                for r in range(1, size):
                    for B in itertools.combinations(A, r):
                        assert set_rank(R8, B) == len(B)


@pytest.mark.parametrize("name,m", [("F4", 2), ("F8", 3), ("F16", 4)])
def test_normal_basis_lclm_identity(name, m):
    # x^m - 1 = lclm(x - b^(q^j)) for b = gamma^(q-1), gamma a normal element
    field = get_field(name)
    ring = SkewRing(field, 1)
    from skewcodes.bch import find_normal_element

    gamma = find_normal_element(ring)
    b = gamma ** (ring.q - 1)
    factors = [ring.x_minus(ring.sigma(b, j)) for j in range(m)]
    assert lclm(*factors) == ring.x_pow_minus(m, field.one)
    for sub_size in range(1, m + 1):
        for combo in itertools.combinations(range(m), sub_size):
            ell = lclm(*(ring.x_minus(ring.sigma(b, j)) for j in combo))
            assert ell.degree == sub_size


def test_tower_minimal_polynomial_golden(R64, F4096, tower):
    alpha = F4096.gen
    gamma = alpha**65
    factors_roots = [alpha**0, alpha**23, alpha**46]
    g = None
    for root in factors_roots:
        m = minimal_poly_over_subfield(R64, tower, root)
        g = m if g is None else lclm(g, m)
    lifted = [tower.embed(c) for c in g.coefficients]
    assert lifted == [gamma**40, gamma**19, gamma**47, F4096.one]


def test_subfield_point_gives_linear(R64, tower):
    a = R64.field.gen
    m = minimal_poly_over_subfield(R64, tower, tower.embed(a))
    assert m == R64.x_minus(a)


def test_tower_minimal_polynomial_divides_vanishing_multiples(R64, F4096, tower):
    ext = SkewRing(F4096, 1)
    rng = random.Random(23)
    alpha = F4096.gen
    a = alpha**23
    m = minimal_poly_over_subfield(R64, tower, a)
    m_ext = ext.from_indices(tower.embed(c).i for c in m.coefficients)
    for _ in range(10):
        zc = [rng.randrange(64) for _ in range(3)] + [1]
        z = R64.from_indices(zc)
        z_ext = ext.from_indices(tower.embed(c).i for c in z.coefficients)
        f_ext = z_ext * m_ext
        assert f_ext(a) == F4096.zero
        assert m_ext.right_divides(f_ext)


# -- right roots by conjugacy class against the full sweep ----------------------------


def _admissible(field):
    return [e for e in range(1, field.degree + 1) if field.degree % e == 0]


@pytest.mark.parametrize("name", ["F4", "F8", "F9"])
def test_vanishing_set_against_sweep_exhaustive(name):
    """Every monic f of degree at most 2, at every sigma exponent."""
    F = get_field(name)
    for e in _admissible(F):
        R = SkewRing(F, e)
        for deg in range(3):
            for f in R.monic_polys(deg):
                assert vanishing_set(f) == vanishing_set_by_sweep(f), (e, f)


def _random_cases(R, rng):
    """Seeded random f of degree at most 4 and minimal polynomials of 1-3
    random points."""
    F = R.field
    cases = [
        R.from_indices([rng.randrange(F.order) for _ in range(deg)]
                       + [rng.randrange(1, F.order)])
        for deg in range(5)
    ]
    for k in (1, 2, 3):
        cases.append(minimal_polynomial(R, rng.sample(range(F.order), min(k, F.order))))
    return cases


SWEEP_CASES = [(name, e) for name in PRESETS for e in _admissible(get_field(name))]
SWEEP_CASES += [("F2_16", e) for e in (1, 2, 4, 8)] + [("F3_6", e) for e in (1, 2, 3)]
SWEEP_CASES += [("F5_4", e) for e in (1, 2, 4)] + [("F7_5", 1)]


@pytest.mark.parametrize("name,e", SWEEP_CASES)
def test_vanishing_set_against_sweep_random(name, e, field_named):
    F = field_named(name)
    R = SkewRing(F, e)
    for f in _random_cases(R, random.Random(f"{name}/{e}")):
        assert vanishing_set(f) == vanishing_set_by_sweep(f), f


@pytest.mark.parametrize("source,target", [("F4", "F16"), ("F2_6", "F2_12")])
def test_vanishing_set_over_extension_against_sweep(source, target):
    src, tgt = get_field(source), get_field(target)
    emb = FieldEmbedding(src, tgt)
    rng = random.Random(f"{source}->{target}")
    for e in _admissible(src):
        R, T = SkewRing(src, e), SkewRing(tgt, e)
        for f in _random_cases(R, rng):
            lifted = T.from_indices(emb.embed(c).i for c in f.coefficients)
            assert vanishing_set(f, emb) == vanishing_set_by_sweep(lifted), (e, f)


@pytest.mark.parametrize("name", ["F4", "F9", "F2_6", "F27"])
def test_vanishing_set_of_zero_and_constants(name):
    F = get_field(name)
    for e in _admissible(F):
        R = SkewRing(F, e)
        assert list(vanishing_set(R.zero)) == list(F.elements())
        for c in (1, F.order - 1):
            assert len(vanishing_set(R.from_indices([c]))) == 0


def _class_rank(R, f):
    """Sum of the F_q-dimensions of the class kernels, plus 1 when f_0 = 0."""
    dims = [len(basis) for _, basis in _class_kernels(R, f._ci)]
    assert all(dim % R.e == 0 for dim in dims)
    return sum(dims) // R.e + (not f._ci[0])


def _rank(R, points):
    return set_rank(R, points) if len(points) else 0


@pytest.mark.parametrize("name", ["F4", "F8", "F9", "F16", "F27", "F2_6", "F5_4"])
def test_class_kernel_dimensions_give_the_rank(name, field_named):
    """Lam-Leroy: the rank of V(f) is the sum of the F_q-dimensions of the
    class kernels, plus 1 when 0 is a root."""
    F = field_named(name)
    rng = random.Random(name)
    for e in _admissible(F)[:-1]:   # m >= 2
        R = SkewRing(F, e)
        for _ in range(3):
            cases = _random_cases(R, rng)
            cases.append(minimal_polynomial(R, [0] + rng.sample(range(1, F.order), 2)))
            for f in cases:
                assert _class_rank(R, f) == _rank(R, vanishing_set(f)), (e, f)


# -- the reduced norm chi_f and the classes it selects --------------------------------


def _class_cases(R, rng):
    """_random_cases, each also times x (f_0 = 0), and the minimal
    polynomial of a point, one conjugate of it (so a whole F_q-line of the
    class) and a third point."""
    F = R.field
    cases = _random_cases(R, rng)
    cases += [f * R.x for f in cases[1:5]]
    a, c, b = rng.sample(range(1, F.order), 3)
    conj = F.mul_i(a, F.pow_i(c, R.q - 1))   # sigma(c) a c^-1
    cases.append(minimal_polynomial(R, [a, conj, b]))
    return cases


@pytest.mark.parametrize("name,e", [("F3_10", 1), ("F3_10", 2), ("F3_10", 5), ("F2_16", 8)])
def test_vanishing_set_against_all_classes(name, e, field_named):
    """Fields too large for the point sweep against every class solved."""
    F = field_named(name)
    R = SkewRing(F, e)
    for f in _class_cases(R, random.Random(f"classes {name}/{e}")):
        assert vanishing_set(f) == roots_by_all_classes(f), f


COUNT_CASES = [("F9", 1), ("F27", 1), ("F2_12", 3), ("F2_12", 6), ("F3_6", 3),
               ("F3_10", 1), ("F3_10", 5), ("F2_16", 1), ("F2_16", 8)]


@pytest.mark.parametrize("name,e", COUNT_CASES)
def test_solves_and_mapped_vectors_are_counted(name, e, field_named, monkeypatch):
    """At most deg f kernel solves per call (one per class that holds a root
    when q - 1 > deg f), and one mapped kernel vector per nonzero root."""
    counts = {"solves": 0, "mapped": 0}
    fp_kernel, line_points = rootsets._fp_kernel, rootsets._line_points

    def counted_kernel(*args):
        counts["solves"] += 1
        return fp_kernel(*args)

    def counted_points(*args):
        points = line_points(*args)
        counts["mapped"] += len(points)
        return points

    monkeypatch.setattr(rootsets, "_fp_kernel", counted_kernel)
    monkeypatch.setattr(rootsets, "_line_points", counted_points)
    F = field_named(name)
    R = SkewRing(F, e)
    for f in _class_cases(R, random.Random(f"counts {name}/{e}")):
        counts.update(solves=0, mapped=0)
        nonzero = [a for a in vanishing_set(f) if a]
        assert counts["solves"] <= f.degree, f
        assert counts["mapped"] == len(nonzero), f
        if R.q - 1 > f.degree:
            norms = {a ** norm_exponent(R.q, R.m) for a in nonzero}
            assert counts["solves"] == len(norms), f


CHI_CASES = [(name, e) for name in PRESETS for e in _admissible(get_field(name))[:-1]]


def _right_multiplication_by_y(f):
    """Rows x^(i+m) mod_r f, i < deg f, by the ring's right division."""
    R, n = f.ring, f.degree
    rows = []
    for i in range(n):
        rem = (R.x ** (i + R.m)).right_divmod(f)[1]
        rows.append([c.i for c in rem.coefficients] + [0] * (n - len(rem.coefficients)))
    return rows


@pytest.mark.parametrize("name,e", CHI_CASES)
def test_reduced_norm_against_cofactor_determinant(name, e):
    """chi_f is det(yI - M) for M the matrix of right multiplication by
    x^m on R/Rf, monic of degree deg f, with every coefficient in F_q."""
    F = get_field(name)
    R = SkewRing(F, e)
    rng = random.Random(f"chi {name}/{e}")
    for n in range(1, 5):
        for f0 in (0, rng.randrange(1, F.order)):
            f = R.from_indices([f0] + [rng.randrange(F.order) for _ in range(n - 1)]
                               + [rng.randrange(1, F.order)])
            chi = _reduced_norm_ci(R, f._ci)
            assert chi == charpoly_by_cofactors(F, _right_multiplication_by_y(f)), f
            assert len(chi) == n + 1 and chi[-1] == 1
            assert all(F.frob_i(c, e) == c for c in chi), f


@pytest.mark.parametrize("name", ["F4", "F9", "F27", "F2_6", "F5_4"])
def test_charpoly_against_cofactor_determinant(name, field_named):
    """Hessenberg reduction against cofactor expansion on random square
    grids, sparse ones too, so that pivots are searched and swapped."""
    F = field_named(name)
    rng = random.Random(f"charpoly {name}")
    for n in range(5):
        for density in (1.0, 0.5, 0.2):
            for _ in range(4):
                rows = [[rng.randrange(1, F.order) if rng.random() < density else 0
                         for _ in range(n)] for _ in range(n)]
                assert charpoly_i(rows, F) == charpoly_by_cofactors(F, rows), rows


def test_vanishing_set_above_the_table_limit():
    """F_2^17, e = 1: one conjugacy class, so a rank-r root set has 2^r - 1
    points.  No sweep oracle (about 20 s)."""
    F = FieldSpec(2, (1, 0, 0, 1) + (0,) * 13 + (1,), name="F2_17")
    R = SkewRing(F, 1)
    planted = [F.element(i) for i in random.Random(17).sample(range(1, F.order), 3)]
    f = minimal_polynomial(R, planted)
    V = vanishing_set(f)
    assert set(planted) <= set(V)
    assert all(norm_eval(R, f, a) == F.zero for a in V)
    rank = _rank(R, V)
    assert rank == _class_rank(R, f) == f.degree
    assert len(V) == 2 ** rank - 1
