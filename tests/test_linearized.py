import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PRESETS
from skewcodes.codes import Modulus, skew_circulant
from skewcodes.errors import FieldMismatchError
from skewcodes.fields import FrobeniusAut, conjugacy_class, get_field
from skewcodes.linalg import matrix_rank
from skewcodes.linearized import (
    LinearizedPoly,
    dickson_matrix,
    from_linearized,
    lin_compose,
    moore_matrix,
    root_correspondence,
    to_linearized,
)
from skewcodes.rootsets import skew_vandermonde
from skewcodes.skewpoly import SkewRing
from oracle_utils import linearized_apply_naive, mat_mul, naive_add, naive_mul, naive_pow


def test_transport_of_x(R8, R4):
    L = to_linearized(R8.x)
    assert L._ci == (0, 1)   # y^q
    assert not hasattr(L, "__dict__")
    with pytest.raises(TypeError, match="^expected LinearizedPoly, got SkewPoly$"):
        L + R8.x
    with pytest.raises(TypeError, match="^expected LinearizedPoly, got SkewPoly$"):
        L.compose(R8.x)
    with pytest.raises(FieldMismatchError, match="^linearized polynomials from different rings$"):
        L.compose(to_linearized(R4.x))


def test_transport_roundtrip_and_iso_exhaustive_f4(R4):
    polys = [R4.from_indices(ci) for ci in itertools.product(range(4), repeat=3)]
    for f in polys:
        assert from_linearized(to_linearized(f)) == f
        # the two classes share a base, but equality holds only within one
        assert to_linearized(f) != f and f != to_linearized(f)
        for g in polys:
            assert to_linearized(f * g) == lin_compose(to_linearized(f), to_linearized(g))
            assert to_linearized(f + g) == to_linearized(f) + to_linearized(g)


# every preset at every admissible e, the identity e = d included
TRANSPORT_RINGS = [
    SkewRing(get_field(name), e)
    for name in PRESETS
    for e in range(1, get_field(name).degree + 1)
    if get_field(name).degree % e == 0
]


@pytest.mark.parametrize("ring", TRANSPORT_RINGS, ids=lambda R: f"{R.field.name}-e{R.e}")
@given(data=st.data())
def test_transport_takes_products_to_compositions(ring, data):
    """The map of f * g is the map of f after the map of g.  Both sides are
    checked against sum f_i b^(q^i) by naive_mul and naive_pow, which read
    no table of the field."""
    F = ring.field
    coeffs = st.lists(st.integers(0, F.order - 1), max_size=4)
    f, g = (ring.from_indices(data.draw(coeffs)) for _ in range(2))
    a = F.element(data.draw(st.integers(0, F.order - 1)))
    expect = linearized_apply_naive(
        ring, to_linearized(f), linearized_apply_naive(ring, to_linearized(g), a))
    assert to_linearized(f * g).apply(a) == expect
    assert to_linearized(f).apply(to_linearized(g).apply(a)) == expect


def test_monomial_composition(R8, F8):
    a, b = F8.gen, F8.gen**3
    F = LinearizedPoly(R8, (0, a.i))              # a y^q
    G = LinearizedPoly(R8, (0, 0, b.i))           # b y^(q^2)
    comp = F.compose(G)
    expect = [0, 0, 0, (a * R8.sigma(b)).i]       # a b^q y^(q^3)
    assert list(comp._ci) == expect


def test_compose_with_identity(R16):
    rng = random.Random(3)
    ident = LinearizedPoly(R16, (1,))             # y
    for _ in range(20):
        F = LinearizedPoly(R16, [rng.randrange(16) for _ in range(4)])
        assert F.compose(ident) == F
        assert ident.compose(F) == F


def test_compose_pointwise_full_domain(R16):
    rng = random.Random(5)
    for _ in range(25):
        F = LinearizedPoly(R16, [rng.randrange(16) for _ in range(4)])
        G = LinearizedPoly(R16, [rng.randrange(16) for _ in range(4)])
        C = F.compose(G)
        for a in R16.field.elements():
            assert C.apply(a) == F.apply(G.apply(a))


@pytest.mark.parametrize("name", ["F8", "F9", "F16"])
def test_apply_against_naive_powers(name):
    """apply (the skew product f*a evaluated at 1) against sum f_i a^(q^i)
    by naive_pow, at every point, for every e; q-degrees run past m and
    include the zero map."""
    field = get_field(name)
    rng = random.Random(name)
    for e in range(1, field.degree + 1):
        if field.degree % e:
            continue
        ring = SkewRing(field, e)
        maps = [LinearizedPoly(ring, ())] + [
            LinearizedPoly(ring, [rng.randrange(field.order) for _ in range(ring.m + 2)])
            for _ in range(4)
        ]
        for L in maps:
            for a in field.elements():
                assert L.apply(a) == linearized_apply_naive(ring, L, a)


def test_induced_map_is_linear_over_fixed_field(R9, F9):
    rng = random.Random(7)
    fixed = [a for a in F9.elements() if R9.aut.fixes(a)]
    for _ in range(20):
        L = LinearizedPoly(R9, [rng.randrange(9) for _ in range(3)])
        for a in F9.elements():
            for b in F9.elements():
                assert L.apply(a + b) == L.apply(a) + L.apply(b)
        for lam in fixed:
            for a in F9.elements():
                assert L.apply(lam * a) == lam * L.apply(a)


def test_q_power_modulus_induces_zero_map(R16, F16):
    # y^(q^m) - y kills every element of F_{q^m}
    neg = (-F16.one).i
    L = LinearizedPoly(R16, (neg, 0, 0, 0, 1))
    for a in F16.elements():
        assert L.apply(a) == F16.zero


def test_moore_single_element(F4):
    R = SkewRing(F4, 1)
    assert moore_matrix(R, [F4.one], 1) == [[F4.one]]


def test_moore_dependent_family_singular(R8, F8):
    a = F8.gen
    # lambda in F_q = F_2: scalar 1 makes (a, a) dependent
    M = moore_matrix(R8, [a, a], 2)
    assert matrix_rank(M, F8) == 1


def test_moore_basis_invertible(R8, F8):
    basis = [F8.one, F8.gen, F8.gen**2]
    assert matrix_rank(moore_matrix(R8, basis, 3), F8) == 3


def _fq_matrix_of_map(ring, basis, L):
    """Column-convention matrix over F_q of the induced map in the basis."""
    field = ring.field
    q = ring.q
    fixed = [a for a in field.elements() if ring.aut.fixes(a)]
    n = len(basis)
    cols = []
    for b in basis:
        v = L.apply(b)
        found = None
        for combo in itertools.product(fixed, repeat=n):
            acc = field.zero
            for c, e in zip(combo, basis):
                acc = acc + c * e
            if acc == v:
                found = combo
                break
        assert found is not None
        cols.append(found)
    return [[cols[k][j] for k in range(n)] for j in range(n)]


def test_dickson_conjugation_identity(R8, F8):
    basis = [F8.one, F8.gen, F8.gen**2]
    S = moore_matrix(R8, basis, 3)
    rng = random.Random(11)
    for _ in range(15):
        L = LinearizedPoly(R8, [rng.randrange(8) for _ in range(3)])
        D = dickson_matrix(L)
        M = _fq_matrix_of_map(R8, basis, L)
        assert mat_mul(S, M, F8) == mat_mul(D, S, F8)   # S M S^-1 = D


def test_dickson_equals_circulant_mod_xm_minus_1(R8, F8):
    rng = random.Random(13)
    mod = Modulus(R8.x_pow_minus(3, F8.one))
    for _ in range(20):
        g = R8.from_indices([rng.randrange(8) for _ in range(3)])
        assert dickson_matrix(g) == skew_circulant(mod, g).rows


def test_kernel_dimension_vs_dickson_rank(R8, F8):
    rng = random.Random(17)
    for _ in range(40):
        L = LinearizedPoly(R8, [rng.randrange(8) for _ in range(3)])
        kernel = [b for b in F8.elements() if L.apply(b) == F8.zero]
        rk = matrix_rank(dickson_matrix(L), F8)
        assert len(kernel) == 2 ** (3 - rk)


def test_root_correspondence_q2(R16, F16):
    rng = random.Random(19)
    for _ in range(30):
        g = R16.from_indices([rng.randrange(16) for _ in range(4)])
        if g.is_zero:
            continue
        lin = to_linearized(g)
        skew_roots = {b.i for b in F16.elements() if b and not g(b)}
        lin_roots = {b.i for b in F16.elements() if b and not lin.apply(b)}
        assert skew_roots == lin_roots       # q = 2: b^(q-1) = b
        for b in F16.elements():
            if b:
                root_correspondence(g, b)    # raises on any disagreement


def test_root_correspondence_trivial(R4, F4):
    s, l = root_correspondence(R4.x_minus(F4.one), F4.one)
    assert s and l


def test_root_correspondence_q3_divergence(R9, F9):
    # for four values of a (the nonzero squares), y^q - a y has nonzero
    # roots; for the other four it has none, yet x - a always has root a
    with_roots = 0
    for a in F9.elements():
        if not a:
            continue
        g = R9.x_minus(a)
        assert g(a) == F9.zero
        lin = to_linearized(g)
        if any(lin.apply(b) == F9.zero for b in F9.elements() if b):
            with_roots += 1
    assert with_roots == 4


def test_root_correspondence_rejects_zero(R4, F4):
    with pytest.raises(ValueError):
        root_correspondence(R4.x, F4.zero)


def test_reduce_map_preserves_induced_map(R8):
    rng = random.Random(23)
    for _ in range(20):
        L = LinearizedPoly(R8, [rng.randrange(8) for _ in range(6)])
        R = L.reduce_map()
        assert R.q_degree < R8.m
        for a in R8.field.elements():
            assert L.apply(a) == R.apply(a)


def test_linearized_str():
    F8 = get_field("F8")
    R = SkewRing(F8, 1)
    L = LinearizedPoly(R, (1, 0, F8.gen.i))
    assert str(L) == "a*y^q^2+y"


BUILDER_RINGS = [
    (name, e)
    for name in PRESETS
    for e in range(1, get_field(name).degree + 1)
    if get_field(name).degree % e == 0
] + [("F2_17", 1)]


@pytest.mark.parametrize("name,e", BUILDER_RINGS)
def test_element_builders_against_naive_arithmetic(name, e, field_named):
    """skew_vandermonde, moore_matrix and dickson_matrix entry by entry, and
    conjugacy_class as a set, against naive_pow and naive_mul: N_i(a) as the
    product of the a^(q^j), j < i, the Moore entries b^(q^i), the Dickson
    entries sigma^i of the coefficients folded modulo m, and the class of a
    as sigma(c) a c^(-1) over every nonzero c = g^k.  Above the table limit
    (F2_17) only the two matrices are built."""
    F = field_named(name)
    ring = SkewRing(F, e)
    q, m = ring.q, ring.m
    rng = random.Random(f"{name}-{e}")
    pts = [F.zero, F.one] + [F.element(rng.randrange(1, F.order)) for _ in range(3)]

    def sigma(a, i):
        return naive_pow(F, a, q ** i)

    rows, norms = [], [F.one] * len(pts)
    for i in range(m + 2):
        rows.append(norms)
        norms = [naive_mul(F, nb, sigma(a, i)) for nb, a in zip(norms, pts)]
    assert skew_vandermonde(ring, m + 2, pts) == rows
    for count in (len(pts), m):
        moore = [[sigma(b, i) for b in pts] for i in range(count)]
        assert moore_matrix(ring, pts, count) == moore
    assert moore_matrix(ring, pts) == moore_matrix(ring, pts, len(pts))
    if name == "F2_17":
        return
    g = ring.from_indices([rng.randrange(F.order) for _ in range(m + 3)])
    folded = [0] * m
    for j, c in enumerate(g._ci):
        folded[j % m] = naive_add(F, folded[j % m], c)
    dickson = [[sigma(F.element(folded[(j - i) % m]), i) for j in range(m)] for i in range(m)]
    assert dickson_matrix(g) == dickson
    assert dickson_matrix(to_linearized(g)) == dickson
    n = F.order - 1
    powers = [F.one]
    for _ in range(n - 1):
        powers.append(naive_mul(F, powers[-1], F.gen))
    # sigma(c) c^(-1) for c = g^k: sigma(g^k) = g^(k q) and (g^k)^(-1) = g^(n - k)
    units = [naive_mul(F, powers[k * q % n], powers[-k % n]) for k in range(n)]
    aut = FrobeniusAut(F, e)
    assert conjugacy_class(aut, F.zero) == frozenset([F.zero])
    for a in pts[1:3]:
        assert conjugacy_class(aut, a) == {naive_mul(F, u, a) for u in units}


def test_zero_map_prints_as_zero(R8):
    """An untrimmed zero coefficient list prints like the trimmed zero map."""
    assert str(LinearizedPoly(R8, (0, 0))) == str(LinearizedPoly(R8, ())) == "0"
    zero = LinearizedPoly(R8, (0, 0))
    assert zero == LinearizedPoly(R8, ()) and zero.q_degree == -1 and not zero
