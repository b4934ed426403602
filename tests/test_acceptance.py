"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every tolerance is equality.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import functools
import itertools
import random
import time

import pytest

from skewcodes.bch import (
    Bch1Spec,
    Bch2Spec,
    bch1_code,
    bch1_generator,
    bch2_code,
    bch2_exponent_sets,
    bch2_generator,
    constacyclic_modulus_for,
    evaluation_code,
    find_normal_element,
    is_mds,
    min_distance_exact,
)
from skewcodes.codes import (
    Modulus,
    SkewCyclicCode,
    check_kernel_contains,
    check_polynomial,
    count_divisors,
    dual_code,
    enumerate_right_divisors,
    skew_circulant,
    two_sided_circulant_product,
)
from skewcodes.fields import (
    FrobeniusAut,
    conjugacy_class,
    conjugacy_classes,
    get_field,
)
from skewcodes.linalg import matrix_rank, unwrap
from skewcodes.linearized import (
    dickson_matrix,
    lin_compose,
    moore_matrix,
    to_linearized,
)
from skewcodes.rootsets import (
    minimal_polynomial,
    vandermonde_rank,
    vanishing_set,
)
from skewcodes.skewpoly import (
    SkewRing,
    evaluate,
    gcrd,
    lclm,
    product_eval_check,
)
from skewcodes.textio import parse_element
from oracle_utils import (
    assert_check_identity,
    assert_dual,
    constacyclic_modulus_by_scan,
    mat_mul,
    row_space_equal,
    row_space_membership,
    sweep_eval_consistency,
)


def acceptance(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                note = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                print(
                    f"\nACCEPTANCE {num} {name}: FAIL ({time.time() - t0:.1f}s) - {note}"
                )
                raise
            print(f"\nACCEPTANCE {num} {name}: PASS ({time.time() - t0:.1f}s)")

        return wrapper

    return deco


@acceptance(1, "divisor counts")
def test_criterion_1_divisor_counts(R4, F4):
    w = F4.gen
    Rc = SkewRing(F4, 2)

    t0 = time.time()
    res_skew = enumerate_right_divisors(R4.x_pow_minus(14, -F4.one))
    assert time.time() - t0 < 60
    skew_nontrivial = count_divisors(res_skew, 14, nontrivial=True)

    t0 = time.time()
    res_comm = enumerate_right_divisors(Rc.x_pow_minus(14, -F4.one))
    assert time.time() - t0 < 60
    assert count_divisors(res_comm, 14, nontrivial=True) == 25

    t0 = time.time()
    assert count_divisors(enumerate_right_divisors(R4.x_pow_minus(15, w))) == 32
    assert time.time() - t0 < 60

    t0 = time.time()
    assert count_divisors(enumerate_right_divisors(Rc.x_pow_minus(15, w))) == 8
    assert time.time() - t0 < 60

    # The published twisted-ring count for x^14+1 is 599; it is wrong.  The
    # central factorization x^14-1 = (x^2+1)(x^6+x^2+1)(x^6+x^4+1) splits the
    # quotient as M_2(F_2) x M_2(F_8) x M_2(F_8), with 5*11*11 = 605 left
    # ideals, so 603 nontrivial divisors.  This asserts the proven value;
    # tests/test_codes.py checks it degree by degree against that structure.
    assert skew_nontrivial == 603, (
        f"proven count 603 (published 599), enumerated {skew_nontrivial}"
    )


@acceptance(2, "factorization identities")
def test_criterion_2_factorizations(R4, F4):
    t0 = time.time()
    w = F4.gen
    one = F4.one
    x21 = R4.poly([1, 0, 1])
    assert R4.poly([one, 1]) * R4.poly([one, 1]) == x21
    assert R4.poly([w * w, 1]) * R4.poly([w, 1]) == x21
    assert R4.poly([w, 1]) * R4.poly([w * w, 1]) == x21
    assert R4.poly([one, w]) * R4.poly([one, w]) == x21
    cubic = R4.poly([w * w, w * w, 0, 1])
    assert R4.poly([w, w, 1]) * R4.poly([w, 1]) == cubic
    s, r = cubic.right_divmod(R4.poly([w, 1]))
    assert r.is_zero and s == R4.poly([w, w, 1])
    _, left_rem = cubic.left_divmod(R4.poly([w, 1]))
    assert not left_rem.is_zero
    assert time.time() - t0 < 1


@acceptance(3, "minimal polynomials")
def test_criterion_3_minimal_polynomials(R16, R27, F16, F27):
    t0 = time.time()
    b = F27.gen
    mA = minimal_polynomial(R27, [b**14, b**25])
    assert mA == R27.poly([b, b, F27.one])
    s1, r1 = mA.right_divmod(R27.x_minus(b**14))
    assert r1.is_zero and s1 == R27.x_minus(b**13)
    s2, r2 = mA.right_divmod(R27.x_minus(b**25))
    assert r2.is_zero and s2 == R27.x_minus(b**2)
    assert vanishing_set(mA) == {b**14, b**25}

    g = F16.gen
    cubic = R16.poly([g, g**3, g**7, F16.one])
    A = [F16.one, g**2, g**3, g**6, g**8, g**13, g**14]
    assert minimal_polynomial(R16, A) == cubic
    assert vanishing_set(cubic) == set(A)
    pair = lclm(R16.x_minus(F16.one), R16.x_minus(g**2), R16.x_minus(g**8))
    assert pair == R16.poly([g**10, g**5, F16.one])

    for name, p, r in (("F4", 2, 2), ("F8", 2, 3), ("F9", 3, 2)):
        field = get_field(name)
        ring = SkewRing(field, 1)
        m = minimal_polynomial(ring, list(field.elements()))
        deg = r * (p - 1) + 1
        assert m == ring.x.times_x(deg - 1) - ring.x
    assert time.time() - t0 < 1


@acceptance(4, "circulant golden test")
def test_criterion_4_circulants(R4, R8, F4, F8):
    golden = [
        "a   0   a^5 a   1   0   0",
        "0   a^2 0   a^3 a^2 1   0",
        "0   0   a^4 0   a^6 a^4 1",
        "a   0   0   a   0   a^5 a",
        "a^3 a^2 0   0   a^2 0   a^3",
        "1   a^6 a^4 0   0   a^4 0",
        "0   1   a^5 a   0   0   a",
    ]
    a = F8.gen
    mod = Modulus(R8.poly([a, 0, 0, 0, 0, 0, 0, F8.one]))
    g = R8.poly([a, 0, a**5, a, F8.one])
    C = skew_circulant(mod, g)
    expect = [[parse_element(F8, tok) for tok in line.split()] for line in golden]
    assert C.rows == expect
    assert C.rank() == 3
    code = SkewCyclicCode(mod, g)
    assert code.generator_matrix == C.rows[:3]
    assert row_space_equal(code.generator_matrix, C.rows, F8)

    t0 = time.time()
    w = F4.gen
    G = skew_circulant(
        Modulus(R4.poly([w * w, 0, F4.one, F4.one])), R4.poly([w, w, F4.one])
    )
    assert G.rank() == 1
    GT = [list(col) for col in zip(*unwrap(G.rows))]
    gprime_ci = tuple(GT[0])
    for e in (1, 2):
        ring = SkewRing(F4, e)
        gp = ring.from_indices(gprime_ci)
        for lead in range(1, 4):
            for tail in itertools.product(range(4), repeat=3):
                fp = ring.from_indices(tail + (lead,)).monic()
                assert unwrap(skew_circulant(Modulus(fp), gp).rows) != GT
    assert time.time() - t0 < 10


@acceptance(5, "duality suite")
def test_criterion_5_duality(R4, F4):
    t0 = time.time()
    w = F4.gen
    moduli = [
        R4.x_pow_minus(4, F4.one),
        R4.x_pow_minus(6, F4.one),
        R4.x_pow_minus(4, w),
    ]
    for f in moduli:
        mod = Modulus(f)
        n = f.degree
        a = mod.constacyclic_constant
        dual_target = R4.x_pow_minus(n, a.inverse())
        for d, divs in enumerate_right_divisors(f).items():
            for g in divs:
                code = SkewCyclicCode(mod, g)
                data = dual_code(code)
                # divisor, annihilation, rank n - k, dual row space
                assert_dual(code, data)
                assert data.raw_generator.monic().right_divides(dual_target)
                back_data = dual_code(data.code)
                assert_dual(data.code, back_data)
                back = back_data.code
                assert row_space_equal(
                    back.generator_matrix, code.generator_matrix, F4
                )
                check, ct = check_polynomial(code)
                assert_check_identity(code, check, ct)
                member = row_space_membership(unwrap(code.generator_matrix), F4)
                for word_ci in itertools.product(range(4), repeat=n):
                    word = [F4.element(i) for i in word_ci]
                    inside = code.contains(word)
                    assert inside == member(word_ci)
                    assert check_kernel_contains(code, check, ct, word) == inside
    assert time.time() - t0 < 30


@acceptance(6, "skew-BCH first kind")
def test_criterion_6_bch_first_kind(R64, F64, F4096, tower):
    t0 = time.time()
    alpha = F4096.gen
    gamma = alpha**65
    spec = Bch1Spec(
        base_ring=R64, emb=tower, alpha=alpha,
        b=0, t1=23, t2=1, delta=4, nu=0, n=12,
    )
    g, designed = bch1_generator(spec)
    assert designed == 4
    assert [tower.embed(c) for c in g.coefficients] == [
        gamma**40, gamma**19, gamma**47, F4096.one,
    ]
    assert g.right_divides(R64.x_pow_minus(12, F64.one))
    for n in range(3, 13):
        code, _ = bch1_code(spec, n)
        assert code.k == n - 3
        if code.k > 0:
            assert min_distance_exact(code) == 4
            assert is_mds(code)
    # not constacyclic for shorter lengths (no a in F* works for this sigma)
    for n in range(3, 12):
        assert constacyclic_modulus_for(R64, g, n) is None
        assert constacyclic_modulus_by_scan(R64, g, n) is None
    code12, _ = bch1_code(spec, 12)
    assert code12.modulus.poly == R64.x_pow_minus(12, F64.one)
    assert constacyclic_modulus_by_scan(R64, g, 12) == code12.modulus.poly
    assert time.time() - t0 < 60


@acceptance(7, "skew-BCH second kind")
def test_criterion_7_bch_second_kind(R64, F64, F4096, tower):
    t0 = time.time()
    alpha = F4096.gen
    gamma = alpha**65
    big = SkewRing(F4096, 1)
    assert find_normal_element(big) == alpha**5
    spec = Bch2Spec(
        base_ring=R64, emb=tower, alpha=alpha**5,
        b=0, t1=23, t2=1, delta=4, nu=0,
    )
    S, closed = bch2_exponent_sets(spec)
    assert closed == [0, 4, 5, 6, 10, 11]
    g, designed = bch2_generator(spec)
    assert designed == 4
    assert [tower.embed(c) for c in g.coefficients] == [
        gamma**7, gamma**46, gamma**20, gamma**4, gamma**41, gamma**61, F4096.one,
    ]
    assert g.right_divides(R64.x_pow_minus(12, F64.one))
    code, _ = bch2_code(spec)
    assert code.k == 6
    assert min_distance_exact(code, strategy="columns") == 6
    assert not is_mds(code)
    assert time.time() - t0 < 60


@acceptance(8, "property suites")
def test_criterion_8_property_suites(R4, R8, R9, R16, R27, F4, F8, F9, F16, F27):
    t0 = time.time()

    # evaluation consistency: norm formula vs division remainder, exhaustive
    # over every polynomial of degree <= 5 and every point, for all fields
    # of size <= 16 and every proper Frobenius power
    for ring in (SkewRing(get_field("F2"), 1), R4, R8, R9, R16, SkewRing(F16, 2)):
        sweep_eval_consistency(ring, 5)
    # object-level tie-in through the public API, exhaustive over F4
    for ci in itertools.product(range(4), repeat=4):
        f = R4.from_indices(ci)
        for a in F4.elements():
            assert evaluate(f, a) == f.right_divmod(R4.x_minus(a))[1].constant_coefficient

    # product theorem branches: literal exhaustive over F4 (deg <= 3);
    # over F8 exhaustive in g and a with monomial f (complete in f by
    # left-linearity of both sides) plus a seeded literal sample
    for fci in itertools.product(range(4), repeat=4):
        f = R4.from_indices(fci)
        for gci in itertools.product(range(4), repeat=4):
            g = R4.from_indices(gci)
            for a in F4.elements():
                product_eval_check(f, g, a)
    monomials = [R8.x**i for i in range(4)]
    for gci in itertools.product(range(8), repeat=4):
        g = R8.from_indices(gci)
        for a in F8.elements():
            for f in monomials:
                product_eval_check(f, g, a)
    rng = random.Random(0)
    for _ in range(2000):
        f = R8.from_indices([rng.randrange(8) for _ in range(4)])
        g = R8.from_indices([rng.randrange(8) for _ in range(4)])
        product_eval_check(f, g, F8.element(rng.randrange(8)))

    # gcrd + lclm degree law
    rng = random.Random(1)
    for ring in (R8, R16):
        for _ in range(100):
            f1 = ring.from_indices(
                [rng.randrange(ring.field.order) for _ in range(rng.randrange(1, 6))] + [1]
            )
            f2 = ring.from_indices(
                [rng.randrange(ring.field.order) for _ in range(rng.randrange(1, 6))] + [1]
            )
            assert gcrd(f1, f2).degree + lclm(f1, f2).degree == f1.degree + f2.degree

    # conjugacy class sizes (q^m-1)/(q-1) and class count q
    for field, e in ((F4, 1), (F9, 1), (F16, 1), (F27, 1)):
        aut = FrobeniusAut(field, e)
        classes = conjugacy_classes(aut)
        assert len(classes) == aut.q
        size = (aut.q**aut.order - 1) // (aut.q - 1)
        covered = set()
        for cls in classes:
            if field.zero not in cls:
                assert len(cls) == size
            covered.update(a.i for a in cls)
        assert len(covered) == field.order

    # roots-in-every-class for split products, exhaustive N <= 3
    for ring in (R9, R27):
        field = ring.field
        nonzero = [a for a in field.elements() if a]
        classes = {a.i: conjugacy_class(ring.aut, a) for a in nonzero}
        for N in (1, 2, 3):
            if field is F27 and N < 3:
                continue   # covered by the N = 3 sweep's factors
            for roots in itertools.product(nonzero, repeat=N):
                f = ring.one
                for a in roots:
                    f = f * ring.x_minus(a)
                root_classes = [classes[a.i] for a in roots]
                actual = [a for a in field.elements() if not f(a)]
                for a in actual:
                    assert any(a in cls for cls in root_classes)
                for cls in root_classes:
                    assert any(not f(a) for a in cls)

    # transport to linearized polynomials is a ring isomorphism over F8,
    # exhaustive on degree <= 2 pairs
    polys8 = [R8.from_indices(ci) for ci in itertools.product(range(8), repeat=3)]
    for f in polys8[:64]:
        for g in polys8:
            assert to_linearized(f * g) == lin_compose(to_linearized(f), to_linearized(g))
    rng = random.Random(2)
    for _ in range(3000):
        f = rng.choice(polys8)
        g = rng.choice(polys8)
        assert to_linearized(f * g) == lin_compose(to_linearized(f), to_linearized(g))

    # Dickson and Moore identities over F8
    basis = [F8.one, F8.gen, F8.gen**2]
    S = moore_matrix(R8, basis, 3)
    assert matrix_rank(S, F8) == 3
    mod3 = Modulus(R8.x_pow_minus(3, F8.one))
    rng = random.Random(3)
    for _ in range(50):
        g = R8.from_indices([rng.randrange(8) for _ in range(3)])
        D = dickson_matrix(g)
        assert D == skew_circulant(mod3, g).rows
        lin = to_linearized(g)
        kernel = [b for b in F8.elements() if lin.apply(b) == F8.zero]
        assert len(kernel) == 2 ** (3 - matrix_rank(D, F8))

    # normal-basis lclm identity x^m - 1 for m in {2, 3, 4}
    from skewcodes.bch import find_normal_element as fne

    for name, m in (("F4", 2), ("F8", 3), ("F16", 4)):
        field = get_field(name)
        ring = SkewRing(field, 1)
        gamma = fne(ring)
        bb = gamma ** (ring.q - 1)
        factors = [ring.x_minus(ring.sigma(bb, j)) for j in range(m)]
        assert lclm(*factors) == ring.x_pow_minus(m, field.one)

    # two-sided circulant multiplicativity plus the counterexample guard
    mod2 = Modulus(R4.x_pow_minus(2, F4.one))
    rng = random.Random(4)
    for _ in range(30):
        g = R4.from_indices([rng.randrange(4) for _ in range(2)])
        g2 = R4.from_indices([rng.randrange(4) for _ in range(2)])
        two_sided_circulant_product(mod2, g, g2)
    w = F4.gen
    modw = Modulus(R4.x_pow_minus(3, w))
    x1 = skew_circulant(modw, R4.x)
    x2 = skew_circulant(modw, R4.x * R4.x)
    assert mat_mul(x1.rows, x1.rows, F4) != x2.rows

    assert time.time() - t0 < 120


@acceptance(9, "evaluation codes")
def test_criterion_9_evaluation_codes(R8, F8):
    t0 = time.time()
    els = list(F8.elements())
    counts = {}
    for n in range(2, 7):
        full_rank = 0
        for combo in itertools.combinations(els, n):
            if vandermonde_rank(R8, n, combo) != n:
                continue
            full_rank += 1
            for k in range(1, n):
                code = evaluation_code(R8, combo, k)
                assert min_distance_exact(code) == n - k + 1
                assert is_mds(code)
        counts[n] = full_rank
    # the whole field has rank 4 (its minimal polynomial is x^4 - x), so
    # there are no full-rank sets of size 5 or 6 to test
    assert counts == {2: 28, 3: 49, 4: 28, 5: 0, 6: 0}
    assert time.time() - t0 < 60
