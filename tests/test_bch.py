import copy
import dataclasses
import itertools
import pickle
import random
import threading
from math import gcd

import pytest

import skewcodes.bch as bch
from skewcodes.bch import (
    Bch1Spec,
    Bch2Spec,
    bch1_code,
    bch1_generator,
    bch1_max_length,
    bch2_code,
    bch2_exponent_sets,
    bch2_generator,
    constacyclic_modulus_for,
    evaluation_code,
    find_normal_element,
    is_mds,
    left_x_multiple,
    min_distance_exact,
    skew_rs1,
    _rs1_brackets_repeat,
)
from skewcodes.codes import Modulus, SkewCyclicCode, vandermonde_parity_check
from skewcodes.errors import ConditionViolatedError, GuardExceededError, SearchCancelledError
from skewcodes.fields import FieldEmbedding, FieldSpec, get_field
from skewcodes.linalg import matrix_rank
from skewcodes.linearized import moore_matrix
from skewcodes.rootsets import vandermonde_rank
from skewcodes.skewpoly import SkewRing
from oracle_utils import (
    bch1_generator_by_fold,
    bch2_generator_by_closure,
    constacyclic_modulus_by_scan,
    rs1_brackets_repeat_by_scan,
)


@pytest.fixture(scope="module")
def spec1(R64, tower, F4096):
    return Bch1Spec(
        base_ring=R64, emb=tower, alpha=F4096.gen,
        b=0, t1=23, t2=1, delta=4, nu=0, n=12,
    )


@pytest.fixture(scope="module")
def spec2(R64, tower, F4096):
    return Bch2Spec(
        base_ring=R64, emb=tower, alpha=F4096.gen**5,
        b=0, t1=23, t2=1, delta=4, nu=0,
    )


# -- distance oracle ---------------------------------------------------------------


def test_distance_full_space(R4, F4):
    code = SkewCyclicCode(Modulus(R4.x_pow_minus(4, F4.one)), R4.one)
    assert min_distance_exact(code) == 1
    assert is_mds(code)


def test_distance_zero_code_rejected(R4, F4):
    f = R4.x_pow_minus(4, F4.one)
    code = SkewCyclicCode(Modulus(f), f)
    with pytest.raises(ValueError):
        min_distance_exact(code)


def test_distance_strategies_agree(R4, R8, F4, F8):
    from skewcodes.codes import enumerate_right_divisors

    for ring, f in (
        (R4, R4.x_pow_minus(4, F4.one)),
        (R4, R4.x_pow_minus(6, F4.one)),
        (R8, R8.x_pow_minus(7, -F8.gen)),
    ):
        for d, divs in enumerate_right_divisors(f).items():
            if d == f.degree:
                continue
            for g in divs:
                code = SkewCyclicCode(Modulus(f), g)
                d1 = min_distance_exact(code, strategy="columns")
                d2 = min_distance_exact(code, strategy="messages")
                assert d1 == d2


def test_distance_repetition_style(F4):
    Rc = SkewRing(F4, 2)
    one = F4.one
    g = Rc.poly([one, one]) * Rc.poly([one, one]) * Rc.poly([one, one])
    code = SkewCyclicCode(Modulus(Rc.x_pow_minus(4, one)), g)
    assert code.k == 1
    assert min_distance_exact(code) == 4


@pytest.mark.parametrize("strategy", ["columns", "messages"])
def test_distance_search_cancel(R8, F8, strategy):
    a = F8.gen
    code = SkewCyclicCode(Modulus(R8.x_pow_minus(7, a)), R8.poly([a, 0, a ** 5, a, 1]))
    assert min_distance_exact(code, strategy=strategy, cancel=threading.Event()) == 4
    stop = threading.Event()
    stop.set()
    with pytest.raises(SearchCancelledError, match="distance search cancelled"):
        min_distance_exact(code, strategy=strategy, cancel=stop)


def test_distance_length_guard(R4, F4):
    class Fake:
        field = F4
        generator_matrix = [[F4.one] * 25]

    with pytest.raises(GuardExceededError) as info:
        min_distance_exact(Fake())
    assert str(info.value) == "distance oracle limited to n <= 24, got 25"
    assert info.value.cost == 25


# -- first kind ---------------------------------------------------------------------


def test_bch1_golden_generator(spec1, tower, F4096):
    g, designed = bch1_generator(spec1)
    assert designed == 4
    gamma = F4096.gen**65
    lifted = [tower.embed(c) for c in g.coefficients]
    assert lifted == [gamma**40, gamma**19, gamma**47, F4096.one]


def test_bch1_root_exponents(spec1):
    assert sorted(spec1.designed_exponents()) == [0, 23, 46]


def test_bch1_generator_vanishes_on_designed_roots(spec1, tower, F4096):
    g, _ = bch1_generator(spec1)
    ext = spec1.ext_ring
    g_ext = ext.from_indices(tower.embed(c).i for c in g.coefficients)
    alpha = F4096.gen
    for t in sorted(spec1.designed_exponents()):
        assert g_ext(alpha**t) == F4096.zero


def test_bch1_max_length_is_12(spec1):
    assert bch1_max_length(spec1) == 12


def test_bch1_condition_violated_beyond_max_length(R64, tower, F4096):
    spec = Bch1Spec(
        base_ring=R64, emb=tower, alpha=F4096.gen,
        b=0, t1=23, t2=1, delta=4, nu=0, n=13,
    )
    with pytest.raises(ConditionViolatedError):
        bch1_generator(spec)


def test_bch1_codes_dimensions_and_distance(spec1):
    for n in range(3, 13):
        code, designed = bch1_code(spec1, n)
        assert code.k == n - 3
        if code.k > 0:
            d = min_distance_exact(code)
            assert d >= designed
            assert d == 4
            assert is_mds(code)


def test_bch1_modulus_selection(spec1, R64, F64):
    g, _ = bch1_generator(spec1)
    # x^12 - 1 is a left multiple of g
    f12 = R64.x_pow_minus(12, F64.one)
    assert g.right_divides(f12)
    code12, _ = bch1_code(spec1, 12)
    assert code12.modulus.poly == f12
    # no constacyclic modulus exists for 3 <= n <= 11 (same sigma)
    assert constacyclic_modulus_by_scan(R64, g, 12) == f12
    for n in range(3, 12):
        assert constacyclic_modulus_for(R64, g, n) is None
        assert constacyclic_modulus_by_scan(R64, g, n) is None
        code, _ = bch1_code(spec1, n)
        assert code.modulus.poly == left_x_multiple(g, n)
        assert g.right_divides(code.modulus.poly)


@pytest.mark.parametrize("e", [1, 2])
def test_constacyclic_modulus_against_scan(F4, e):
    """One division against the scan over every a, on every monic divisor of
    every x^n - a over F4 for n <= 6, and on constants."""
    from skewcodes.codes import enumerate_right_divisors

    R = SkewRing(F4, e)
    for n in range(1, 7):
        for a in range(1, 4):
            divisors = enumerate_right_divisors(R.x_pow_minus(n, F4.element(a)))
            for g in itertools.chain(*divisors.values()):
                for m in range(max(g.degree, 1), 8):
                    assert constacyclic_modulus_for(R, g, m) == \
                        constacyclic_modulus_by_scan(R, g, m)
    assert constacyclic_modulus_for(R, R.one, 5) == R.x_pow_minus(5, F4.one)


def test_constacyclic_modulus_one_division(R64, spec1, monkeypatch):
    import skewcodes.skewpoly as skewpoly

    g, _ = bch1_generator(spec1)
    calls = []
    divmod_ci = skewpoly._right_divmod_ci
    monkeypatch.setattr(skewpoly, "_right_divmod_ci",
                        lambda *args: calls.append(1) or divmod_ci(*args))
    for n in (9, 12):
        calls.clear()
        constacyclic_modulus_for(R64, g, n)
        assert len(calls) == 1


def test_bch1_parity_annihilation(spec1, tower, F4096):
    code, _ = bch1_code(spec1, 12)
    alpha = F4096.gen
    roots = []
    for t in sorted(spec1.designed_exponents()):
        roots += [alpha**t, (alpha**t) ** 64]
    M = vandermonde_parity_check(code, roots=roots, emb=tower)
    assert len(M) == 12 and len(M[0]) == 6


def test_bch1_generator_minimality(spec1, R64, tower, F4096):
    # g right-divides every base-field polynomial vanishing on the orbit
    g, _ = bch1_generator(spec1)
    ext = spec1.ext_ring
    rng = random.Random(3)
    g_ext = ext.from_indices(tower.embed(c).i for c in g.coefficients)
    for _ in range(10):
        z = R64.from_indices([rng.randrange(64) for _ in range(3)] + [1])
        f = z * g
        f_ext = ext.from_indices(tower.embed(c).i for c in f.coefficients)
        alpha = F4096.gen
        for t in sorted(spec1.designed_exponents()):
            assert f_ext(alpha**t) == F4096.zero
        assert g.right_divides(f)


def test_bch1_hartmann_tzeng_offsets(R64, tower, F4096):
    # nu = 1 widens the root pattern to b + t1*i + t2*j and the designed
    # distance to delta + nu
    spec = Bch1Spec(
        base_ring=R64, emb=tower, alpha=F4096.gen,
        b=0, t1=23, t2=1, delta=3, nu=1, n=12,
    )
    assert sorted(spec.designed_exponents()) == [0, 1, 23, 24]
    g, designed = bch1_generator(spec)
    assert designed == 4
    assert g.degree == 6
    code, _ = bch1_code(spec)
    assert code.k == 6
    d = min_distance_exact(code, strategy="columns")
    assert d == 6 >= designed


def test_bch1_trivial_orbit_single_root(R16, F16):
    # alpha in the base field, delta = 2: g = x - alpha^b
    emb = FieldEmbedding(F16, F16)
    spec = Bch1Spec(
        base_ring=R16, emb=emb, alpha=F16.gen,
        b=3, t1=1, t2=1, delta=2, nu=0, n=4,
    )
    g, designed = bch1_generator(spec)
    assert designed == 2
    assert g == R16.x_minus(F16.gen**3)


# -- skew-RS -------------------------------------------------------------------------


def test_skew_rs_delta2(R16, F16):
    code = skew_rs1(R16, F16.gen, b=0, delta=2, n=4)
    assert code.k == 3
    assert min_distance_exact(code) == 2
    assert is_mds(code)


def test_skew_rs_mds_sweep(R16, F16):
    rng = random.Random(5)
    for delta in (2, 3, 4):
        for n in range(delta, 5):
            code = skew_rs1(R16, F16.gen, b=0, delta=delta, n=n)
            assert code.k == n - delta + 1
            assert min_distance_exact(code) == delta
            assert is_mds(code)


def test_skew_rs_rejects_repeated_brackets(R4, F4):
    # over F4 with q=2, alpha^[i] repeats quickly: n too large must fail
    with pytest.raises(ConditionViolatedError):
        skew_rs1(R4, F4.gen, b=0, delta=2, n=4)


@pytest.mark.parametrize("name", ["F4", "F16", "F2_6"])
def test_rs1_bracket_scan_matches_set_scan(name):
    """skew_rs1's length check (one bracket scan a^[i] = 1) against the set
    of a^[0..n-1], for every nonzero a, every e and every n up to the
    field order."""
    F = get_field(name)
    for e in (e for e in range(1, F.degree + 1) if F.degree % e == 0):
        R = SkewRing(F, e)
        for a in range(1, F.order):
            for n in range(F.order + 1):
                assert _rs1_brackets_repeat(R, a, n) == rs1_brackets_repeat_by_scan(R, a, n)


def test_first_kind_constructions_refuse_zero_alpha(F4):
    """alpha = 0 has no unit bracket, so no length would be refused, and its
    designed roots are 0 and 1: the first-kind spec and skew_rs1 refuse it
    rather than build a code whose distance falls short of the design
    (over F4, a [4,3] code of distance 1 for delta = 3, and a [2,1] code of
    distance 1 called MDS)."""
    R = SkewRing(F4, 1)
    spec = Bch1Spec(base_ring=R, emb=FieldEmbedding(F4, F4), alpha=F4.zero,
                    b=1, t1=1, t2=1, delta=3, nu=0, n=4)
    with pytest.raises(ConditionViolatedError, match="alpha must be nonzero"):
        spec.validate()
    with pytest.raises(ConditionViolatedError, match="alpha must be nonzero"):
        bch1_code(spec)
    for n in (2, 3):
        with pytest.raises(ConditionViolatedError, match="alpha must be nonzero"):
            skew_rs1(R, F4.zero, 1, 2, n)


def test_skew_rs_explicit_modulus(R16, F16):
    auto = skew_rs1(R16, F16.gen, b=0, delta=3, n=4)
    explicit = skew_rs1(R16, F16.gen, b=0, delta=3, n=4, f=auto.modulus.poly)
    assert explicit.modulus == auto.modulus
    assert explicit.generator == auto.generator
    bad = next(
        a for a in F16.elements()
        if a and not auto.generator.right_divides(R16.x_pow_minus(4, a))
    )
    with pytest.raises(ConditionViolatedError):
        skew_rs1(R16, F16.gen, b=0, delta=3, n=4, f=R16.x_pow_minus(4, bad))


# -- second kind ---------------------------------------------------------------------


def test_find_normal_element_f4(R4, F4):
    assert find_normal_element(R4) == F4.gen


def test_find_normal_element_f2_12(F4096):
    big = SkewRing(F4096, 1)
    nrm = find_normal_element(big)
    assert nrm == F4096.gen**5
    orbit = [big.sigma(nrm, j) for j in range(12)]
    assert matrix_rank(moore_matrix(big, orbit, 12), F4096) == 12


# find_normal_element on every preset and sigma exponent: the packed first
# power of the generator with a normal orbit (F2 has only 1, the last power)
_NORMAL_ELEMENTS = {
    ("F2", 1): 1, ("F4", 1): 2, ("F4", 2): 2, ("F8", 1): 3, ("F8", 3): 2,
    ("F9", 1): 3, ("F9", 2): 3, ("F16", 1): 8, ("F16", 2): 2, ("F16", 4): 2,
    ("F27", 1): 9, ("F27", 3): 3, ("F2_6", 1): 32, ("F2_6", 2): 2, ("F2_6", 3): 2,
    ("F2_6", 6): 2, ("F2_12", 1): 32, ("F2_12", 2): 2, ("F2_12", 3): 2,
    ("F2_12", 4): 2, ("F2_12", 6): 2, ("F2_12", 12): 2,
}


@pytest.mark.parametrize("name,e", sorted(_NORMAL_ELEMENTS))
def test_find_normal_element_on_every_preset(name, e):
    ring = SkewRing(get_field(name), e)
    a = find_normal_element(ring)
    assert a.i == _NORMAL_ELEMENTS[name, e]
    orbit = [ring.sigma(a, j) for j in range(ring.m)]
    assert matrix_rank(moore_matrix(ring, orbit, ring.m), ring.field) == ring.m


def test_find_normal_element_off_the_cycle_of_x():
    """x has order 4 in F_3[x]/(x^2 + 1), so no power of x is normal over
    F_3; the scan steps the generator of F_9^* and finds one of the four
    normal elements."""
    a = find_normal_element(SkewRing(FieldSpec(3, (1, 0, 1)), 1))
    assert a.coeffs in {(1, 1), (2, 1), (1, 2), (2, 2)}


def test_bch1_generator_takes_each_power_of_alpha_once(monkeypatch):
    """alpha = a in F16 has 15 distinct powers, so 2^20 designed exponents
    give at most 15 roots, and the generator is the one of all 15."""
    seen = []
    minpoly = bch._subfield_minimal_polynomial
    monkeypatch.setattr(bch, "_subfield_minimal_polynomial",
                        lambda ring, emb, idx: seen.append(len(idx)) or minpoly(ring, emb, idx))
    F16 = get_field("F16")
    kw = dict(base_ring=SkewRing(F16, 1), emb=FieldEmbedding(F16, F16), alpha=F16.gen,
              b=0, t1=1, t2=1, nu=0, n=3)
    g, designed = bch1_generator(Bch1Spec(delta=(1 << 20) + 1, **kw))
    assert seen == [15] and designed == (1 << 20) + 1
    assert g == bch1_generator_by_fold(Bch1Spec(delta=16, **kw))


def test_bch1_and_bch2_reduce_long_exponent_ranges(R64, tower, F4096):
    """Ranges of i and j past the order of alpha (here 13 * 315) and past n
    give the generator of the whole designed set."""
    kw = dict(base_ring=R64, emb=tower, b=3, t1=5, t2=7, delta=40, nu=3)
    spec = Bch1Spec(alpha=F4096.gen ** 315, n=2, **kw)
    assert bch1_generator(spec)[0] == bch1_generator_by_fold(spec)
    spec = Bch2Spec(alpha=F4096.gen ** 5, **kw)
    assert bch2_exponent_sets(spec)[0] == sorted({t % 12 for t in spec.designed_exponents()})


def test_bch2_exponent_sets(spec2):
    S, closed = bch2_exponent_sets(spec2)
    assert S == [0, 10, 11]
    assert closed == [0, 4, 5, 6, 10, 11]


def test_bch2_closure_is_minimal_cosets(spec2):
    # brute-force: smallest union of cosets of {0, m} containing S
    S, closed = bch2_exponent_sets(spec2)
    n, m = 12, 6
    cosets = [frozenset({(t + m * l) % n for l in range(n // m)}) for t in range(m)]
    best = None
    for take in itertools.product((0, 1), repeat=len(set(cosets))):
        unique = sorted(set(cosets), key=min)
        union = set()
        for flag, cs in zip(take, unique):
            if flag:
                union |= cs
        if set(S) <= union and (best is None or len(union) < len(best)):
            best = union
    assert sorted(best) == closed


def test_bch2_golden_generator(spec2, tower, F4096):
    g, designed = bch2_generator(spec2)
    assert designed == 4
    gamma = F4096.gen**65
    lifted = [tower.embed(c) for c in g.coefficients]
    assert lifted == [
        gamma**7, gamma**46, gamma**20, gamma**4, gamma**41, gamma**61, F4096.one,
    ]


def test_bch2_code_properties(spec2, R64, F64):
    code, designed = bch2_code(spec2)
    assert code.n == 12 and code.k == 6
    assert code.generator.right_divides(R64.x_pow_minus(12, F64.one))
    d = min_distance_exact(code)
    assert d == 6 > designed
    assert not is_mds(code)


def test_bch2_gate_checks(R64, tower, F4096):
    with pytest.raises(ConditionViolatedError):
        Bch2Spec(
            base_ring=R64, emb=tower, alpha=F4096.gen**5,
            b=0, t1=2, t2=1, delta=4, nu=0,
        ).validate()   # gcd(12, 2) != 1
    with pytest.raises(ConditionViolatedError):
        Bch2Spec(
            base_ring=R64, emb=tower, alpha=F4096.gen**5,
            b=0, t1=23, t2=6, delta=4, nu=0,
        ).validate()   # gcd(12, 6) = 6 >= delta
    with pytest.raises(ConditionViolatedError):
        Bch2Spec(
            base_ring=R64, emb=tower, alpha=F4096.gen,
            b=0, t1=23, t2=1, delta=4, nu=0,
        ).validate()   # alpha not normal


def test_bch2_refuses_a_negative_nu_before_any_root(R64, tower, F4096, monkeypatch):
    """nu = -1 leaves no designed exponent; the spec is refused, as bch1
    refuses it, before any root or minimal polynomial is formed."""
    spec = Bch2Spec(
        base_ring=R64, emb=tower, alpha=F4096.gen**5,
        b=0, t1=23, t2=1, delta=3, nu=-1,
    )
    monkeypatch.setattr(bch, "_subfield_minimal_polynomial",
                        lambda *args: pytest.fail("minimal polynomial formed"))
    with pytest.raises(ConditionViolatedError, match="need nu >= 0"):
        bch2_generator(spec)
    with pytest.raises(ConditionViolatedError, match="need nu >= 0"):
        bch2_code(spec)


def test_bch2_hartmann_tzeng_offsets(R64, tower, F4096):
    spec = Bch2Spec(
        base_ring=R64, emb=tower, alpha=F4096.gen**5,
        b=0, t1=23, t2=1, delta=3, nu=1,
    )
    S, closed = bch2_exponent_sets(spec)
    assert S == [0, 1, 11]
    assert closed == [0, 1, 5, 6, 7, 11]
    g, designed = bch2_generator(spec)
    assert designed == 4 and g.degree == 6
    code, _ = bch2_code(spec)
    assert code.k == 6
    assert min_distance_exact(code, strategy="columns") == 6 >= designed


def test_bch2_s1_closure_trivial(R16, F16):
    emb = FieldEmbedding(F16, F16)
    spec = Bch2Spec(
        base_ring=R16, emb=emb, alpha=find_normal_element(R16),
        b=0, t1=1, t2=1, delta=3, nu=0,
    )
    S, closed = bch2_exponent_sets(spec)
    assert S == closed


def test_designed_distance_soundness_small(R16, F16):
    emb = FieldEmbedding(F16, F16)
    alpha = find_normal_element(R16)
    for delta in (2, 3):
        spec = Bch2Spec(
            base_ring=R16, emb=emb, alpha=alpha,
            b=0, t1=1, t2=1, delta=delta, nu=0,
        )
        code, designed = bch2_code(spec)
        if code.k:
            assert min_distance_exact(code) >= designed


# -- evaluation codes ---------------------------------------------------------------------


def test_eval_code_first_row_all_ones(R8, F8):
    pts = [a for a in F8.elements() if a][:4]
    if vandermonde_rank(R8, 4, pts) == 4:
        code = evaluation_code(R8, pts, 1)
        assert code.generator_matrix[0] == [F8.one] * 4


def test_eval_code_rejects_bad_k(R8, F8):
    pts = [F8.element(i) for i in (1, 2, 3)]
    with pytest.raises(ValueError):
        evaluation_code(R8, pts, 3)
    with pytest.raises(ValueError):
        evaluation_code(R8, pts, 0)


def test_eval_code_rejects_rank_deficient(R8, F8):
    pts = [F8.one, F8.one + F8.one]   # contains 0: fine; use dependent set
    pts = [a for a in F8.elements()][:5]
    if vandermonde_rank(R8, 5, pts) < 5:
        with pytest.raises(ConditionViolatedError):
            evaluation_code(R8, pts, 2)


def test_eval_code_words_are_evaluations(R8, F8):
    rng = random.Random(7)
    els = list(F8.elements())
    for _ in range(20):
        pts = rng.sample(els, 4)
        if vandermonde_rank(R8, 4, pts) < 4:
            continue
        k = rng.randrange(1, 4)
        code = evaluation_code(R8, pts, k)
        p = R8.from_indices([rng.randrange(8) for _ in range(k)])
        word = [F8.zero] * 4
        for i in range(k):
            ci = p.coefficient(i)
            word = [acc + ci * v for acc, v in zip(word, code.generator_matrix[i])]
        assert word == [p(a) for a in pts]


def test_eval_code_classical_reed_solomon(F8):
    Rc = SkewRing(F8, 3)    # sigma = id
    pts = [a for a in F8.elements() if a][:6]
    code = evaluation_code(Rc, pts, 3)
    assert min_distance_exact(code) == 4
    assert is_mds(code)


def test_eval_codes_all_full_rank_sets_are_mds(R8, F8):
    els = list(F8.elements())
    total = 0
    for n in range(2, 7):
        for combo in itertools.combinations(els, n):
            if vandermonde_rank(R8, n, combo) != n:
                continue
            total += 1
            for k in range(1, n):
                code = evaluation_code(R8, combo, k)
                assert min_distance_exact(code) == n - k + 1
    # the whole field has rank 4, so sizes 5 and 6 contribute nothing
    assert total == 28 + 49 + 28


# -- both generators against the routes they replaced ------------------------------


@pytest.mark.parametrize("base, ext", [("F4", "F16"), ("F2_6", "F2_12")])
def test_bch_generators_match_old_routes(base, ext):
    """Each generator is one subfield minimal polynomial of the closed root
    set; it must equal the per-root base lclm fold (first kind) and the
    restricted coset-closure lclm (second kind) at every admissible e."""
    B, E = get_field(base), get_field(ext)
    emb = FieldEmbedding(B, E)
    rng = random.Random(f"{base}->{ext}")
    for e in (e for e in range(1, B.degree + 1) if B.degree % e == 0):
        ring, ext_ring = SkewRing(B, e), SkewRing(E, e)
        n = ext_ring.m
        normals = list(itertools.islice((k for k in range(1, E.order - 1) if matrix_rank(
            moore_matrix(ext_ring, [ext_ring.sigma(E.gen ** k, j) for j in range(n)], n), E
        ) == n), 8))
        for _ in range(12):
            params = (ring, emb, E.gen ** rng.randrange(1, E.order - 1),
                      rng.randrange(20), rng.randrange(1, 30), rng.randrange(1, 30),
                      rng.randrange(2, 5), rng.randrange(2))
            spec = Bch1Spec(*params, n=bch1_max_length(Bch1Spec(*params, n=1)) or 1)
            g, _ = bch1_generator(spec)
            assert g == bch1_generator_by_fold(spec), (e, spec)
        for _ in range(12):
            delta = rng.randrange(2, 5)
            spec = Bch2Spec(ring, emb, E.gen ** rng.choice(normals), rng.randrange(n),
                            rng.choice([t for t in range(1, 2 * n + 1) if gcd(n, t) == 1]),
                            rng.choice([t for t in range(1, 2 * n + 1) if gcd(n, t) < delta]),
                            delta, rng.randrange(2))
            g, _ = bch2_generator(spec)
            assert g == bch2_generator_by_closure(spec), (e, spec)


# -- the spec records against a frozen dataclass twin ------------------------------------


def _twin(cls):
    """A frozen dataclass over the same field names, for the behaviour the
    specs keep without importing dataclasses in the library."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)


def _spec_values(spec):
    return {name: getattr(spec, name) for name in type(spec)._fields}


@pytest.mark.parametrize("fixture", ["spec1", "spec2"])
def test_spec_matches_dataclass_twin(request, fixture):
    spec = request.getfixturevalue(fixture)
    cls = type(spec)
    values = _spec_values(spec)
    twin = _twin(cls)(**values)
    assert cls(*values.values()) == cls(**values) == spec
    assert repr(spec) == repr(twin)
    assert hash(spec) == hash(twin) == hash(cls(**values))
    assert spec != twin and twin != spec
    changed = cls(**{**values, "b": spec.b + 1})
    assert changed != spec and (changed == spec) == (_twin(cls)(**{**values, "b": spec.b + 1}) == twin)
    assert copy.copy(spec) == spec


def test_spec_kinds_never_compare_equal(spec2):
    values = _spec_values(spec2)
    assert Bch1Spec(**values, n=spec2.n) != spec2
    assert spec2.n == 12   # a property on the second kind, a field on the first


@pytest.mark.parametrize("cls", [Bch1Spec, Bch2Spec])
def test_spec_refuses_assignment_like_dataclass_twin(cls):
    values = dict.fromkeys(cls._fields, 1)
    for obj in (cls(**values), _twin(cls)(**values)):
        with pytest.raises(AttributeError, match="cannot assign to field 'b'"):
            obj.b = 2
        with pytest.raises(AttributeError, match="cannot assign to field 'cache'"):
            obj.cache = 2
        with pytest.raises(AttributeError, match="cannot delete field 'b'"):
            del obj.b
        assert obj.b == 1


@pytest.mark.parametrize("cls", [Bch1Spec, Bch2Spec])
def test_spec_constructor_arity_like_dataclass_twin(cls):
    values = list(range(len(cls._fields)))
    for make in (cls, _twin(cls)):
        with pytest.raises(TypeError):
            make(*values[:-1])
        with pytest.raises(TypeError):
            make(*values, 0)
        with pytest.raises(TypeError):
            make(*values[1:], **{cls._fields[1]: 0})
        with pytest.raises(TypeError):
            make(*values, extra=0)


@pytest.mark.parametrize("cls", [Bch1Spec, Bch2Spec])
def test_spec_copy_and_pickle_round_trip(cls):
    values = {name: (name, i) for i, name in enumerate(cls._fields)}
    spec, twin = cls(**values), _twin(cls)(**values)
    # the twin is a class of no importable module, so only the spec is pickled
    clones = [copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))]
    twins = [copy.copy(twin), copy.deepcopy(twin)]
    for clone in clones:
        assert type(clone) is cls and clone == spec and hash(clone) == hash(spec)
        assert [repr(clone)] == sorted({repr(t) for t in twins})
        with pytest.raises(AttributeError):
            clone.b = 0
