import operator
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewcodes.errors import FieldMismatchError, GuardExceededError
from skewcodes.fields import (
    FieldEmbedding,
    FieldSpec,
    FrobeniusAut,
    _fp_is_irreducible,
    _packed_inv,
    _packed_mul,
    _packed_muls,
    conjugacy_class,
    conjugacy_classes,
    conjugate,
    find_irreducible,
    frobenius_power,
    get_field,
    norm,
    norm_exponent,
    norm_via_exponent,
    relative_automorphisms,
)
from conftest import BIG_FIELDS, EXTRA_FIELDS, PRESETS
from oracle_utils import (
    fp_is_irreducible_by_trial_division,
    naive_add,
    naive_mul,
    naive_neg,
    naive_pow,
)
from skewcodes.skewpoly import SkewRing


def test_f4_defining_relation(F4):
    w = F4.gen
    assert w * w == w + F4.one


@pytest.mark.parametrize("p,modulus,gen", [(2, (1, 1), 1), (5, (2, 1), 3), (4099, (1, 1), 4098)])
def test_prime_field_gen_is_the_root_of_its_modulus(p, modulus, gen):
    """Over F_p the variable is the residue -m_0 of x modulo x + m_0."""
    F = FieldSpec(p, modulus)
    assert F.gen.i == gen
    assert naive_add(F, modulus[0], F.gen.i) == 0


def test_identity_element(F8):
    for a in F8.elements():
        assert a * F8.one == a


def test_f8_against_naive_multiplication_table(F8):
    for a in F8.elements():
        for b in F8.elements():
            assert a * b == naive_mul(F8, a, b)


def test_f8_generator_cubed(F8):
    a = F8.gen
    assert a**3 == a + F8.one


def test_inverse_and_division(F16):
    for a in F16.elements():
        if a:
            assert a * a.inverse() == F16.one
            assert (a / a) == F16.one
    with pytest.raises(ZeroDivisionError):
        F16.zero.inverse()


def test_mixed_field_arithmetic_rejected(F4, F8):
    with pytest.raises(FieldMismatchError):
        F4.gen + F8.gen


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


# Reducible moduli (ascending) with x^(p^d) = x, so only the gcd step of
# Rabin's test refuses them: x^(p^(d/r)) - x is 0 modulo the first two and
# shares a proper factor with the last two.  Factors are descending.
_RABIN_GCD_CASES = [
    pytest.param(2, (0, 1, 0, 0, 1), [[1, 0], [1, 1], [1, 1, 1]], True, id="F2-x^4+x"),
    pytest.param(3, (2, 1, 0, 1, 1), [[1, 0, 1], [1, 1, 2]], True,
                 id="F3-(x^2+1)(x^2+x+2)"),
    pytest.param(2, (1, 1, 0, 0, 1, 0, 1), [[1, 1], [1, 1, 1], [1, 0, 1, 1]], False,
                 id="F2-(x+1)(x^2+x+1)(x^3+x+1)"),
    pytest.param(3, (1, 0, 0, 1, 0, 1, 1), [[1, 1], [1, 0, 1], [1, 0, 2, 1]], False,
                 id="F3-(x+1)(x^2+1)(x^3+2x+1)"),
]


@pytest.mark.parametrize("p,modulus,factors,vanishes", _RABIN_GCD_CASES)
def test_rabin_gcd_step_refuses(p, modulus, factors, vanishes):
    """Each modulus is the product of its factors and passes x^(p^d) = x,
    by sympy; some prime r | d gives h = x^(p^(d/r)) - x that is 0 mod the
    modulus (vanishes) or a nonzero h with a common factor, and FieldSpec
    refuses it."""
    from sympy import Poly, gcd, prod, symbols

    x = symbols("x")
    m = Poly(list(reversed(modulus)), x, modulus=p)
    assert prod(Poly(f, x, modulus=p) for f in factors) == m
    d = m.degree()
    assert Poly(x ** p ** d - x, x, modulus=p).rem(m).is_zero
    hs = [Poly(x ** p ** (d // r) - x, x, modulus=p).rem(m) for r in (2, 3) if d % r == 0]
    if vanishes:
        assert any(h.is_zero for h in hs)
    else:
        assert all(not h.is_zero for h in hs) and any(gcd(h, m).degree() > 0 for h in hs)
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(p, modulus)


@pytest.mark.parametrize("p,modulus,factors,vanishes", _RABIN_GCD_CASES)
def test_packed_inv_on_a_reducible_modulus(p, modulus, factors, vanishes):
    """Over F_p[x]/(m) with m reducible, _packed_inv returns 0 exactly when
    gcd(a, m) is not 1 (by sympy), and otherwise an inverse that sympy
    checks: a * inv(a) = 1 mod m."""
    from sympy import Poly, gcd, symbols

    x = symbols("x")
    m = Poly(list(reversed(modulus)), x, modulus=p)
    d = len(modulus) - 1
    inv = _packed_inv(p, modulus)

    def poly(a):
        return Poly([a // p ** i % p for i in reversed(range(d))], x, modulus=p)

    units = 0
    for a in range(1, p ** d):
        b = inv(a)
        if gcd(poly(a), m).degree() > 0:
            assert b == 0
        else:
            units += 1
            assert 0 < b < p ** d and (poly(a) * poly(b)).rem(m) == Poly(1, x, modulus=p)
    assert 0 < units < p ** d - 1


def test_modulus_check_against_trial_division():
    """FieldSpec accepts exactly the moduli that trial division calls
    irreducible: every monic polynomial of degree 1 .. 10 over F_2, 6 over
    F_3, 4 over F_5 and 3 over F_7, 4,317 in all."""
    count = 0
    for p, top in [(2, 10), (3, 6), (5, 4), (7, 3)]:
        for d in range(1, top + 1):
            for idx in range(p ** d):
                modulus = tuple(idx // p ** i % p for i in range(d)) + (1,)
                try:
                    FieldSpec(p, modulus)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == fp_is_irreducible_by_trial_division(list(modulus), p), modulus
                count += 1
    assert count == 4317


@pytest.mark.parametrize("p,degree,earlier", [(2, 32, 141), (3, 20, 34)])
def test_find_irreducible_first_candidate(p, degree, earlier):
    """find_irreducible returns a modulus sympy calls irreducible, in under
    1 s, and sympy calls every earlier candidate reducible."""
    from sympy import Poly, symbols

    x = symbols("x")
    start = time.perf_counter()
    modulus = find_irreducible(p, degree)
    assert time.perf_counter() - start < 1.0
    assert Poly(list(reversed(modulus)), x, modulus=p).is_irreducible
    assert sum(c * p ** i for i, c in enumerate(modulus[:-1])) == earlier
    for idx in range(earlier):
        cand = [idx // p ** i % p for i in range(degree)] + [1]
        assert not Poly(list(reversed(cand)), x, modulus=p).is_irreducible


def test_find_irreducible_against_trial_division():
    """With the one _packed_muls that find_irreducible shares among the
    candidates of a degree, Rabin's test agrees with trial division on every monic
    polynomial for p = 2 to degree 12, 3 to 7, 5 to 5, 7 to 4, and 11 and
    13 to 3 (22,016 in all), and find_irreducible returns the first
    irreducible one."""
    count = 0
    for p, top in [(2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3)]:
        for d in range(1, top + 1):
            muls = _packed_muls(p, d)
            irreducible = []
            for idx in range(p ** d):
                cand = tuple(idx // p ** i % p for i in range(d)) + (1,)
                verdict = _fp_is_irreducible(p, cand, muls(cand))
                assert verdict == fp_is_irreducible_by_trial_division(list(cand), p), cand
                if verdict:
                    irreducible.append(cand)
                count += 1
            assert find_irreducible(p, d) == irreducible[0], (p, d)
    assert count == 22016


def test_shared_slot_width_keeps_products():
    """A product built with the slot width that fits every modulus of its
    degree equals the product built with the modulus's own width."""
    rng = random.Random(7)
    for p, d in [(2, 9), (3, 7), (5, 4), (7, 3), (3, 12)]:
        muls = _packed_muls(p, d)
        for _ in range(5):
            modulus = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            own, shared = _packed_mul(p, modulus), muls(modulus)
            for _ in range(20):
                a, b = rng.randrange(p ** d), rng.randrange(p ** d)
                assert own(a, b) == shared(a, b), (p, modulus, a, b)


@pytest.mark.parametrize("p,prime", [
    (4294967291, True),     # the largest prime below 2^32
    (65521 ** 2, False),    # the square of the largest prime below 2^16
    (4294967311, None),     # the smallest prime above 2^32: not decided
])
def test_characteristic_by_trial_division_below_2_16(p, prime):
    """Trial division by every integer below 2^16 decides each p < 2^32; a
    larger p with no factor below 2^16 is refused, not searched further."""
    if prime:
        assert FieldSpec(p, (0, 1)).order == p
    elif prime is None:
        with pytest.raises(GuardExceededError, match="needs 65535 trial divisors"):
            FieldSpec(p, (0, 1))
    else:
        with pytest.raises(ValueError, match=f"characteristic {p} is not prime"):
            FieldSpec(p, (0, 1))


def test_modulus_out_of_range_refused():
    """p^(d//2) > 2^16 is refused, with its cost: degree 34 over F_2 and
    degree 2 over a prime above 2^16."""
    with pytest.raises(GuardExceededError) as info:
        find_irreducible(2, 34)
    assert str(info.value) == "field modulus of degree 34 over F_2 is out of range: 2^17 exceeds 2^16"
    assert info.value.cost == 2 ** 17
    with pytest.raises(GuardExceededError, match="65537\\^1 exceeds 2\\^16"):
        FieldSpec(65537, (3, 0, 1))


def test_prime_field_f2_without_primitive_flag():
    # the generator search must find 1, the only generator of F_2^*
    spec = FieldSpec(2, (1, 1))
    assert [spec.mul_i(a, b) for a in (0, 1) for b in (0, 1)] == [0, 0, 0, 1]
    assert spec.inv_i(1) == 1
    with pytest.raises(ZeroDivisionError):
        spec.inv_i(0)
    assert [spec.pow_i(1, k) for k in (-3, 0, 1, 5)] == [1, 1, 1, 1]
    assert [spec.pow_i(0, k) for k in (0, 1, 4)] == [1, 0, 0]
    assert [spec.frob_i(a, j) for a in (0, 1) for j in (0, 1, 2)] == [0] * 3 + [1] * 3
    assert spec.element_order(spec.one) == 1
    assert [spec.add_i(a, b) for a in (0, 1) for b in (0, 1)] == [0, 1, 1, 0]


def test_primitive_flag_validated():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5
    with pytest.raises(ValueError):
        FieldSpec(2, (1, 1, 1, 1, 1), primitive=True)
    spec = FieldSpec(2, (1, 1, 1, 1, 1), primitive=False)
    assert spec.element_order(spec.gen) == 5


@pytest.mark.parametrize("modulus,error,message", [
    ((0, 1), ValueError, "F2^1: primitive flag set but the generator is 0"),
    ((1, 1, 1, 1, 1), ValueError,
     "F2^4: primitive flag set but the generator has order 5, not 15"),
    ((1, 0, 0, 1) + (0,) * 13 + (1,), GuardExceededError,
     "log tables limited to 2^16 elements, field has 131072"),
])
def test_primitive_flag_refusals(modulus, error, message):
    """The flag is checked when the field is built, with no table built."""
    with pytest.raises(error) as info:
        FieldSpec(2, modulus, primitive=True)
    assert str(info.value) == message


def test_primitive_field_builds_its_tables_on_first_use():
    F = FieldSpec(2, (1, 1, 0, 0, 1), primitive=True)
    assert F._exp is None and F._log is None and F._frob_tables == [None] * 4
    assert F.mul_i(F.gen.i, 8) == 3   # x * x^3 = x + 1
    assert F._gen_index == F.gen.i and F.log_i(3) == 4
    assert None not in F._frob_tables


def test_frobenius_basics(F4, aut4):
    w = F4.gen
    assert aut4.apply(w) == w * w
    assert aut4.apply(F4.one) == F4.one
    assert aut4.order == 2
    for a in F4.elements():
        assert frobenius_power(aut4, aut4.order, a) == a
        assert frobenius_power(aut4, 0, a) == a


def test_frobenius_is_homomorphism(F16):
    aut = FrobeniusAut(F16, 1)
    rng = random.Random(0)
    for _ in range(50):
        a = F16.element(rng.randrange(16))
        b = F16.element(rng.randrange(16))
        assert aut.apply(a * b) == aut.apply(a) * aut.apply(b)
        assert aut.apply(a + b) == aut.apply(a) + aut.apply(b)


def test_norm_recurrence_matches_closed_form(F16, F9):
    for field, es in ((F16, (1, 2, 4)), (F9, (1, 2))):
        for e in es:
            aut = FrobeniusAut(field, e)
            m = aut.order
            for a in field.elements():
                for i in range(2 * m + 1):
                    assert norm(aut, i, a) == norm_via_exponent(aut, i, a)


def test_norm_trivia(F4, aut4):
    w = F4.gen
    assert norm(aut4, 2, w) == F4.one       # w * sigma(w) = w^3 = 1
    for a in F4.elements():
        assert norm(aut4, 0, a) == F4.one


def test_full_norm_is_product_of_conjugates(F64):
    aut = FrobeniusAut(F64, 1)
    m = aut.order
    for a in F64.elements():
        prod = F64.one
        for j in range(m):
            prod = prod * aut.apply(a, j)
        assert norm(aut, m, a) == prod


def test_norm_exponent_values():
    assert norm_exponent(2, 0) == 0
    assert norm_exponent(2, 1) == 1
    assert norm_exponent(2, 3) == 7  # 1 + 2 + 4
    assert norm_exponent(3, 2) == 4


def test_conjugacy_classes_f4(F4, aut4):
    classes = conjugacy_classes(aut4)
    assert len(classes) == 2  # q = 2
    assert classes[0] == frozenset([F4.zero])
    assert classes[1] == frozenset([F4.one, F4.gen, F4.gen**2])


def test_conjugacy_classes_f9_squares(F9):
    aut = FrobeniusAut(F9, 1)
    classes = conjugacy_classes(aut)
    assert len(classes) == 3  # q = 3
    squares = frozenset(a * a for a in F9.elements() if a)
    nonsquares = frozenset(a for a in F9.elements() if a and a not in squares)
    nonzero_classes = {cls for cls in classes if F9.zero not in cls}
    assert nonzero_classes == {squares, nonsquares}


@pytest.mark.parametrize("name,e", [("F4", 1), ("F9", 1), ("F16", 1), ("F27", 1), ("F16", 2)])
def test_conjugacy_partition_and_sizes(name, e):
    field = get_field(name)
    aut = FrobeniusAut(field, e)
    q = aut.q
    m = aut.order
    classes = conjugacy_classes(aut)
    assert len(classes) == q
    expect = (q**m - 1) // (q - 1)
    seen = set()
    for cls in classes:
        if field.zero in cls:
            assert cls == frozenset([field.zero])
        else:
            assert len(cls) == expect
        assert not (seen & {a.i for a in cls})
        seen.update(a.i for a in cls)
    assert len(seen) == field.order


@pytest.mark.parametrize("name", ["F4", "F9", "F27"])
def test_conjugacy_is_equivalence(name):
    field = get_field(name)
    aut = FrobeniusAut(field, 1)
    els = list(field.elements())
    nonzero = [c for c in els if c]
    for a in els:
        assert conjugate(aut, a, field.one) == a
        for c1 in nonzero:
            ac1 = conjugate(aut, a, c1)
            for c2 in nonzero:
                assert conjugate(aut, ac1, c2) == conjugate(aut, a, c1 * c2)
    for a in els:
        for c in nonzero:
            b = conjugate(aut, a, c)
            assert a in conjugacy_class(aut, b)


def test_embedding_roundtrip_and_homomorphism(F8, F64):
    emb = FieldEmbedding(F8, F64)
    assert emb.embed(F8.zero) == F64.zero
    assert emb.embed(F8.one) == F64.one
    for a in F8.elements():
        assert emb.restrict(emb.embed(a)) == a
        for b in F8.elements():
            assert emb.embed(a * b) == emb.embed(a) * emb.embed(b)
            assert emb.embed(a + b) == emb.embed(a) + emb.embed(b)
    images = {emb.embed(a).i for a in F8.elements()}
    assert len(images) == F8.order  # injective


def test_embedding_image_satisfies_modulus(F64, F4096):
    emb = FieldEmbedding(F64, F4096)
    img = emb.generator_image
    acc = F4096.zero
    power = F4096.one
    for c in F64.modulus:
        if c:
            acc = acc + power
        power = power * img
    assert acc == F4096.zero


def test_embedding_picks_lexicographically_least_root(F4, F16):
    emb = FieldEmbedding(F4, F16)
    roots = []
    for cand in F16.elements():
        if cand * cand + cand + F16.one == F16.zero:
            roots.append(cand)
    assert len(roots) == 2
    assert emb.generator_image == min(roots, key=lambda r: r.coeffs)
    # deterministic: a fresh embedding picks the same image
    assert FieldEmbedding(F4, F16).generator_image == emb.generator_image


def test_degree6_source_embedding_multiplicative(F64, F4096, tower):
    els = list(F64.elements())
    images = {tower.embed(x).i for x in els}
    assert len(images) == F64.order
    for x in els:
        for y in els:
            assert tower.embed(x * y) == tower.embed(x) * tower.embed(y)


def test_tower_gamma_is_embedded_generator_power(F4096, tower):
    # the order-63 subgroup of the big field is the embedded subfield
    alpha = F4096.gen
    gamma = alpha**65
    assert F4096.element_order(gamma) == 63
    assert tower.restrict(gamma) is not None
    assert tower.restrict(alpha) is None  # order 4095 does not divide 63


def test_relative_automorphisms_fix_subfield(F64, F4096, tower):
    taus = relative_automorphisms(tower)
    assert len(taus) == 2
    for a in F64.elements():
        img = tower.embed(a)
        for tau in taus:
            assert tau.apply(img) == img
    alpha = F4096.gen
    assert taus[1].apply(alpha) == alpha**64


def test_relative_automorphisms_trivial_tower(F8):
    emb = FieldEmbedding(F8, F8)
    taus = relative_automorphisms(emb)
    assert len(taus) == 1
    for a in F8.elements():
        assert taus[0].apply(a) == a


def test_element_formatting(F4, F27):
    w = F4.gen
    assert str(F4.zero) == "0"
    assert str(F4.one) == "1"
    assert str(w) == "a"
    assert str(w * w) == "a^2"
    assert F27.format_element(F27.gen.i, style="tuple") == "0,1,0"


def test_concurrent_lazy_table_build():
    import threading

    spec = FieldSpec(2, (1, 1, 0, 1, 1, 0, 1))  # fresh spec, no tables yet
    errors = []

    def hammer():
        try:
            for a in range(spec.order):
                spec.mul_i(a, 3)
                spec.frob_i(a, 2)
        except Exception as exc:   # pragma: no cover - only on regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for a in spec.elements():
        for b in spec.elements():
            assert a * b == naive_mul(spec, a, b)


# -- table oracles: each table against a path that never reads it -------------------

# Fresh odd fields whose variable x is not primitive, so the exp table steps by
# the general split map (gen 5, 9, 22), and the bigfield F_3^6.
_ODD_TABLE_FIELDS = {
    "F3^4": (3, (1, 1, 1, 1, 1)),        # x^4+x^3+x^2+x+1: x has order 5
    "F5^3": (5, (1, 1, 0, 1)),           # x has order 62 of 124
    "F7^3": (7, (2, 0, 0, 1)),           # x has order 18 of 342
    "F3^5": (3, (1, 2, 0, 0, 0, 1)),
    "F3^6": (3, (2, 1, 0, 0, 0, 0, 1)),
}


def _table_field(name):
    if name in _ODD_TABLE_FIELDS or name in EXTRA_FIELDS:
        p, mod = {**_ODD_TABLE_FIELDS, **EXTRA_FIELDS}[name]
        return FieldSpec(p, mod, name=name)
    return get_field(name)


_TABLE_FIELD_NAMES = ["F2", "F4", "F8", "F9", "F16", "F27", "F2_6", "F2_12", *_ODD_TABLE_FIELDS]


# a prime field (addition mod p, no digit table) and odd degrees with a
# middle digit between the two chunks of the stepping addition
@pytest.mark.parametrize("name", _TABLE_FIELD_NAMES + ["F4099", "F7_5", "F37_3"])
def test_exp_log_tables_against_slow_mul(name):
    F = _table_field(name)
    F.mul_i(1, 1)
    n, exp, log, gen = F.order - 1, F._exp, F._log, F._gen_index
    assert len(exp) == 2 * n and exp[:n] == exp[n:]
    assert exp[0] == 1
    g = F.element(gen)
    for k in range(n):
        assert log[exp[k]] == k
        assert exp[k + 1] == naive_mul(F, F.element(exp[k]), g).i
    assert F._element_order_raw(gen) == n


@pytest.mark.parametrize("name", _TABLE_FIELD_NAMES)
def test_frobenius_tables_against_slow_pow(name):
    F = _table_field(name)
    if F.order <= 1 << 10:
        points = range(F.order)
    else:
        points = random.Random(name).sample(range(F.order), 64)
    for j in range(F.degree):
        e = F.p ** j
        assert [F.frob_i(a, j) for a in points] == [naive_pow(F, F.element(a), e).i
                                                    for a in points]


def test_slow_pow_makes_no_product_by_one_and_no_extra_square(field_named, monkeypatch):
    """Above 2^16 elements frob_i(a, j) is j squarings through the kernel's
    multiply: no product by the initial 1 and no squaring past the top bit
    of p^j.  The inverse is extended Euclid and makes no multiply call."""
    F = field_named("F2_17")
    kern = F.kernel()
    calls = []
    mul = kern.mul

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(kern, "mul", counted)
    a = 0b1011011
    for j, count in [(0, 0), (1, 1), (5, 5)]:
        calls.clear()
        assert F.frob_i(a, j) == naive_pow(F, F.element(a), 2 ** j).i
        assert len(calls) == count
    calls.clear()
    inv = F.inv_i(a)
    assert calls == []
    assert naive_mul(F, F.element(a), F.element(inv)).i == 1


# -- the packed kernel above the table limit against the coefficient oracles --


def test_big_field_moduli_are_irreducible():
    """The BIG_FIELDS moduli are irreducible by sympy's test, which shares no
    code with the Rabin test of FieldSpec."""
    from sympy import Poly, symbols

    for p, modulus in BIG_FIELDS.values():
        assert Poly(list(reversed(modulus)), symbols("x"), modulus=p).is_irreducible


@pytest.mark.parametrize("name", sorted(BIG_FIELDS))
def test_packed_inv_against_naive_mul(name, field_named):
    """Extended Euclid against naive_mul on 1, order - 1 and 1,000 sampled
    elements: every inverse is a packed index with a * inv(a) = 1."""
    F = field_named(name)
    E = F.element
    points = [1, F.order - 1] + random.Random(name).sample(range(2, F.order - 1), 1000)
    for a in points:
        inv = F.inv_i(a)
        assert 0 < inv < F.order
        assert naive_mul(F, E(a), E(inv)).i == 1


@pytest.mark.parametrize("name", sorted(BIG_FIELDS))
@given(data=st.data())
def test_packed_mul_commutes_and_distributes(name, field_named, data):
    F = field_named(name)
    a, b, c = (F.element(data.draw(st.integers(0, F.order - 1))) for _ in range(3))
    ab = naive_mul(F, a, b)
    assert a * b == ab and b * a == ab
    assert (a * (b + c)).i == naive_add(F, ab.i, naive_mul(F, a, c).i)


def test_frobenius_above_the_table_limit_builds_no_table():
    """Above 2^16 elements frob_i is one power per call, against naive_pow."""
    F = FieldSpec(2, (1, 0, 0, 1) + (0,) * 13 + (1,), name="F2_17")
    for a in [0, 1] + random.Random(17).sample(range(2, F.order), 4):
        for j in (0, 1, 5, 16):
            assert F.frob_i(a, j) == naive_pow(F, F.element(a), 2 ** j).i
    assert F._frob_tables == [None] * F.degree


def _coefficientwise_sum(F, a, b):
    return F.from_coeffs([(x + y) % F.p for x, y in zip(F.coeffs_of(a), F.coeffs_of(b))]).i


@pytest.mark.parametrize("name", ["F9", "F27", "F3^4", "F5^3", "F3^5"])
def test_add_table_against_coefficientwise_sum(name):
    F = _table_field(name)
    F.add_i(0, 0)
    table = F._add_table
    for a in range(F.order):
        assert table[a] == [_coefficientwise_sum(F, a, b) for b in range(F.order)]


def test_add_table_sampled_rows_f3_6():
    F = _table_field("F3^6")
    F.add_i(0, 0)
    assert len(F._add_table) == F.order
    for a in random.Random(36).sample(range(F.order), 24):
        assert F._add_table[a] == [_coefficientwise_sum(F, a, b) for b in range(F.order)]


# -- the public kernel against coefficient arithmetic ------------------------------


@pytest.mark.parametrize("name", PRESETS + ["F2_16", "F3_10", "F3_6"] + sorted(BIG_FIELDS))
def test_mul_against_naive_mul(name, field_named):
    """Above 2^16 elements the edge pairs are the slot-overflow cases of the
    packed product: order - 1, every coefficient p - 1, squared fills each
    slot of a Kronecker product with its largest sum, and products of the
    top-degree monomials x^(d-1) and (p - 1) x^(d-1) put the largest sums
    in the slots that fold back."""
    F = field_named(name)
    if F.order <= 1 << 8:
        pairs = [(a, b) for a in range(F.order) for b in range(F.order)]
    else:
        rng = random.Random(name)
        pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(600)]
        top = F.p ** (F.degree - 1)
        edge = [1, F.p - 1, F.order - 1, top, (F.p - 1) * top, F.order - 1 - top]
        pairs += [(0, 1), (1, 0)] + [(a, b) for a in edge for b in edge]
    for a, b in pairs:
        x, y = F.element(a), F.element(b)
        assert x * y == naive_mul(F, x, y)


@pytest.mark.parametrize("name", ["F3_10", "F7_5", "F37_3", "F4099", "F3_11", "F5_7", "F17_4"])
def test_odd_add_sub_neg_against_coefficients(name, field_named):
    F = field_named(name)
    rng = random.Random(name)
    edge = [0, 1, F.p - 1, F.p % F.order, F.order - 1]
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(1500)]
    for a, b in pairs:
        assert F.add_i(a, b) == naive_add(F, a, b)
        assert F.sub_i(a, b) == naive_add(F, a, b, sign=-1)
        assert F.neg_i(b) == naive_neg(F, b)
        x, y = F.element(a), F.element(b)
        assert (x + y).i == naive_add(F, a, b)
        assert (x - y).i == naive_add(F, a, b, sign=-1)
        assert (-y).i == naive_neg(F, b)


@pytest.mark.parametrize("p", [4093, 65537])
def test_prime_field_adds_mod_p_without_a_table(p):
    """A prime field builds no p x p addition table: p = 4093 (at most 2^12
    elements) adds mod p in the table kernel, p = 65537 (above 2^16) in the
    polynomial kernel."""
    F = FieldSpec(p, (0, 1))
    start = time.perf_counter()
    assert F.add_i(p - 1, 2) == 1
    assert time.perf_counter() - start < 0.1
    assert F._add_table is None
    assert (F._exp is None) == (p > 1 << 16)
    rng = random.Random(p)
    edge = [0, 1, p // 2, p - 1]
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(300)]
    for a, b in pairs:
        assert F.add_i(a, b) == naive_add(F, a, b)
        assert F.sub_i(a, b) == naive_add(F, a, b, sign=-1)
        assert F.neg_i(b) == naive_neg(F, b)


def test_kernel_references_the_field_tables(field_named):
    for name in ["F4", "F9", "F2_16", "F3_10", "F37_3"]:
        F = field_named(name)
        kern = F.kernel()
        assert kern is F.kernel()
        assert kern.exp is F._exp and kern.log is F._log
        assert kern.frob is F._frob_tables and kern.n == F.order - 1
        assert None not in F._frob_tables
        assert kern.half == (0 if F.p == 2 else kern.n // 2)
        if F.p == 2:
            assert kern.add is operator.xor
        else:
            assert callable(kern.add)
        if F.p != 2 and F.order > 1 << 12:
            assert len(F._add_table) ** 2 <= F.order
    assert field_named("F2_17").kernel().add is operator.xor
    for modulus in [(2, 1, 1), (1, 2, 0, 1), (2, 1, 0, 0, 0, 0, 1)]:
        # odd p, d > 1, at most 2^12 elements: the addition table comes with the kernel
        fresh = FieldSpec(3, modulus)
        assert fresh._add_table is None
        kern = fresh.kernel()
        assert len(fresh._add_table) == fresh.order
        assert fresh.neg_i(kern.exp[1]) == naive_neg(fresh, kern.exp[1])
        assert fresh.add_i(4, 7) == naive_add(fresh, 4, 7)
    # above the table limit: a polynomial kernel that serves every operation
    # against the coefficient oracles and builds no table
    big = FieldSpec(3, (2, 0, 1) + (0,) * 8 + (1,))
    kern = big.kernel()
    assert kern is big.kernel()
    E = big.element

    def prod(x, y):
        return naive_mul(big, E(x), E(y)).i

    def frob(x, t):
        return naive_pow(big, E(x), 3 ** t).i

    a, b, c = 5, 1 << 16, big.order - 1
    assert kern.add(a, b) == naive_add(big, a, b) and kern.neg(b) == naive_neg(big, b)
    assert kern.scale(c, (a, 0, b)) == (prod(c, a), 0, prod(c, b))
    out = [a, b]
    kern.addmul(out, 1, c, [(0, a)], 3)
    assert out == [a, naive_add(big, b, prod(c, frob(a, 3)))]
    r = [b, a]
    digit = kern.divstep(r, 0, c, b, [(0, a)], 2)
    assert digit == prod(c, frob(b, 2))
    assert r == [naive_add(big, b, prod(digit, frob(a, 2)), sign=-1), a]
    n2 = prod(b, frob(b, 1))   # N_2(b) for sigma = frob_1
    assert kern.evaluate((a, c, c), b, 1) == naive_add(big, naive_add(big, a, prod(c, b)),
                                                       prod(c, n2))
    m = [[a, b], [c, a]]
    kern.eliminate(m, 0, 0)
    row0 = [1, prod(naive_pow(big, E(a), big.order - 2).i, b)]
    assert m == [row0, [0, naive_add(big, a, prod(c, row0[1]), sign=-1)]]
    assert big._exp is None and big._log is None and big._add_table is None
    assert big._frob_tables == [None] * big.degree


def _assert_no_table(F):
    assert F._exp is None and F._log is None and F._add_table is None
    assert F._frob_tables == [None] * F.degree


@pytest.mark.parametrize("source,degree,modulus,image", [
    pytest.param("F4", 18, (1, 0, 0, 1) + (0,) * 14 + (1,), 37384, id="F4-37384"),
    pytest.param("F8", 18, (1, 0, 0, 1) + (0,) * 14 + (1,), 584, id="F8-584"),
    pytest.param("F4", 22, (1, 1) + (0,) * 20 + (1,), 2166038, id="F4-F2_22-2166038"),
])
def test_embedding_above_the_table_limit(source, degree, modulus, image):
    """Into F_2^18 (x^18 + x^3 + 1) and F_2^22 (x^22 + x + 1) the roots come
    from the subfield's span, not a scan of the target, and the target
    builds no table; a target above 2^20 elements is not refused, since the
    cost grows with the source."""
    S = get_field(source)
    T = FieldSpec(2, find_irreducible(2, degree))
    assert T.modulus == modulus
    start = time.perf_counter()
    emb = FieldEmbedding(S, T)
    assert time.perf_counter() - start < 1.0
    g = emb.generator_image
    assert g.i == image
    # the conjugates g^(2^j), j < d1, are d1 distinct roots: every root
    conjugates = [naive_pow(T, g, 2 ** j) for j in range(S.degree)]
    assert len({c.i for c in conjugates}) == S.degree
    for r in conjugates:
        acc, power = 0, T.one
        for c in S.modulus:
            if c:
                acc = naive_add(T, acc, c * power.i)   # c is 0 or 1
            power = naive_mul(T, power, r)
        assert acc == 0
    assert g == min(conjugates, key=lambda r: r.coeffs)
    for a in S.elements():
        assert emb.restrict(emb.embed(a)) == a
    _assert_no_table(T)


def test_embedding_refuses_a_source_above_2_20():
    """The subfield span and the inverse map have an entry per source
    element, so a source above 2^20 elements is refused before either is
    built, the identity embedding included."""
    S = FieldSpec(2, find_irreducible(2, 21))
    start = time.perf_counter()
    with pytest.raises(GuardExceededError, match="source has 2097152"):
        FieldEmbedding(S, S)
    assert time.perf_counter() - start < 0.1
    _assert_no_table(S)


@pytest.mark.parametrize(
    "name",
    ["F16", "F2_16",            # XOR tables
     "F9", "F3_6",              # odd tables with a full addition table
     "F3_10", "F7_5",           # chunked addition
     "F4099",                   # a prime field
     "F2_17", "F3_11",          # packed arithmetic: carry-less and Kronecker
     "F5_7", "F17_4"],
)
def test_scalar_ops_on_every_kernel_kind(name, field_named):
    F = field_named(name)
    E = F.element
    rng = random.Random(name)
    big = F.order > 1 << 16
    n, d = F.order - 1, F.degree
    points = [1, F.p - 1, F.order - 1]
    points += [rng.randrange(1, F.order) for _ in range(4 if big else 40)]
    for a in [0] + points:
        x = E(a)
        for b in points[:6] + [0]:
            y = E(b)
            assert F.mul_i(a, b) == naive_mul(F, x, y).i
            if b:
                inv = F.inv_i(b)
                assert naive_mul(F, y, E(inv)).i == 1
                assert F.div_i(a, b) == naive_mul(F, x, E(inv)).i
        for k in (0, 1, 2, 5, n, n + 3):
            assert F.pow_i(a, k) == naive_pow(F, x, k).i
        if a:
            for k in (-1, -3):
                assert F.pow_i(a, k) == naive_pow(F, x, k % n).i
        for j in (0, 1, d - 1, d, d + 2, 2 * d + 1):
            assert F.frob_i(a, j) == naive_pow(F, x, F.p ** (j % d)).i
    with pytest.raises(ZeroDivisionError):
        F.inv_i(0)
    with pytest.raises(ZeroDivisionError):
        F.pow_i(0, -1)
    if big:
        _assert_no_table(F)


@pytest.mark.parametrize("p", [2, 5])
def test_primitive_flag_rejects_a_zero_generator(p):
    """With modulus x the variable is 0, which no table can be built on."""
    with pytest.raises(ValueError, match="generator is 0"):
        FieldSpec(p, (0, 1), primitive=True)
    F = FieldSpec(p, (0, 1))   # without the flag a generator is searched
    a = F.element(p - 1)
    assert F.mul_i(a.i, a.i) == naive_mul(F, a, a).i
    assert naive_mul(F, a, F.element(F.inv_i(a.i))) == F.one


@pytest.mark.parametrize(
    "source,target",
    [("F2", "F16"), ("F4", "F16"), ("F2_6", "F2_12"), ("F9", "F3^4")],
)
def test_embedding_image_against_full_scan(source, target):
    S, T = _table_field(source), _table_field(target)
    roots = []
    for cand in T.elements():
        acc, power = T.zero, T.one
        for c in S.modulus:
            acc = acc + T.element(c) * power
            power = power * cand
        if acc == T.zero:
            roots.append(cand)
    assert len(roots) == S.degree
    assert FieldEmbedding(S, T).generator_image == min(roots, key=lambda r: r.coeffs)


def test_threaded_first_touch_matches_single_threaded():
    import sys
    import threading

    def fresh():
        # new specs with no tables yet; the shared embedding is built here,
        # its inverse map on the first restrict
        F = {name: _table_field(name) for name in ("F3^4", "F3^5")}
        F["F2^7"] = FieldSpec(2, (1, 1, 0, 0, 0, 0, 0, 1))
        F["F3^8"] = FieldSpec(3, (2, 0, 0, 1, 0, 0, 0, 0, 1))  # chunked addition
        F["F9"] = FieldSpec(3, (2, 1, 1))
        return F, FieldEmbedding(FieldSpec(3, (2, 1, 1)), _table_field("F3^4"))

    def work(F, emb, out):
        for name in ("F3^5", "F2^7", "F3^8"):
            G = F[name]
            out.append([G.mul_i(a, G.order - 1 - a) for a in range(G.order)])
            out.append([G.add_i(a, 2 * a % G.order) for a in range(G.order)])
            for j in range(G.degree):
                out.append([G.frob_i(a, j) for a in range(G.order)])
        for name in ("F3^4", "F2^7", "F3^8"):
            # the ring loops build the flat kernel on first touch
            R = SkewRing(F[name], 1)
            f = R.from_indices(range(1, 14))
            g = R.from_indices(range(3, 9))
            q, r = f.right_divmod(g)
            out.append(((f * g)._ci, q._ci, r._ci, f(F[name].element(2))))
        out.append(FieldEmbedding(F["F9"], F["F3^4"]).generator_image.i)
        out.append([emb.restrict(b) for b in range(emb.target.order)])

    def tables(F):
        return [(G._exp, G._log, G._add_table, G._frob_tables)
                for G in F.values()]

    ref_F, ref_emb = fresh()
    reference = []
    work(ref_F, ref_emb, reference)

    F, emb = fresh()
    results = [[] for _ in range(4)]
    errors = []
    start = threading.Barrier(4)

    def race(out):
        try:
            start.wait()
            work(F, emb, out)
        except Exception as exc:   # pragma: no cover - only on regression
            errors.append(exc)

    threads = [threading.Thread(target=race, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often inside the builders
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for out in results:
        assert out == reference
    assert tables(F) == tables(ref_F)
    for name in ("F3^4", "F3^5", "F2^7", "F3^8"):
        G = F[name]
        kern = G._kernel
        assert kern is not None and kern.exp is G._exp and kern.frob is G._frob_tables
