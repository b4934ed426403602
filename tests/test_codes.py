import itertools
import random
import threading
import time

import pytest

from skewcodes import codes
from skewcodes.codes import (
    Modulus,
    SkewCyclicCode,
    check_kernel_contains,
    check_polynomial,
    cofactor_constant,
    code_from_generator,
    constacyclic_shift,
    count_divisors,
    dual_code,
    enumerate_right_divisors,
    poly_to_word,
    self_dual_search,
    skew_circulant,
    transpose_decomposition,
    two_sided_circulant_product,
    vandermonde_parity_check,
    word_to_poly,
)
from skewcodes.errors import (
    FieldMismatchError,
    GuardExceededError,
    NotARightDivisorError,
    NotConstacyclicError,
    NotTwoSidedError,
    NotWedderburnError,
    SearchCancelledError,
)
from skewcodes.fields import FieldEmbedding, get_field
from skewcodes.linalg import matrix_rank, unwrap
from skewcodes.rootsets import is_wedderburn, vanishing_set
from skewcodes.skewpoly import (
    SkewRing,
    apply_automorphism,
    gcrd,
    is_irreducible_bruteforce,
    is_two_sided,
    lclm,
    left_reciprocal,
)
from skewcodes.textio import parse_poly
from conftest import PRESETS
from oracle_utils import (
    assert_check_identity,
    assert_cofactor_identities,
    assert_dual,
    assert_self_dual,
    assert_transpose_decomposition,
    f2_is_irreducible,
    in_row_space,
    mat_mul,
    naive_mul,
    naive_pow,
    row_space_equal,
    row_space_membership,
    self_dual_generators_by_product,
    split_quotient_divisor_profile,
)


GOLDEN_CIRCULANT = [
    "a   0   a^5 a   1   0   0",
    "0   a^2 0   a^3 a^2 1   0",
    "0   0   a^4 0   a^6 a^4 1",
    "a   0   0   a   0   a^5 a",
    "a^3 a^2 0   0   a^2 0   a^3",
    "1   a^6 a^4 0   0   a^4 0",
    "0   1   a^5 a   0   0   a",
]


def _f8_code(R8, F8):
    a = F8.gen
    f = R8.poly([a, 0, 0, 0, 0, 0, 0, F8.one])      # x^7 + a
    g = R8.poly([a, 0, a**5, a, F8.one])            # x^4 + a x^3 + a^5 x^2 + a
    return Modulus(f), g


def test_modulus_decides_two_sidedness_on_first_read(monkeypatch, R4, F4):
    calls = []

    def counted(f):
        calls.append(f)
        return is_two_sided(f)

    monkeypatch.setattr(codes, "is_two_sided", counted)
    f = R4.x_pow_minus(4, F4.one)
    mod = Modulus(f)
    assert calls == []
    assert mod.two_sided and mod.two_sided
    assert calls == [f]


def test_modulus_flags(R4, F4):
    m = Modulus(R4.x_pow_minus(4, F4.gen))
    assert m.is_constacyclic and m.constacyclic_constant == F4.gen
    assert not m.two_sided                       # sigma(w) != w
    m2 = Modulus(R4.x_pow_minus(4, F4.one))
    assert m2.two_sided
    m3 = Modulus(R4.poly([F4.one, F4.one, 0, F4.one]))
    assert not m3.is_constacyclic


def test_circulant_of_one_is_identity(R8, F8):
    mod, _ = _f8_code(R8, F8)
    rows = skew_circulant(mod, R8.one).rows
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            assert c == (F8.one if i == j else F8.zero)


def test_circulant_golden_matrix(R8, F8):
    from skewcodes.textio import parse_element

    mod, g = _f8_code(R8, F8)
    C = skew_circulant(mod, g)
    expect = [[parse_element(F8, tok) for tok in line.split()] for line in GOLDEN_CIRCULANT]
    assert C.rows == expect
    assert C.rank() == 3


def test_circulant_rows_match_defining_formula(R8, F8):
    # row i is x^i * g reduced by right division modulo f, computed here
    # independently of the sigma-shift recursion the builder uses
    rng = random.Random(11)
    mod, _ = _f8_code(R8, F8)
    for _ in range(15):
        g = R8.from_indices([rng.randrange(8) for _ in range(7)])
        C = skew_circulant(mod, g)
        xi = R8.one
        for i in range(7):
            _, rem = (xi * g).right_divmod(mod.poly)
            assert list(poly_to_word(rem, 7)) == C.row(i)
            xi = R8.x * xi


def test_classical_circulant_degenerate(F4):
    Rc = SkewRing(F4, 2)    # sigma = id
    w = F4.gen
    mod = Modulus(Rc.x_pow_minus(4, F4.one))
    g = Rc.poly([w, F4.one, w * w])
    rows = skew_circulant(mod, g).rows
    flat = [c.i for c in rows[0]]
    n = 4
    for i, row in enumerate(rows):
        assert [c.i for c in row] == [flat[(j - i) % n] for j in range(n)]


def test_code_from_generator_requires_divisor(R4, F4):
    f = Modulus(R4.x_pow_minus(4, F4.one))
    divisors = {g._ci for g in enumerate_right_divisors(f.poly, degrees=2)[2]}
    bad = next(
        R4.from_indices(ci + (1,))
        for ci in itertools.product(range(4), repeat=2)
        if ci + (1,) not in divisors
    )
    with pytest.raises(NotARightDivisorError) as err:
        code_from_generator(f, bad)
    assert err.value.remainder is not None


def test_trivial_codes(R4, F4):
    f = Modulus(R4.x_pow_minus(4, F4.one))
    zero_code = code_from_generator(f, f.poly)
    assert zero_code.k == 0 and zero_code.generator_matrix == []
    full = code_from_generator(f, R4.one)
    assert full.k == 4
    for u in itertools.product(range(4), repeat=4):
        word = [F4.element(i) for i in u]
        assert full.contains(word)
        assert zero_code.contains(word) == (not any(u))


def test_generator_matrix_banded_sigma_shift(R8, F8):
    mod, g = _f8_code(R8, F8)
    code = code_from_generator(mod, g)
    assert code.k == 3
    rows = code.generator_matrix
    for i in range(1, code.k):
        for j in range(code.n):
            prev = rows[i - 1][(j - 1) % code.n] if j else F8.zero
            expect = R8.sigma(prev) if j else F8.zero
            assert rows[i][j] == expect
    C = skew_circulant(mod, g)
    assert rows == C.rows[:3]
    assert row_space_equal(rows, C.rows, F8)


CODE_CASES = [
    (name, e)
    for name in PRESETS
    for e in range(1, get_field(name).degree + 1)
    if get_field(name).degree % e == 0
]


def _preset_codes(ring):
    """Length-6 codes of x^6 - 1 and x^6 - N_6(a), a the generator: generated
    by 1, by the lclm of up to three linear right divisors, and by the
    modulus itself."""
    x6 = ring.x_pow_minus(6, ring.field.zero)
    for c in (ring.field.one, x6(ring.field.gen)):
        f = ring.x_pow_minus(6, c)
        linear = enumerate_right_divisors(f, degrees=1)[1]
        gens = [ring.one, f] + ([lclm(*linear[::max(1, len(linear) // 3)][:3])] if linear else [])
        yield from (SkewCyclicCode(Modulus(f), g) for g in gens)


@pytest.mark.parametrize("name,e", CODE_CASES)
def test_code_matrices_are_circulant_rows(name, e):
    """The generator matrix is the top k rows of the circulant of g, row i
    sigma^i(g) shifted i places; the primal parity check is the top n - k
    rows of the circulant of h_rec modulo the dual modulus."""
    ring = SkewRing(get_field(name), e)
    for code in _preset_codes(ring):
        n, k, g = code.n, code.k, code.generator
        assert code.circulant().rows[:k] == code.generator_matrix
        for i, row in enumerate(code.generator_matrix):
            band = list(apply_automorphism(g, i).coefficients)
            assert row == [ring.field.zero] * i + band + [ring.field.zero] * (n - i - len(band))
        data = dual_code(code)
        circ = skew_circulant(data.code.modulus, data.raw_generator)
        assert data.primal_parity_check == circ.rows[:n - k]


def test_code_matrices_above_the_entry_guard(R2, F2):
    """A code is built with one division, its matrices on first use, and a
    matrix of more than 2^20 entries is refused."""
    start = time.perf_counter()
    code = SkewCyclicCode(Modulus(R2.x_pow_minus(1 << 16, F2.one)), R2.poly([1, 1]))
    assert time.perf_counter() - start < 1
    assert code.contains([1, 1] + [0] * ((1 << 16) - 2))
    assert not code.contains([1] + [0] * ((1 << 16) - 1))
    with pytest.raises(GuardExceededError) as exc:
        code.generator_matrix
    assert exc.value.cost == ((1 << 16) - 1) << 16
    f = Modulus(R2.x_pow_minus(2048, F2.one))
    for build in (lambda: SkewCyclicCode(f, R2.one).generator_matrix,
                  lambda: skew_circulant(f, R2.one)):
        with pytest.raises(GuardExceededError):
            build()


def test_membership(R8, F8):
    mod, g = _f8_code(R8, F8)
    code = code_from_generator(mod, g)
    assert code.contains([F8.zero] * 7)
    for row in code.generator_matrix:
        assert code.contains(row)
    # rank-completion: a word outside the row space
    outside = None
    for cand in itertools.product(range(8), repeat=7):
        word = [F8.element(i) for i in cand]
        if not in_row_space(word, code.generator_matrix, F8):
            outside = word
            break
    assert outside is not None and not code.contains(outside)
    with pytest.raises(ValueError):
        code.contains([F8.zero] * 6)


def test_membership_matches_row_space(R8, F8):
    # contains answers by right division; the rank route is the oracle
    mod, g = _f8_code(R8, F8)
    code = code_from_generator(mod, g)
    member = row_space_membership(unwrap(code.generator_matrix), F8)
    rng = random.Random(13)
    words = [[rng.randrange(8) for _ in range(7)] for _ in range(400)]
    words += [unwrap([row])[0] for row in code.generator_matrix]
    hits = 0
    for word in words:
        inside = member(word)
        assert code.contains([F8.element(i) for i in word]) == inside
        hits += inside
    assert 0 < hits < len(words)


def test_constacyclic_shift_classical(F4):
    Rc = SkewRing(F4, 2)
    w = F4.gen
    word = [F4.one, w, F4.zero, w * w]
    shifted = constacyclic_shift(Rc, F4.one, word)
    assert list(shifted) == [w * w, F4.one, w, F4.zero]


@pytest.mark.parametrize("name", PRESETS)
def test_constacyclic_shift_against_explicit_formula(name):
    """At e = 1 the shift is (a c_{n-1}^q, c_0^q, ..., c_{n-2}^q), built by
    naive_pow and naive_mul, for a = 0, a = 1 and a random a, at several
    lengths; an empty word has no last coefficient and raises IndexError."""
    F = get_field(name)
    R = SkewRing(F, 1)
    rng = random.Random(name)
    for a in (F.zero, F.one, F.element(rng.randrange(F.order))):
        for n in (1, 2, 3, 7):
            word = [F.element(rng.randrange(F.order)) for _ in range(n)]
            twisted = [naive_pow(F, c, R.q) for c in word]
            expected = [naive_mul(F, a, twisted[-1])] + twisted[:-1]
            assert list(constacyclic_shift(R, a, word)) == expected, (a, word)
    with pytest.raises(IndexError):
        constacyclic_shift(R, F.one, [])


def test_shift_matches_circulant_row(R8, F8):
    mod, g = _f8_code(R8, F8)
    C = skew_circulant(mod, g)
    shifted = constacyclic_shift(R8, mod.constacyclic_constant, C.row(0))
    assert list(shifted) == C.row(1)


def test_code_closed_under_shift(R8, F8):
    mod, g = _f8_code(R8, F8)
    code = code_from_generator(mod, g)
    for row in code.generator_matrix:
        word = row
        for _ in range(7):
            word = constacyclic_shift(R8, mod.constacyclic_constant, word)
            assert code.contains(word)


def test_polynomialization_roundtrip(R4, F4):
    rng = random.Random(3)
    for _ in range(20):
        word = [F4.element(rng.randrange(4)) for _ in range(5)]
        assert list(poly_to_word(word_to_poly(R4, word), 5)) == word


def test_row_space_and_action_laws_exhaustive_f4(R4, F4):
    # p_f(u Gamma(g)) = p_f(u) g in the quotient, for all u and sampled g
    rng = random.Random(5)
    for n in (3, 4):
        f = Modulus(R4.x_pow_minus(n, F4.gen))
        for _ in range(6):
            g = R4.from_indices([rng.randrange(4) for _ in range(n)])
            C = skew_circulant(f, g)
            for u in itertools.product(range(4), repeat=n):
                word = [F4.element(i) for i in u]
                lhs_vec = mat_mul([word], C.rows, F4)[0]
                lhs = word_to_poly(R4, lhs_vec)
                rhs = word_to_poly(R4, word) * g
                _, rr = rhs.right_divmod(f.poly)
                assert lhs == rr


def test_gcrd_collapse_row_space(R4, F4):
    rng = random.Random(7)
    f = Modulus(R4.x_pow_minus(4, F4.one))
    for _ in range(30):
        z = R4.from_indices([rng.randrange(4) for _ in range(4)])
        if z.is_zero:
            continue
        g = gcrd(z, f.poly)
        assert row_space_equal(
            skew_circulant(f, z).rows, skew_circulant(f, g).rows, F4
        )


def test_two_sided_rank_law(R4, F4):
    f = Modulus(R4.x_pow_minus(4, F4.one))
    for ci in itertools.product(range(4), repeat=4):
        z = R4.from_indices(ci)
        expected = 4 - gcrd(z, f.poly).degree if not z.is_zero else 0
        assert skew_circulant(f, z).rank() == expected


def test_consecutive_rows_independent_classical(F4):
    Rc = SkewRing(F4, 2)
    f = Modulus(Rc.x_pow_minus(4, F4.one))
    one = F4.one
    g = Rc.poly([one, one]) * Rc.poly([one, one])   # (x+1)^2 divides x^4-1
    C = skew_circulant(f, g)
    k = C.rank()
    n = 4
    for start in range(n):
        rows = [C.row((start + t) % n) for t in range(k)]
        assert matrix_rank(rows, F4) == k


def test_unique_constacyclic_constant(R4, F4):
    # a proper code's generator right-divides x^n - a for at most one a
    for g in (R4.poly([F4.gen, 1]), R4.poly([F4.gen, F4.one, 1])):
        hits = [
            a
            for a in F4.elements()
            if a and g.right_divides(R4.x_pow_minus(4, a))
        ]
        assert len(hits) <= 1


def test_two_sided_product_law(R4, F4):
    mod = Modulus(R4.x_pow_minus(2, F4.one))
    rng = random.Random(9)
    for _ in range(25):
        g = R4.from_indices([rng.randrange(4) for _ in range(2)])
        g2 = R4.from_indices([rng.randrange(4) for _ in range(2)])
        two_sided_circulant_product(mod, g, g2)
    two_sided_circulant_product(mod, R4.poly([F4.gen, 1]), R4.one)


def test_two_sided_product_rejects_other_moduli(R4, F4):
    mod = Modulus(R4.x_pow_minus(4, F4.gen))
    with pytest.raises(NotTwoSidedError):
        two_sided_circulant_product(mod, R4.one, R4.one)


def test_two_sided_kernel_corollary(R4, F4):
    f = Modulus(R4.x_pow_minus(4, F4.one))
    for g in enumerate_right_divisors(f.poly)[2]:
        code = SkewCyclicCode(f, g)
        hprime, r = f.poly.left_divmod(g)    # f = g * h'
        assert r.is_zero
        Gm = skew_circulant(f, g)
        Hm = skew_circulant(f, hprime)
        prod = mat_mul(Gm.rows, Hm.rows, F4)
        assert all(c == F4.zero for row in prod for c in row)
        # code = left kernel of the circulant of h'
        kernel = [
            [F4.element(i) for i in u]
            for u in itertools.product(range(4), repeat=4)
            if all(
                c == F4.zero
                for c in mat_mul([[F4.element(i) for i in u]], Hm.rows, F4)[0]
            )
        ]
        assert len(kernel) == 4**code.k
        for word in kernel:
            assert code.contains(word)


def test_noncommutative_circulant_not_multiplicative(R4, F4):
    w = F4.gen
    mod = Modulus(R4.x_pow_minus(3, w))       # sigma(w) != w
    x1 = skew_circulant(mod, R4.x)
    x2 = skew_circulant(mod, R4.x * R4.x)
    assert mat_mul(x1.rows, x1.rows, F4) != x2.rows


def test_a_polynomial_from_another_ring_is_refused(R4, F4, F16):
    """The code functions read packed indices, so a polynomial of another
    ring is refused, not read as one of the modulus's ring: x + a over F16
    (whose index 2 is F4's a) and x + a over F4 with sigma = id both
    right-divide x^4 + 1 over F4[x; sigma] once read that way."""
    mod = Modulus(R4.x_pow_minus(4, F4.one))
    g = R4.x_minus(F4.one)
    code = SkewCyclicCode(mod, g)
    assert code.k == skew_circulant(mod, g).rank() == 3
    check, c_tilde = check_polynomial(code)
    word = [F4.zero] * 4
    for h in (SkewRing(F16, 1).x_minus(F16.gen), SkewRing(F4, 2).x_minus(F4.gen)):
        assert SkewRing(F4, 1).from_indices(h._ci) in enumerate_right_divisors(mod.poly)[1]
        for call in (
            lambda: SkewCyclicCode(mod, h),
            lambda: code_from_generator(mod, h),
            lambda: skew_circulant(mod, h),
            lambda: cofactor_constant(mod, h),
            lambda: transpose_decomposition(mod, h),
            lambda: two_sided_circulant_product(mod, g, h),
            lambda: two_sided_circulant_product(mod, h, g),
            lambda: check_kernel_contains(code, h, c_tilde, word),
        ):
            with pytest.raises(FieldMismatchError):
                call()
    assert check_kernel_contains(code, check, c_tilde, word)


def test_cofactor_constant_formula(R4, F4):
    w = F4.gen
    # right divisors of x^3 - w with constant term w
    f = Modulus(R4.x_pow_minus(3, w))
    found = False
    for g in enumerate_right_divisors(f.poly)[1]:
        if g.constant_coefficient == w:
            c = cofactor_constant(f, g)
            assert c == R4.sigma(w, 3) * w / w    # sigma^3 = sigma on F4
            assert_cofactor_identities(f, g, c)
            found = True
    if not found:
        pytest.skip("no degree-1 divisor with constant term w")


def test_cofactor_constant_fixed_case(R4, F4):
    f = Modulus(R4.x_pow_minus(4, F4.one))
    for g in enumerate_right_divisors(f.poly)[2]:
        g0 = g.constant_coefficient
        if R4.sigma(g0, 4) == g0:
            assert cofactor_constant(f, g) == F4.one
            assert_cofactor_identities(f, g, F4.one)


def test_cofactor_constant_all_divisors(R4, R9, F4, F9):
    # the identity and the product law for every divisor with g_0 != 0
    for ring, n in ((R4, 4), (R4, 5), (R9, 4)):
        field = ring.field
        for a in range(1, field.order):
            mod = Modulus(ring.x_pow_minus(n, field.element(a)))
            for divs in enumerate_right_divisors(mod.poly).values():
                for g in divs:
                    c = cofactor_constant(mod, g)
                    assert c == ring.sigma(g.constant_coefficient, n) * (
                        mod.constacyclic_constant / g.constant_coefficient
                    )
                    assert_cofactor_identities(mod, g, c)


def test_cofactor_constant_input_checks(R4, F4):
    mod = Modulus(R4.x_pow_minus(4, F4.gen))
    with pytest.raises(ZeroDivisionError):
        cofactor_constant(mod, R4.x)
    with pytest.raises(NotARightDivisorError):
        cofactor_constant(mod, R4.poly([F4.one, F4.one]))
    with pytest.raises(NotARightDivisorError):
        transpose_decomposition(mod, R4.poly([F4.one, F4.one]))
    with pytest.raises(NotConstacyclicError):
        cofactor_constant(R4.poly([F4.one, F4.one, 0, F4.one]), R4.one)


def test_transpose_decomposition_all_divisors(R4, F4):
    w = F4.gen
    for f in (R4.x_pow_minus(4, F4.one), R4.x_pow_minus(4, w)):
        mod = Modulus(f)
        for d, divs in enumerate_right_divisors(f).items():
            for g in divs:
                if g.constant_coefficient:
                    g_sharp, g_circ, c = transpose_decomposition(mod, g)
                    k = 4 - g.degree
                    assert g_circ == mod.constacyclic_constant * apply_automorphism(
                        left_reciprocal(g), k
                    )
                    assert g_sharp == g_circ.times_x(k)
                    assert c == cofactor_constant(mod, g)
                    assert_cofactor_identities(mod, g, c)
                    assert_transpose_decomposition(mod, g, g_sharp, g_circ, c)


def test_transpose_decomposition_classical_reciprocal(F4):
    Rc = SkewRing(F4, 2)
    one = F4.one
    f = Modulus(Rc.x_pow_minus(4, one))
    g = Rc.poly([one, one]) * Rc.poly([one, one])
    g_sharp, g_circ, c = transpose_decomposition(f, g)
    assert c == one
    assert g_circ == left_reciprocal(g)     # sigma = id: classical reciprocal
    assert_transpose_decomposition(f, g, g_sharp, g_circ, c)


def test_transpose_negative_control(R4, F4):
    # rank-1 circulant for a non-constacyclic modulus; its transpose is not
    # a skew circulant for any automorphism and any degree-3 modulus
    w = F4.gen
    f = R4.poly([w * w, 0, F4.one, F4.one])
    g = R4.poly([w, w, F4.one])
    G = skew_circulant(Modulus(f), g)
    assert G.rank() == 1
    GT = [list(col) for col in zip(*unwrap(G.rows))]
    gprime = GT[0]
    hits = 0
    for e in (1, 2):
        ring = SkewRing(F4, e)
        gp = ring.from_indices(gprime)
        for lead in range(1, 4):
            for tail in itertools.product(range(4), repeat=3):
                fp = ring.from_indices(tail + (lead,))
                rows = unwrap(skew_circulant(Modulus(fp.monic()), gp).rows)
                if rows == GT:
                    hits += 1
    assert hits == 0


def test_dual_code_suite(R4, F4):
    w = F4.gen
    for f in (R4.x_pow_minus(4, F4.one), R4.x_pow_minus(6, F4.one), R4.x_pow_minus(4, w)):
        mod = Modulus(f)
        n = f.degree
        a = mod.constacyclic_constant
        for d, divs in enumerate_right_divisors(f).items():
            for g in divs:
                code = SkewCyclicCode(mod, g)
                data = dual_code(code)
                assert_dual(code, data)
                dual = data.code
                assert dual.modulus.constacyclic_constant == a.inverse()
                assert dual.k == n - code.k
                # dual of dual returns to the primal row space
                back_data = dual_code(dual)
                assert_dual(dual, back_data)
                back = back_data.code
                assert row_space_equal(
                    back.generator_matrix, code.generator_matrix, F4
                )
                # parity rows annihilate codewords
                for row in code.generator_matrix:
                    for prow in data.primal_parity_check:
                        acc = F4.zero
                        for x, y in zip(row, prow):
                            acc = acc + x * y
                        assert acc == F4.zero


def test_dual_trivial_cases(R4, F4):
    mod = Modulus(R4.x_pow_minus(4, F4.one))
    full = SkewCyclicCode(mod, R4.one)
    data = dual_code(full)
    assert data.code.k == 0
    assert_dual(full, data)
    zero = SkewCyclicCode(mod, mod.poly)
    data = dual_code(zero)
    assert data.code.k == 4
    assert_dual(zero, data)


def test_dual_classical_reciprocal_rule(F4):
    Rc = SkewRing(F4, 2)
    one = F4.one
    f = Rc.x_pow_minus(4, one)
    mod = Modulus(f)
    for g in enumerate_right_divisors(f)[2]:
        code = SkewCyclicCode(mod, g)
        h = code.cofactor
        data = dual_code(code)
        assert_dual(code, data)
        # dual generator is rho(h)/h_0
        expect = (left_reciprocal(h) * h.constant_coefficient.inverse()).monic()
        assert data.code.generator == left_reciprocal(h).monic() == expect


def test_dual_requires_constacyclic(R4, F4):
    f = Modulus(R4.poly([F4.one, F4.one, 0, F4.one]))
    code = SkewCyclicCode(f, R4.one)
    with pytest.raises(NotConstacyclicError):
        dual_code(code)


def test_check_polynomial_kernel_sweep(R4, F4):
    w = F4.gen
    for f in (R4.x_pow_minus(4, F4.one), R4.x_pow_minus(4, w)):
        mod = Modulus(f)
        for d, divs in enumerate_right_divisors(f).items():
            for g in divs:
                code = SkewCyclicCode(mod, g)
                check, ct = check_polynomial(code)
                assert_check_identity(code, check, ct)
                assert_cofactor_identities(mod, g, cofactor_constant(mod, g))
                member = row_space_membership(unwrap(code.generator_matrix), F4)
                for u in itertools.product(range(4), repeat=4):
                    word = [F4.element(i) for i in u]
                    inside = code.contains(word)
                    assert inside == member(u)
                    assert check_kernel_contains(code, check, ct, word) == inside


def test_check_kernel_contains_checks_the_word_length(R4, F4):
    """The check map refuses a word of the wrong length as contains does,
    instead of reading it as a polynomial of another degree."""
    code = SkewCyclicCode(Modulus(R4.x_pow_minus(4, F4.one)), R4.poly([1, 0, 1]))
    check, ct = check_polynomial(code)
    row = list(code.generator_matrix[0])
    assert check_kernel_contains(code, check, ct, row) and code.contains(row)
    for word in (row + [F4.zero], row[:3]):
        for member in (code.contains, lambda w: check_kernel_contains(code, check, ct, w)):
            with pytest.raises(ValueError) as info:
                member(word)
            assert str(info.value) == f"word length {len(word)}, expected 4"


def test_check_polynomial_central_case(R4, F4):
    # x^4 - 1 is central: sigma^n = id, so the check poly is h and twist a
    f = Modulus(R4.x_pow_minus(4, F4.one))
    for g in enumerate_right_divisors(f.poly)[2]:
        code = SkewCyclicCode(f, g)
        check, ct = check_polynomial(code)
        assert_check_identity(code, check, ct)
        assert check == code.cofactor
        assert ct == cofactor_constant(f, g) == F4.one


def test_duality_odd_characteristic(R9, F9):
    # char 3 catches sign errors that vanish in char 2
    rng = random.Random(31)
    for a_idx in (1, 2, 5):
        a = F9.element(a_idx)
        f = R9.x_pow_minus(4, a)
        for d, divs in enumerate_right_divisors(f).items():
            for g in divs:
                mod = Modulus(f)
                code = SkewCyclicCode(mod, g)
                data = dual_code(code)
                assert_dual(code, data)
                back_data = dual_code(data.code)
                assert_dual(data.code, back_data)
                back = back_data.code
                assert row_space_equal(
                    back.generator_matrix, code.generator_matrix, F9
                )
                ck, ct = check_polynomial(code)
                assert_check_identity(code, ck, ct)
                member = row_space_membership(unwrap(code.generator_matrix), F9)
                words = [[F9.element(rng.randrange(9)) for _ in range(4)]
                         for _ in range(120)]
                words += [list(row) for row in code.generator_matrix]
                for wel in words:
                    inside = code.contains(wel)
                    assert inside == member(unwrap([wel])[0])
                    assert check_kernel_contains(code, ck, ct, wel) == inside
                if g.constant_coefficient:
                    g_sharp, g_circ, c = transpose_decomposition(mod, g)
                    assert_cofactor_identities(mod, g, c)
                    assert_transpose_decomposition(mod, g, g_sharp, g_circ, c)


def test_duality_sigma_order_above_two(R8, R16, F8, F16):
    # sigma of order 3 and 4: sigma^-1 != sigma, so a sign slip in a twist shows
    rng = random.Random(37)
    for ring, n, a in ((R8, 6, F8.one), (R8, 4, F8.gen), (R16, 4, F16.element(7))):
        field = ring.field
        mod = Modulus(ring.x_pow_minus(n, a))
        for divs in enumerate_right_divisors(mod.poly).values():
            for g in divs:
                code = SkewCyclicCode(mod, g)
                assert_dual(code, dual_code(code))
                check, ct = check_polynomial(code)
                assert_check_identity(code, check, ct)
                g_sharp, g_circ, c = transpose_decomposition(mod, g)
                assert_cofactor_identities(mod, g, c)
                assert_transpose_decomposition(mod, g, g_sharp, g_circ, c)
                member = row_space_membership(unwrap(code.generator_matrix), field)
                words = [[rng.randrange(field.order) for _ in range(n)] for _ in range(20)]
                words += unwrap(code.generator_matrix)
                for u in words:
                    word = [field.element(i) for i in u]
                    inside = code.contains(word)
                    assert inside == member(u)
                    assert check_kernel_contains(code, check, ct, word) == inside


def test_classical_hamming_degenerate_case(F2):
    # prime field, sigma = id: the cyclic Hamming code and its simplex dual
    R2 = SkewRing(F2, 1)
    from skewcodes.bch import min_distance_exact

    f7 = R2.x_pow_minus(7, F2.one)
    code = SkewCyclicCode(Modulus(f7), R2.poly([1, 1, 0, 1]))
    assert code.k == 4 and min_distance_exact(code) == 3
    data = dual_code(code)
    assert_dual(code, data)
    dd = data.code
    assert dd.k == 3 and min_distance_exact(dd) == 4


def test_self_dual_search_n2(R4, F4):
    found = self_dual_search(R4, 2, 1)
    assert len(found) == 1
    assert found[0].generator == R4.poly([F4.one, F4.one])
    assert found[0].k == 1
    assert_self_dual(found[0])


def test_self_dual_dimension(R4):
    for code in self_dual_search(R4, 4, 1):
        assert code.k == 2
        assert_self_dual(code)


def test_self_dual_search_matches_product_oracle(F2, F4, F8, F9, F16, F27, F64):
    # same generators in the same order as the full-product search, and each
    # code equals its dual
    cases = [
        (F2, 1, (2, 4, 6, 8)),
        (F64, 1, (2, 4)), (F64, 2, (2, 4)), (F64, 3, (2, 4)), (F64, 6, (2, 4)),
        (F4, 1, (2, 4, 6, 8)), (F4, 2, (2, 4, 6, 8)),
        (F8, 1, (2, 4, 6)), (F8, 3, (2, 4, 6)),
        (F9, 1, (2, 4, 6)), (F9, 2, (2, 4, 6)),
        (F16, 1, (2, 4)), (F16, 2, (2, 4)),
        (F27, 1, (2, 4)), (F27, 3, (2, 4)),
    ]
    total = 0
    for field, e, lengths in cases:
        ring = SkewRing(field, e)
        for n in lengths:
            for eps in (1, -1):
                found = self_dual_search(ring, n, eps)
                expect = self_dual_generators_by_product(ring, n, eps)
                assert [code.generator for code in found] == expect
                target = ring.x_pow_minus(n, field.one if eps == 1 else -field.one)
                for code in found:
                    assert code.modulus.poly == target
                    assert_self_dual(code)
                total += len(found)
    assert total > 0


def test_self_dual_search_cancel(R4):
    stop = threading.Event()
    stop.set()
    with pytest.raises(SearchCancelledError, match="self-dual search cancelled"):
        self_dual_search(R4, 4, 1, cancel=stop)


def test_self_dual_rejects_odd_length(R4):
    with pytest.raises(ValueError):
        self_dual_search(R4, 3, 1)


def test_self_dual_guard(R16):
    with pytest.raises(GuardExceededError):
        self_dual_search(R16, 12, 1)    # 16^6 candidates exceeds 2^20


@pytest.mark.parametrize("search,message", [
    (lambda R27, R16: self_dual_search(R27, 20000),
     "self-dual search cost at least 10^100 exceeds 2^20"),
    (lambda R27, R16: is_irreducible_bruteforce(R27.x_pow_minus(20000, -R27.field.one)),
     "irreducibility enumeration cost at least 10^100 exceeds 2^24"),
    (lambda R27, R16: enumerate_right_divisors(R27.x_pow_minus(30000, -R27.field.one)),
     "divisor enumeration cost at least 10^100 exceeds 2^25"),
    (lambda R27, R16: next(SkewCyclicCode(Modulus(R16.x_pow_minus(4000, R16.field.one)),
                                          R16.one).words()),
     "code has at least 10^100 words"),
], ids=["self_dual", "irreducible", "divisors", "words"])
def test_searches_refuse_costs_past_10_100_fast(R27, R16, search, message):
    """x^20000 + 1 and x^30000 + 1 over F27, and the 16^4000 words of the
    full code of length 4000 over F16: each cost is decided on capped powers
    and printed by its size, so the refusal is fast and printable."""
    start = time.perf_counter()
    with pytest.raises(GuardExceededError) as info:
        search(R27, R16)
    assert time.perf_counter() - start < 1
    assert str(info.value) == message
    assert info.value.cost >= 10 ** 100


def test_vandermonde_parity_check_wedderburn(R4, F4):
    f = Modulus(R4.x_pow_minus(4, F4.one))
    x21 = R4.poly([1, 0, 1])
    code = SkewCyclicCode(f, x21)
    M = vandermonde_parity_check(code)
    # kernel dimension matches and every codeword annihilates M
    for msg in itertools.product(range(4), repeat=code.k):
        word = [F4.zero] * 4
        for u, row in zip(msg, code.generator_matrix):
            word = [acc + F4.element(u) * c for acc, c in zip(word, row)]
        for j in range(len(M[0])):
            acc = F4.zero
            for i in range(4):
                acc = acc + word[i] * M[i][j]
            assert acc == F4.zero


def test_vandermonde_parity_check_single_root(R4, F4):
    f = Modulus(R4.x_pow_minus(4, F4.one))
    g = R4.x_minus(F4.one)
    code = SkewCyclicCode(f, g)
    M = vandermonde_parity_check(code)
    assert len(M[0]) == 1


def test_vandermonde_parity_check_rejects_non_wedderburn(R4, F4):
    w = F4.gen
    f = Modulus(R4.x_pow_minus(6, F4.one))
    g = R4.poly([1, 1]) * R4.poly([w, 1])
    if g.right_divides(f.poly):
        code = SkewCyclicCode(f, g)
        with pytest.raises(NotWedderburnError):
            vandermonde_parity_check(code)


@pytest.mark.parametrize("e", [1, 2])
def test_vandermonde_parity_check_embeds_the_generator_roots(e):
    """Under an embedding and without roots, the generator's own roots are
    embedded: every Wedderburn divisor of x^n - 1 over F4 gives the matrix
    of its embedded vanishing set, and its embedded generator rows are the
    rows of the lifted generator modulo the lifted modulus."""
    F4, F16 = get_field("F4"), get_field("F16")
    emb = FieldEmbedding(F4, F16)
    R, ext = SkewRing(F4, e), SkewRing(F16, e)
    checked = 0
    for n in (2, 3, 4, 6):
        f = R.x_pow_minus(n, F4.one)
        for g in itertools.chain(*enumerate_right_divisors(f).values()):
            if g.degree == 0 or not is_wedderburn(g):
                continue
            code = SkewCyclicCode(Modulus(f), g)
            roots = [emb.embed(r) for r in vanishing_set(g)]
            assert vandermonde_parity_check(code, emb=emb) == \
                vandermonde_parity_check(code, roots=roots, emb=emb), (n, g)
            lifted = SkewCyclicCode(Modulus(ext.poly([emb.embed(c) for c in f.coefficients])),
                                    ext.poly([emb.embed(c) for c in g.coefficients]))
            assert lifted.generator_matrix == \
                [[emb.embed(c) for c in row] for row in code.generator_matrix]
            checked += 1
    assert checked >= 10
    code = SkewCyclicCode(Modulus(R.x_pow_minus(4, F4.one)), R.x_minus(F4.one))
    with pytest.raises(ValueError, match="embedding source"):
        vandermonde_parity_check(code, emb=FieldEmbedding(F16, F16))


def test_divisor_enumeration_linear_of_x21(R4, F4):
    w = F4.gen
    mod = R4.poly([1, 0, 1])
    divs = enumerate_right_divisors(mod, degrees=1)[1]
    assert divs == [R4.poly([F4.one, 1]), R4.poly([w, 1]), R4.poly([w * w, 1])]


@pytest.mark.parametrize("degrees", [True, [True], [2.0], 2.0, ["2"], "2", [1, None]])
def test_divisor_enumeration_refuses_a_degree_that_is_not_an_int(degrees, R4, F4):
    """A bool, float, str or None degree is refused by name; True read as
    degree 1 listed {True: [...]} before."""
    with pytest.raises(TypeError, match="^degrees must be ints"):
        enumerate_right_divisors(R4.x_pow_minus(4, F4.one), degrees=degrees)


def test_divisor_enumeration_takes_int_degrees_in_any_container(R4, F4):
    f = R4.x_pow_minus(4, F4.one)
    full = enumerate_right_divisors(f)
    assert enumerate_right_divisors(f, degrees=1) == {1: full[1]}
    assert enumerate_right_divisors(f, degrees=(d for d in (3, 1, 9, -1))) == {
        1: full[1], 3: full[3]}


def test_divisor_counts_consistency_small(R4, F4):
    # split enumeration agrees with direct enumeration on both halves
    f = R4.x_pow_minus(6, F4.one)
    res = enumerate_right_divisors(f)
    for d, divs in res.items():
        direct = [
            R4.from_indices(tail + (1,))
            for tail in itertools.product(range(4), repeat=d)
            if d and R4.from_indices(tail + (1,)).right_divides(f)
        ]
        if d in (0, 6):
            continue
        assert sorted(g._ci for g in divs) == sorted(g._ci for g in direct)
    assert count_divisors(res) == 35
    # the central factorization predicts 5 * 7 ideals
    assert count_divisors(res, 6, nontrivial=True) == 33


@pytest.mark.parametrize("n", [0, 1])
def test_nontrivial_count_drops_degrees_0_and_n_once_each(R4, F4, n):
    """A constant f has the one divisor 1 at degree 0 = n, and a linear f
    has 1 and f: neither has a nontrivial divisor."""
    res = enumerate_right_divisors(R4.x_pow_minus(n, F4.zero))   # 1, then x
    assert count_divisors(res) == n + 1
    assert count_divisors(res, n, nontrivial=True) == 0


def test_divisor_count_x14_verified_value(R4, F4):
    """x^14 + 1: every divisor re-verified; the count matches the central
    factorization into matrix rings.

    x^14 - 1 = (x^2+1)(x^6+x^2+1)(x^6+x^4+1) with central pairwise coprime
    factors, so the quotient splits as M_2(F_2) x M_2(F_8) x M_2(F_8) whose
    left-ideal counts are 5, 11, 11: 605 divisors in total, 603 nontrivial
    (the published 599 is wrong).  The split-quotient oracle reproduces the
    whole per-degree profile without the enumeration.
    """
    f = R4.x_pow_minus(14, -F4.one)
    factors = [parse_poly(R4, t) for t in ("x^2+1", "x^6+x^2+1", "x^6+x^4+1")]
    assert factors[0] * factors[1] * factors[2] == f
    assert len({g._ci for g in factors}) == 3
    components = []
    for g in factors:
        assert is_two_sided(g)
        # g lies in the centre F_2[y], y = x^2; distinct irreducible central
        # factors are pairwise coprime.
        assert set(g._ci) <= {0, 1} and not any(g._ci[1::2])
        central = sum(1 << (i // 2) for i, c in enumerate(g._ci) if c)
        assert f2_is_irreducible(central)
        # R/Rg has dimension 4 over its centre F_2[y]/(g), a finite field
        # F_Q, so it is M_2(F_Q); its dimension over F_4 is deg g.
        components.append((2, 2 ** (g.degree // 2), g.degree))
    profile = split_quotient_divisor_profile(components)

    res = enumerate_right_divisors(f)
    for d, divs in res.items():
        assert len({g._ci for g in divs}) == len(divs)
        for g in divs:
            assert g.is_monic and g.right_divides(f)
    per = {d: len(v) for d, v in res.items()}
    assert per == {
        0: 1, 1: 3, 2: 1, 3: 18, 4: 54, 5: 18, 6: 83,
        7: 249, 8: 83, 9: 18, 10: 54, 11: 18, 12: 1, 13: 3, 14: 1,
    }
    assert per == profile
    assert count_divisors(res) == sum(profile.values()) == 605
    assert count_divisors(res, 14, nontrivial=True) == sum(profile.values()) - 2 == 603


def test_divisor_count_x15_minus_w(R4, F4):
    res = enumerate_right_divisors(R4.x_pow_minus(15, F4.gen))
    assert count_divisors(res) == 32
    Rc = SkewRing(F4, 2)
    resc = enumerate_right_divisors(Rc.x_pow_minus(15, F4.gen))
    assert count_divisors(resc) == 8


def test_divisor_enumeration_guard(R16):
    f = R16.x_pow_minus(16, R16.field.one)
    with pytest.raises(GuardExceededError):
        enumerate_right_divisors(f)


def test_divisor_enumeration_cancel(R4, F4):
    event = threading.Event()
    event.set()
    with pytest.raises(SearchCancelledError):
        enumerate_right_divisors(R4.x_pow_minus(6, F4.one), cancel=event)
