import itertools
import random
import threading
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BIG_FIELDS, EXTRA_FIELDS, PRESETS
from oracle_utils import (
    naive_mat_mul,
    naive_neg,
    naive_poly_add,
    naive_pow,
    naive_rank,
    norm_eval,
    twisted_mul,
    two_call_search,
    two_sided_by_center,
)
from skewcodes.errors import FieldMismatchError, GuardExceededError, SearchCancelledError
from skewcodes.fields import FieldElement, FieldSpec, conjugacy_class, conjugate, get_field
from skewcodes import skewpoly
from skewcodes.linalg import mat_mul_i, rank_i, right_kernel_i, unwrap
from skewcodes.codes import Modulus
from skewcodes.linearized import LinearizedPoly
from skewcodes.skewpoly import (
    CommutativePoly,
    SkewPoly,
    SkewRing,
    _mirror_ci,
    apply_automorphism,
    companion_matrix,
    evaluate,
    gcld,
    gcld_bezout,
    gcrd,
    gcrd_bezout,
    is_irreducible_bruteforce,
    is_two_sided,
    lclm,
    lcrm,
    left_reciprocal,
    product_eval_check,
    similar_bruteforce,
    to_commutative,
)


def rand_poly(ring, degree, rng, monic=False):
    ci = [rng.randrange(ring.field.order) for _ in range(degree + 1)]
    if monic:
        ci[-1] = 1
    elif ci[-1] == 0:
        ci[-1] = 1 + rng.randrange(ring.field.order - 1)
    return ring.from_indices(ci)


# -- construction ---------------------------------------------------------------


@pytest.mark.parametrize("name,e", [(name, 1) for name in PRESETS] + [("F16", 2), ("F16", 4)])
def test_constructor_trims_trailing_zeros(name, e):
    """SkewPoly(R, ci + (0, 0)) is the polynomial of ci: equal, with the
    same hash, degree, text, monicity and reciprocal, and gcrd, lclm and
    Modulus read it as the trimmed one."""
    R = SkewRing(get_field(name), e)
    rng = random.Random(f"trim/{name}/{e}")
    assert Modulus(SkewPoly(R, (1, 1, 0))).poly == R.x + R.one
    for _ in range(6):
        ci = tuple(rng.randrange(R.field.order) for _ in range(rng.randrange(1, 5)))
        padded, f = SkewPoly(R, ci + (0, 0)), R.from_indices(ci)
        assert padded == f and hash(padded) == hash(f) and padded.degree == f.degree
        assert str(padded) == str(f) and padded.is_monic == f.is_monic
        if f:
            assert left_reciprocal(padded) == left_reciprocal(f)
            g = rand_poly(R, rng.randrange(1, 4), rng)
            padded_g = SkewPoly(R, g._ci + (0,))
            assert lclm(padded, padded_g) == lclm(f, g)
            assert gcrd(padded, padded_g) == gcrd(f, g)


def test_untrimmed_inputs_give_the_trimmed_answers(R4):
    """Over F4 at e = 1: the reciprocal of 1 given as (1, 0) is 1, x + 1
    given as (1, 1, 0) is a modulus, and its lclm with x is x^2 + x."""
    assert left_reciprocal(SkewPoly(R4, (1, 0))) == R4.one
    assert Modulus(SkewPoly(R4, (1, 1, 0))).n == 1
    assert lclm(SkewPoly(R4, (1, 1, 0)), R4.x) == R4.x * R4.x + R4.x


# -- multiplication ---------------------------------------------------------------


def test_known_product(R4, F4, R8):
    w = F4.gen
    f = R4.poly([w, w, 1])            # x^2 + w x + w
    g = R4.poly([w, 1])               # x + w
    assert f * g == R4.poly([w * w, w * w, 0, 1])
    assert not hasattr(f, "__dict__")
    with pytest.raises(TypeError, match="^expected SkewPoly, got int$"):
        f * 3
    with pytest.raises(FieldMismatchError, match="^polynomials from different rings$"):
        f + R8.x


def test_leading_coefficient(R4, F4):
    w = F4.gen
    assert R4.poly([1, w, w * w]).leading_coefficient == w * w
    assert R4.poly([w, 1, 0]).leading_coefficient == F4.one      # trailing zeros trimmed
    assert R4.poly([w]).leading_coefficient == w
    with pytest.raises(ValueError, match="zero polynomial has no leading coefficient"):
        R4.zero.leading_coefficient


def test_multiply_by_one(R8):
    rng = random.Random(1)
    for _ in range(20):
        f = rand_poly(R8, rng.randrange(5), rng)
        assert f * R8.one == f
        assert R8.one * f == f


def test_square_of_nonmonic_linear(R4, F4):
    w = F4.gen
    f = R4.poly([F4.one, w])          # w x + 1
    assert f * f == R4.poly([1, 0, 1])


def test_noncommutative(R4, F4):
    w = F4.gen
    f = R4.poly([w, 1])
    g = R4.poly([w * w, 1])
    assert f * g == g * f             # both give x^2 + 1 here
    h = R4.poly([w])
    assert R4.x * h != h * R4.x       # x w = w^2 x


def test_degree_laws_exhaustive_f4(R4):
    polys = [R4.from_indices(ci) for ci in itertools.product(range(4), repeat=4)]
    nonzero = [f for f in polys if not f.is_zero]
    for f in nonzero:
        for g in nonzero:
            assert (f * g).degree == f.degree + g.degree
            assert (f + g).degree <= max(f.degree, g.degree)


def test_ring_center(R4, F4):
    # x^m commutes with every constant and fixed-field constants commute
    # with x
    xm = R4.x * R4.x      # m = 2
    for a in F4.elements():
        const = R4.poly([a])
        assert xm * const == const * xm
        if R4.aut.fixes(a):
            assert R4.x * const == const * R4.x
        else:
            assert R4.x * const != const * R4.x


# -- division ----------------------------------------------------------------------


def test_known_right_division(R4, F4):
    w = F4.gen
    f = R4.poly([w * w, w * w, 0, 1])
    g = R4.poly([w, 1])
    s, r = f.right_divmod(g)
    assert r.is_zero
    assert s == R4.poly([w, w, 1])
    # not a left divisor
    _, r2 = f.left_divmod(g)
    assert not r2.is_zero


class _CountingKernel:
    """A field kernel that records the name of each operation called on it."""

    def __init__(self, kern):
        self._kern, self.calls = kern, []

    def __getattr__(self, name):
        op = getattr(self._kern, name)

        def counted(*args):
            self.calls.append(name)
            return op(*args)
        return counted


@pytest.mark.parametrize("name,e", [("F4", 1), ("F16", 2), ("F9", 1), ("F2_17", 1)])
def test_right_division_makes_each_digit_with_one_addmul(name, e, field_named, monkeypatch):
    """Each nonzero quotient digit is one addmul of the divisor's tail and
    no other row operation.  A monic divisor's digit is the lead itself:
    no mul, frobenius or inv; a non-monic one costs one inv per division
    and one mul and one frobenius per digit."""
    F = field_named(name)
    R = SkewRing(F, e)
    rng = random.Random(29)
    kern = _CountingKernel(F.kernel())
    monkeypatch.setattr(F, "_kernel", kern)
    for lead in [1] * 6 + [rng.randrange(2, F.order) for _ in range(6)]:
        f = tuple(rng.randrange(F.order) for _ in range(9)) + (rng.randrange(1, F.order),)
        g = tuple(rng.randrange(F.order) for _ in range(3)) + (lead,)
        kern.calls.clear()
        s, r = skewpoly._right_divmod_ci(R, f, g)
        k = sum(1 for c in s if c)
        scalars = {} if lead == 1 else {"inv": 1, "mul": k, "frobenius": k}
        assert k and Counter(kern.calls) == {"addmul": k, "neg": k, **scalars}
        assert len(r) < len(g)
        assert naive_poly_add(F, twisted_mul(F, e, s, g), r) == f


def test_division_small_degree(R4):
    f = R4.poly([R4.field.gen])
    g = R4.poly([0, 0, 1])
    s, r = f.right_divmod(g)
    assert s.is_zero and r == f


def test_division_reconstruction(mirror_rings):
    rng = random.Random(7)
    for ring in mirror_rings:
        for _ in range(150):
            f = rand_poly(ring, rng.randrange(1, 7), rng)
            g = rand_poly(ring, rng.randrange(1, 5), rng)
            s, r = f.right_divmod(g)
            assert s * g + r == f
            assert r.degree < g.degree
            s2, r2 = f.left_divmod(g)
            assert g * s2 + r2 == f
            assert r2.degree < g.degree


def test_division_uniqueness_by_perturbation(R8):
    rng = random.Random(11)
    f = rand_poly(R8, 5, rng)
    g = rand_poly(R8, 2, rng)
    s, r = f.right_divmod(g)
    for _ in range(20):
        ds = rand_poly(R8, rng.randrange(3), rng)
        if ds.is_zero:
            continue
        other = (s + ds) * g
        assert (f - other).degree >= g.degree or (s + ds) * g + r != f


# -- gcrd / lclm --------------------------------------------------------------------


def test_gcrd_of_equal_inputs(R4, F4):
    w = F4.gen
    f = R4.poly([w, w, 1])
    d, u, v = gcrd_bezout(f, f)
    assert d == f.monic()
    assert u * f + v * f == d


def test_gcrd_distinct_monic_linear(R4, F4):
    w = F4.gen
    d, u, v = gcrd_bezout(R4.poly([w, 1]), R4.poly([w * w, 1]))
    assert d == R4.one
    assert u * R4.poly([w, 1]) + v * R4.poly([w * w, 1]) == R4.one


def test_gcrd_bezout_random(R8, R16):
    rng = random.Random(13)
    for ring in (R8, R16):
        for _ in range(100):
            f1 = rand_poly(ring, rng.randrange(1, 6), rng)
            f2 = rand_poly(ring, rng.randrange(1, 6), rng)
            d, u, v = gcrd_bezout(f1, f2)
            assert d.is_monic
            assert d.right_divides(f1) and d.right_divides(f2)
            assert u * f1 + v * f2 == d
            if not f2.right_divides(f1) and not f1.right_divides(f2):
                assert u.degree < f2.degree


def test_gcld_mirror(mirror_rings):
    rng = random.Random(17)
    for ring in mirror_rings:
        for _ in range(60):
            f1 = rand_poly(ring, rng.randrange(1, 6), rng)
            f2 = rand_poly(ring, rng.randrange(1, 6), rng)
            d, u, v = gcld_bezout(f1, f2)
            assert d.is_monic
            assert d.left_divides(f1) and d.left_divides(f2)
            assert f1 * u + f2 * v == d
            assert gcld(f1, f2) == d
            if not f2.left_divides(f1) and not f1.left_divides(f2):
                assert u.degree < f2.degree


def test_lclm_roots_example(R4, F4):
    w = F4.gen
    ell = lclm(R4.x_minus(F4.one), R4.x_minus(w), R4.x_minus(w * w))
    assert ell == R4.poly([1, 0, 1])


def test_lclm_of_equal_inputs(R8):
    rng = random.Random(19)
    f = rand_poly(R8, 3, rng)
    assert lclm(f, f) == f.monic()


def test_lclm_linear_closed_form(R4, aut4, F4):
    # lclm(x-a, x-b) = (x - b^(b-a)) (x - a) for a != b
    for a in F4.elements():
        for b in F4.elements():
            if a == b:
                continue
            lhs = lclm(R4.x_minus(a), R4.x_minus(b))
            rhs = R4.x_minus(conjugate(aut4, b, b - a)) * R4.x_minus(a)
            assert lhs == rhs


def test_gcrd_lclm_degree_law(R8, R16):
    rng = random.Random(23)
    for ring in (R8, R16):
        for _ in range(80):
            f1 = rand_poly(ring, rng.randrange(1, 6), rng)
            f2 = rand_poly(ring, rng.randrange(1, 6), rng)
            ell = lclm(f1, f2)
            assert f1.right_divides(ell) and f2.right_divides(ell)
            assert gcrd(f1, f2).degree + ell.degree == f1.degree + f2.degree


def test_lclm_variadic_order_independent(R8):
    rng = random.Random(29)
    polys = [rand_poly(R8, rng.randrange(1, 4), rng) for _ in range(4)]
    base = lclm(*polys)
    for perm in itertools.permutations(polys):
        assert lclm(*perm) == base


def test_lcrm_mirror(mirror_rings):
    rng = random.Random(31)
    for ring in mirror_rings:
        for _ in range(40):
            f1 = rand_poly(ring, rng.randrange(1, 5), rng)
            f2 = rand_poly(ring, rng.randrange(1, 5), rng)
            ell = lcrm(f1, f2)
            assert ell.is_monic
            assert f1.left_divides(ell) and f2.left_divides(ell)
            assert gcld(f1, f2).degree + ell.degree == f1.degree + f2.degree


def test_lcrm_variadic_order_independent(mirror_rings):
    rng = random.Random(37)
    for ring in mirror_rings:
        polys = [rand_poly(ring, rng.randrange(1, 4), rng) for _ in range(4)]
        base = lcrm(*polys)
        assert all(f.left_divides(base) for f in polys)
        for perm in itertools.permutations(polys):
            assert lcrm(*perm) == base


def test_lcrm_single_argument(R4, F4, mirror_rings):
    # the monic right associate f*c, not the left one c*f
    w = F4.gen
    assert lcrm(R4.poly([F4.one, w])) == R4.poly([w, 1])
    rng = random.Random(41)
    for ring in [R4, *mirror_rings]:
        for _ in range(20):
            f = rand_poly(ring, rng.randrange(0, 5), rng)
            assert lcrm(f) == lcrm(f, f)
            assert f.left_divides(lcrm(f))
            assert lclm(f) == lclm(f, f)


def test_lclm_lcrm_reject_non_polynomials(R4):
    for fold in (lclm, lcrm):
        with pytest.raises(TypeError):
            fold(3)
        with pytest.raises(TypeError):
            fold(R4.x, 3)


# -- the mirror anti-isomorphism -----------------------------------------------------


def _check_mirror(ring, f, g):
    field, e, d = ring.field, ring.e, ring.field.degree
    mf = _mirror_ci(ring, f._ci)
    assert mf == tuple(
        (FieldElement(field, c) ** field.p ** ((-e * i) % d)).i for i, c in enumerate(f._ci)
    )
    assert _mirror_ci(ring._mirror, mf) == f._ci
    # mu(f*g) = mu(g) * mu(f) in F[x; sigma^-1]
    mg = _mirror_ci(ring, g._ci)
    assert _mirror_ci(ring, (f * g)._ci) == twisted_mul(field, -e % d, mg, mf)


def test_mirror_map_exhaustive_f4(R4):
    polys = list(R4.all_polys(2))
    for f in polys:
        for g in polys:
            _check_mirror(R4, f, g)


def test_mirror_map_random(R8, F16, F64):
    rng = random.Random(43)
    rings = [R8, SkewRing(F16, 1), SkewRing(F16, 2)] + [SkewRing(F64, e) for e in (1, 2, 3)]
    for ring in rings:
        for _ in range(40):
            _check_mirror(ring, rand_poly(ring, rng.randrange(0, 6), rng),
                          rand_poly(ring, rng.randrange(0, 6), rng))


# -- the field kernels against coefficient arithmetic ---------------------------------


def _degree(name):
    extra = {**EXTRA_FIELDS, **BIG_FIELDS}
    return len(extra[name][1]) - 1 if name in extra else get_field(name).degree


# above the table limit (BIG_FIELDS): e = 1 and the identity e = d
KERNEL_RING_CASES = [
    (name, e)
    for name in PRESETS + ["F2_16", "F3_10"]
    for e in range(1, _degree(name) + 1)
    if _degree(name) % e == 0
] + [(name, e) for name in BIG_FIELDS for e in (1, _degree(name))]


def _assert_no_table_above_the_limit(F):
    if F.order > 1 << 16:
        assert F._exp is None and F._log is None and F._add_table is None
        assert F._frob_tables == [None] * F.degree


@pytest.mark.parametrize("name,e", KERNEL_RING_CASES)
def test_ring_kernels_against_coefficient_arithmetic(name, e, field_named):
    """*, scaling, division on both sides and evaluation against twisted_mul,
    naive_poly_add and norm_eval, which never touch the field kernel.  Above
    the table limit no table is built."""
    F = field_named(name)
    R = SkewRing(F, e)
    rng = random.Random(f"{name}/{e}")
    for _ in range(2 if F.order > 1 << 12 else 4):
        f = rand_poly(R, rng.randrange(3, 7), rng)
        g = rand_poly(R, rng.randrange(1, 4), rng)
        c = F.element(rng.randrange(1, F.order))
        assert (f * g)._ci == twisted_mul(F, e, f._ci, g._ci)
        assert (c * f)._ci == twisted_mul(F, e, (c.i,), f._ci)
        assert (f * c)._ci == twisted_mul(F, e, f._ci, (c.i,))
        assert (f + g)._ci == naive_poly_add(F, f._ci, g._ci)
        assert (g - f)._ci == naive_poly_add(F, g._ci, [naive_neg(F, x) for x in f._ci])
        s, r = f.right_divmod(g)
        assert r.degree < g.degree
        assert naive_poly_add(F, twisted_mul(F, e, s._ci, g._ci), r._ci) == f._ci
        s, r = f.left_divmod(g)
        assert r.degree < g.degree
        assert naive_poly_add(F, twisted_mul(F, e, g._ci, s._ci), r._ci) == f._ci
        for a in [0, 1] + [rng.randrange(F.order) for _ in range(3)]:
            assert f(F.element(a)) == norm_eval(R, f, F.element(a))
    _assert_no_table_above_the_limit(F)


@pytest.mark.parametrize("name", ["F9", "F2_17", "F3_11"])
def test_elimination_kernels_against_naive_arithmetic(name, field_named):
    """rank_i, right_kernel_i and mat_mul_i against Gaussian elimination and
    products on naive_mul and naive_add, on a table field and on the two
    fields above the table limit."""
    F = field_named(name)
    rng = random.Random(name)
    for rows_n, cols_n in [(1, 4), (3, 3), (3, 5), (4, 2)]:
        for _ in range(3):
            rows = [[rng.randrange(F.order) if rng.random() < 0.7 else 0
                     for _ in range(cols_n)] for _ in range(rows_n)]
            if rng.random() < 0.5:   # a dependent row
                rows.append(naive_mat_mul([[rng.randrange(F.order)
                                            for _ in rows]], rows, F)[0])
            rank = naive_rank(rows, F)
            assert rank_i(rows, F) == rank
            basis = right_kernel_i(rows, F)
            assert len(basis) == cols_n - rank and naive_rank(basis, F) == len(basis)
            for v in basis:   # A v = 0
                assert all(c == [0] for c in naive_mat_mul(rows, [[x] for x in v], F))
            other = [[rng.randrange(F.order) for _ in range(3)] for _ in range(cols_n)]
            assert mat_mul_i(rows, other, F) == naive_mat_mul(rows, other, F)
    _assert_no_table_above_the_limit(F)


# -- property tests on both sides -----------------------------------------------------

PROPERTY_RINGS = [
    SkewRing(get_field(name), e)
    for name, e in (("F4", 1), ("F8", 1), ("F9", 1), ("F16", 1), ("F16", 2),
                    ("F27", 1), ("F2_6", 2), ("F2_6", 3))
]


@st.composite
def polys_over_one_ring(draw, count, max_degree=6):
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    coeffs = st.lists(st.integers(0, ring.field.order - 1), max_size=max_degree + 1)
    return [ring.from_indices(draw(coeffs)) for _ in range(count)]


@given(polys_over_one_ring(3))
def test_division_unique_both_sides(polys):
    f, g, ds = polys
    if g.is_zero:
        return
    s, r = f.right_divmod(g)
    assert s * g + r == f and r.degree < g.degree
    s2, r2 = f.left_divmod(g)
    assert g * s2 + r2 == f and r2.degree < g.degree
    if not ds.is_zero:
        # any other quotient leaves a remainder of degree >= deg g
        assert (f - (s + ds) * g).degree >= g.degree
        assert (f - g * (s2 + ds)).degree >= g.degree


@given(polys_over_one_ring(2))
def test_bezout_both_sides(polys):
    f1, f2 = polys
    if f1.is_zero and f2.is_zero:
        return
    d, u, v = gcrd_bezout(f1, f2)
    assert d.is_monic and u * f1 + v * f2 == d
    assert gcrd(f1, f2) == d
    for f in (f1, f2):
        assert f.right_divmod(d)[0] * d == f
    d2, u2, v2 = gcld_bezout(f1, f2)
    assert d2.is_monic and f1 * u2 + f2 * v2 == d2
    assert gcld(f1, f2) == d2
    for f in (f1, f2):
        assert d2 * f.left_divmod(d2)[0] == f
    if not (f1.is_zero or f2.is_zero):
        assert d.degree + lclm(f1, f2).degree == f1.degree + f2.degree
        assert d2.degree + lcrm(f1, f2).degree == f1.degree + f2.degree


# every preset at every admissible e (each divisor of the degree, the identity
# included), and the polynomial kernel above the table limit at e = 1
AXIOM_RINGS = [
    SkewRing(get_field(name), e)
    for name in PRESETS
    for e in range(1, get_field(name).degree + 1)
    if get_field(name).degree % e == 0
] + [SkewRing(FieldSpec(*BIG_FIELDS["F2_17"], name="F2_17"), 1)]


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=lambda R: f"{R.field.name}-e{R.e}")
@given(data=st.data())
def test_ring_axioms(ring, data):
    F = ring.field
    coeffs = st.lists(st.integers(0, F.order - 1), max_size=5)
    f, g, h = (ring.from_indices(data.draw(coeffs)) for _ in range(3))
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h
    # x a = sigma(a) x, with sigma(a) = a^q from the coefficient oracle
    a = F.element(data.draw(st.integers(0, F.order - 1)))
    sigma_a = naive_pow(F, a, ring.q)
    assert ring.x * ring.poly([a]) == ring.poly([sigma_a]) * ring.x
    assert (ring.x * ring.poly([a]))._ci == ((0, sigma_a.i) if a else ())


# -- evaluation ----------------------------------------------------------------------


def test_eval_known_roots(R4, F4):
    w = F4.gen
    x21 = R4.poly([1, 0, 1])
    for a in (F4.one, w, w * w):
        assert x21(a) == F4.zero
    assert R4.poly([w, 0, 0, 1])(w) == F4.zero    # x - w right-divides x^3 + w


def test_eval_constant(R8, F8):
    c = R8.poly([F8.gen])
    for a in F8.elements():
        assert c(a) == F8.gen


def test_eval_matches_division_remainder(R16):
    rng = random.Random(37)
    for _ in range(100):
        f = rand_poly(R16, rng.randrange(6), rng)
        for a in R16.field.elements():
            _, r = f.right_divmod(R16.x_minus(a))
            assert evaluate(f, a) == r.constant_coefficient


def test_product_eval_theorem_exhaustive_f4(R4, F4):
    polys = [R4.from_indices(ci) for ci in itertools.product(range(4), repeat=3)]
    for f in polys:
        for g in polys:
            for a in F4.elements():
                lhs = product_eval_check(f, g, a)
                if g(a):
                    conj = conjugate(R4.aut, a, g(a))
                    assert lhs == f(conj) * g(a)
                else:
                    assert lhs == F4.zero


def test_product_eval_theorem_f8_monomials(R8, F8):
    # both sides are left-linear in f, so monomial f's cover all f exactly
    monomials = [R8.x ** i for i in range(4)]
    for gci in itertools.product(range(8), repeat=4):
        g = R8.from_indices(gci)
        for a in F8.elements():
            for f in monomials:
                product_eval_check(f, g, a)


def test_roots_in_conjugacy_classes(R9, R27):
    # split products: every root is conjugate to a factor root, and each
    # factor root's class contains a root
    for ring in (R9, R27):
        field = ring.field
        rng = random.Random(41)
        nonzero = [a for a in field.elements() if a]
        for _ in range(60):
            roots = [rng.choice(nonzero) for _ in range(3)]
            f = ring.one
            for a in roots:
                f = f * ring.x_minus(a)
            classes = [conjugacy_class(ring.aut, a) for a in roots]
            actual = [a for a in field.elements() if not f(a)]
            for a in actual:
                assert any(a in cls for cls in classes)
            for cls in classes:
                assert any(not f(a) for a in cls)


# -- reciprocal, automorphism transport ------------------------------------------------


def test_left_reciprocal_constant(R4, F4):
    w = F4.gen
    assert left_reciprocal(R4.poly([w])) == R4.poly([w])


def test_left_reciprocal_linear(R4, F4):
    for u in F4.elements():
        if not u:
            continue
        rec = left_reciprocal(R4.poly([u, 1]))
        assert rec == R4.poly([F4.one, R4.sigma(u)])


def test_left_reciprocal_involution_twist(R8):
    rng = random.Random(43)
    for _ in range(50):
        g = rand_poly(R8, rng.randrange(1, 5), rng)
        if not g.constant_coefficient:
            continue
        r = g.degree
        twice = left_reciprocal(left_reciprocal(g))
        assert twice == apply_automorphism(g, r)


def test_apply_automorphism_is_ring_map(R8):
    rng = random.Random(47)
    for _ in range(40):
        f = rand_poly(R8, rng.randrange(4), rng)
        g = rand_poly(R8, rng.randrange(4), rng)
        assert apply_automorphism(f * g) == apply_automorphism(f) * apply_automorphism(g)
        assert R8.x * g == apply_automorphism(g) * R8.x
        assert apply_automorphism(g, R8.m) == g


def test_sigma_on_linear(R4, F4):
    w = F4.gen
    assert apply_automorphism(R4.poly([w, 1])) == R4.poly([w * w, 1])


# -- two-sidedness -----------------------------------------------------------------------


def test_center_powers_two_sided(R4):
    assert is_two_sided(R4.x_pow_minus(2, R4.field.one))   # x^m - 1
    assert is_two_sided(R4.x_pow_minus(4, R4.field.one))


def test_non_two_sided(R4, F4):
    assert not is_two_sided(R4.x_pow_minus(15, F4.gen))    # m does not divide 15
    assert not is_two_sided(R4.x_pow_minus(4, F4.gen))     # sigma(w) != w


def test_central_products_two_sided(R4, F4):
    rng = random.Random(53)
    fixed = [a for a in F4.elements() if R4.aut.fixes(a)]
    for _ in range(40):
        center_ci = []
        for _ in range(rng.randrange(1, 4)):
            center_ci.extend([rng.choice(fixed), F4.zero])
        center_ci.append(F4.one)
        center = R4.poly(center_ci[: 2 * (len(center_ci) // 2) + 1])
        c = rng.choice([a for a in F4.elements() if a])
        t = rng.randrange(3)
        f = (c * center).times_x(t)
        assert is_two_sided(f)
        # the center really commutes
        assert center * R4.x == R4.x * center
        w = F4.gen
        assert center * R4.poly([w]) == R4.poly([w]) * center


def test_two_sided_degenerate_cases(R4, F4):
    assert is_two_sided(R4.zero)
    assert is_two_sided(R4.poly([F4.gen]))


@pytest.mark.parametrize("name", PRESETS)
def test_two_sided_matches_the_center_scan(name):
    """The ideal test (f*x and f*gamma in Rf) agrees with the coefficient
    scan for c x^t g(x^m) at every e: on zero, constants, non-monic random
    polynomials, constructed c x^t g(x^m) with g over the fixed field, and
    those with one coefficient changed."""
    field = get_field(name)
    rng = random.Random(name)
    N = field.order
    for e in range(1, field.degree + 1):
        if field.degree % e:
            continue
        ring = SkewRing(field, e)
        fixed = [a for a in range(N) if ring.aut.apply_i(a) == a]
        polys = [ring.zero] + [ring.from_indices([rng.randrange(1, N)]) for _ in range(3)]
        polys += [rand_poly(ring, rng.randint(1, 8), rng) for _ in range(20)]
        for _ in range(20):
            g = [rng.choice(fixed) for _ in range(rng.randint(1, 4))] + [rng.randrange(1, N)]
            ci = [0] * rng.randrange(3)
            for c in g:   # c x^t g(x^m): g's coefficients spaced m apart
                ci += [field.mul_i(g[-1], c)] + [0] * (ring.m - 1)
            f = ring.from_indices(ci)
            polys.append(f)
            ci[rng.randrange(len(ci))] = rng.randrange(N)
            polys.append(ring.from_indices(ci))
        for f in polys:
            assert is_two_sided(f) == two_sided_by_center(f), (e, f)


# -- companion matrix -----------------------------------------------------------------------


def test_companion_linear(R8, F8):
    cm = companion_matrix(R8.x_minus(F8.gen))
    assert cm == [[F8.gen]]


def test_companion_x_pow_minus_a(R4, F4):
    w = F4.gen
    cm = companion_matrix(R4.x_pow_minus(3, w))
    z, o = F4.zero, F4.one
    assert cm == [[z, o, z], [z, z, o], [w, z, z]]


def test_companion_equals_circulant_of_x(R8, F8):
    from skewcodes.codes import Modulus, skew_circulant

    f = R8.poly([F8.gen, F8.gen**3, 0, F8.one, F8.one])
    cm = companion_matrix(f)
    circ = skew_circulant(Modulus(f), R8.x)
    assert cm == circ.rows


@pytest.mark.parametrize("name", PRESETS)
def test_companion_matches_the_explicit_formula(name):
    """Superdiagonal ones and the last row -f_0..-f_{n-1}, for monic f of
    degree 1..6 over every preset at every e."""
    field = get_field(name)
    rng = random.Random(name)
    zero, one = field.zero, field.one
    for e in range(1, field.degree + 1):
        if field.degree % e:
            continue
        ring = SkewRing(field, e)
        for _ in range(20):
            n = rng.randint(1, 6)
            f = ring.poly([field.element(rng.randrange(field.order)) for _ in range(n)] + [1])
            explicit = [[one if j == i + 1 else zero for j in range(n)] for i in range(n - 1)]
            explicit.append([-f.coefficient(j) for j in range(n)])
            assert companion_matrix(f) == explicit


def test_companion_above_2_20_entries_is_refused_fast(R4):
    """Degree 1,025 asks for 1,050,625 entries: refused before any row."""
    start = time.perf_counter()
    with pytest.raises(GuardExceededError, match="1050625 entries exceeds 2\\^20"):
        companion_matrix(R4.x ** 1025 + R4.one)
    assert time.perf_counter() - start < 1


# -- similarity ------------------------------------------------------------------------------


def test_similarity_reflexive(R4, F4):
    f = R4.poly([F4.gen, F4.gen, 1])
    assert similar_bruteforce(f, f) is not None
    # degree 0: R/R1 = 0 is isomorphic to itself, with the witness 1
    for name in ("F4", "F9"):
        F = get_field(name)
        for e in range(1, F.degree + 1):
            R = SkewRing(F, e)
            assert similar_bruteforce(R.one, R.one) == R.one


def test_linear_similarity_is_conjugacy(R4, F4):
    for a in F4.elements():
        cls = conjugacy_class(R4.aut, a)
        for b in F4.elements():
            wit = similar_bruteforce(R4.x_minus(a), R4.x_minus(b))
            assert (wit is not None) == (b in cls)


def test_similarity_search_cancel(R4, F4):
    f = R4.poly([F4.gen, F4.gen, 1])
    assert similar_bruteforce(f, f, cancel=threading.Event()) is not None
    stop = threading.Event()
    stop.set()
    with pytest.raises(SearchCancelledError, match="similarity search cancelled"):
        similar_bruteforce(f, f, cancel=stop)


def test_irreducibility_search_cancel(R4):
    f = R4.x ** 4 + R4.x + R4.one
    assert is_irreducible_bruteforce(f, cancel=threading.Event()) == is_irreducible_bruteforce(f)
    stop = threading.Event()
    stop.set()
    with pytest.raises(SearchCancelledError, match="divisor search cancelled"):
        is_irreducible_bruteforce(f, cancel=stop)


def test_similarity_guard(R16):
    big = R16.x ** 5 + R16.one
    with pytest.raises(GuardExceededError):
        similar_bruteforce(big, big)


def test_similarity_guard_counts_the_candidates(R16, F2, F4, F16, F27):
    """The guard refuses N^n > 2^16 and admits N^n <= 2^16.  The admitted
    x^n + 1 is central, so (x^n + 1) x^(n-1) lies in R(x^n + 1): the second
    candidate x^(n-1) is a witness and the search ends at once."""
    big = R16.x ** 5 + R16.one
    with pytest.raises(GuardExceededError,
                       match="^similarity search cost 1048576 exceeds 2\\^16$") as info:
        similar_bruteforce(big, big)
    assert info.value.cost == 16 ** 5
    for field, n in [(F16, 4), (F27, 3), (F4, 8), (F2, 16)]:
        ring = SkewRing(field, 1)
        f = ring.x ** n + ring.one
        assert similar_bruteforce(f, f) == ring.x ** (n - 1)


def test_similarity_search_needs_no_bezout_fold_or_lclm(monkeypatch, R8):
    def refuse(*args):
        raise AssertionError("the similarity search folds no Bezout row")

    rng = random.Random(61)
    pairs = [similar_pair(R8, 3, rng) for _ in range(3)]
    pairs += [(rand_poly(R8, 3, rng, monic=True), rand_poly(R8, 3, rng, monic=True))
              for _ in range(3)]
    expected = [two_call_search(f, g) for f, g in pairs]
    monkeypatch.setattr(skewpoly, "_fold_ci", refuse)
    monkeypatch.setattr(skewpoly, "_lclm_ci", refuse)
    assert [similar_bruteforce(f, g) for f, g in pairs] == expected


def test_similarity_matches_companion_criterion(R4, F4):
    # degree-2 cross-check: similar iff C_g = sigma(B) C_f B^(-1) for some
    # invertible B, by exhaustive sweep over GL_2(F_4)
    from skewcodes.linalg import rank_i

    gl2 = []
    for entries in itertools.product(range(4), repeat=4):
        m = [[entries[0], entries[1]], [entries[2], entries[3]]]
        if rank_i(m, F4) == 2:
            gl2.append(m)

    def companion_similar(f, g):
        cf = unwrap(companion_matrix(f))
        cg = unwrap(companion_matrix(g))
        for B in gl2:
            sigB = [[R4.aut.apply_i(c) for c in row] for row in B]
            from skewcodes.linalg import mat_mul_i

            # solve C_g B = sigma(B) C_f instead of inverting B
            if mat_mul_i(cg, B, F4) == mat_mul_i(sigB, cf, F4):
                return True
        return False

    rng = random.Random(59)
    pairs = []
    for _ in range(12):
        f = rand_poly(R4, 2, rng, monic=True)
        g = rand_poly(R4, 2, rng, monic=True)
        pairs.append((f, g))
    pairs.append((R4.poly([1, 0, 1]), R4.poly([1, 0, 1])))
    for f, g in pairs:
        assert (similar_bruteforce(f, g) is not None) == companion_similar(f, g)


def test_similarity_matches_gcrd_lclm_formulation(R4):
    # the search with gcrd and lclm as two public calls per candidate must
    # return the same witness on every monic pair of degree 2
    monic = list(R4.monic_polys(2))
    for f in monic:
        for g in monic:
            assert similar_bruteforce(f, g) == two_call_search(f, g)


def similar_pair(ring, n, rng):
    """(f, g) with g similar to f: lclm(f, h) = g' h for an h with
    gcrd(f, h) = 1, and g = monic(g')."""
    f = rand_poly(ring, n, rng, monic=True)
    while True:
        h = rand_poly(ring, rng.randrange(n), rng)
        if gcrd(f, h) == ring.one:
            return f, lclm(f, h).right_divmod(h)[0].monic()


@pytest.mark.parametrize("name, e, n, count", [
    ("F4", 1, 3, 40), ("F8", 1, 3, 12), ("F9", 1, 2, 40), ("F16", 1, 2, 24),
    ("F16", 2, 2, 24), ("F27", 1, 2, 12), ("F4", 1, 5, 8),
])
def test_similarity_matches_the_lclm_oracle_on_samples(name, e, n, count):
    """Witness for witness on sampled monic pairs, half of them similar by
    construction; F27 at degree 2 and F4 at degree 5 are above the old
    degree-4, 16-element limit and inside the 2^16 cost guard."""
    ring = SkewRing(get_field(name), e)
    rng = random.Random(f"{name}/{e}/{n}")
    pairs = [similar_pair(ring, n, rng) for _ in range(count // 2)]
    pairs += [(rand_poly(ring, n, rng, monic=True), rand_poly(ring, n, rng, monic=True))
              for _ in range(count - count // 2)]
    for f, g in pairs:
        assert similar_bruteforce(f, g) == two_call_search(f, g), (f, g)


# -- irreducibility -----------------------------------------------------------------------------


def test_degree_one_irreducible(R4, F4):
    for a in F4.elements():
        assert is_irreducible_bruteforce(R4.x_minus(a))


def test_x21_reducible(R4):
    assert not is_irreducible_bruteforce(R4.poly([1, 0, 1]))


def test_irreducibility_matches_product_oracle(R4, R9, F16):
    # reducible monic f are exactly the products g*h of monic g, h of degree
    # >= 1; the right-only divisor search must find each of them
    cases = [(R4, n) for n in range(2, 6)] + [(R9, 3), (SkewRing(F16, 2), 3)]
    for ring, n in cases:
        reducible = {
            g * h
            for k in range(1, n)
            for g in ring.monic_polys(k)
            for h in ring.monic_polys(n - k)
        }
        for f in ring.monic_polys(n):
            assert is_irreducible_bruteforce(f) == (f not in reducible)


def test_irreducibility_guard(R16):
    big = R16.x ** 15 + R16.one    # 16^7 candidate divisors
    with pytest.raises(GuardExceededError):
        is_irreducible_bruteforce(big)


def test_factorization_lengths_agree(R4, F4):
    # all complete factorizations of a degree-3 polynomial have the same
    # length and degree multiset
    def factorizations(f):
        if f.degree == 0:
            return [()]
        out = []
        for d in range(1, f.degree + 1):
            for g in R4.monic_polys(d):
                if d < f.degree and not is_irreducible_bruteforce(g):
                    continue
                s, r = f.right_divmod(g)
                if r.is_zero:
                    if d == f.degree:
                        out.append((g,))
                    else:
                        for rest in factorizations(s):
                            out.append(rest + (g,))
        return out

    rng = random.Random(61)
    for _ in range(5):
        f = rand_poly(R4, 3, rng, monic=True)
        if not is_irreducible_bruteforce(f):
            facs = [
                fac
                for fac in factorizations(f)
                if all(is_irreducible_bruteforce(p) for p in fac)
            ]
            lengths = {len(fac) for fac in facs}
            assert len(lengths) == 1
            degs = {tuple(sorted(p.degree for p in fac)) for fac in facs}
            assert len(degs) == 1


# -- commutative companion -------------------------------------------------------------------------


def test_to_commutative_constant(R8, F8):
    c = to_commutative(R8.poly([F8.gen]))
    assert c.coeffs == {0: F8.gen.i}


def test_zero_is_falsy_in_every_polynomial_class(R8):
    assert not R8.zero and not LinearizedPoly(R8, (0,)) and not to_commutative(R8.zero)
    assert R8.one and LinearizedPoly(R8, (1,)) and to_commutative(R8.one)


def test_equal_commutative_polys_hash_equal(R8, F8):
    """CommutativePoly hashes by value, whatever the order its exponents
    were inserted in, so it works as a set member and a dict key."""
    P = to_commutative(R8.poly([F8.gen, 0, 1]))   # q = 2: x^2 -> y^3
    Q = CommutativePoly(F8, {3: 1, 0: F8.gen.i})
    assert P == Q and list(P.coeffs) != list(Q.coeffs)
    assert hash(P) == hash(Q)
    assert len({P, Q, to_commutative(R8.one)}) == 2
    assert {P: "f"}[Q] == "f"
    assert CommutativePoly(get_field("F4"), {0: 1}) not in {CommutativePoly(F8, {0: 1})}


def test_to_commutative_exponents(R4):
    c = to_commutative(R4.x * R4.x)
    assert list(c.coeffs) == [3]  # q=2: x^2 -> y^3


def test_to_commutative_eval_agrees(R16):
    rng = random.Random(67)
    for _ in range(40):
        f = rand_poly(R16, rng.randrange(5), rng)
        P = to_commutative(f)
        for a in R16.field.elements():
            assert P.evaluate(a) == f(a)


def test_poly_text_roundtrip(R4, R8):
    from skewcodes.textio import format_poly, parse_poly

    rng = random.Random(71)
    for ring in (R4, R8):
        for _ in range(60):
            f = rand_poly(ring, rng.randrange(6), rng)
            assert parse_poly(ring, format_poly(f)) == f


def test_left_side_above_the_table_limit():
    """F_2^17, e = 1: the mirrored operations and apply_automorphism read
    Frobenius as one power per coefficient and build no table.  Checked
    against twisted_mul and naive_pow."""
    F = FieldSpec(2, (1, 0, 0, 1) + (0,) * 13 + (1,), name="F2_17")
    R = SkewRing(F, 1)
    rng = random.Random(17)

    def prod(a, b):
        return R.from_indices(twisted_mul(F, 1, a._ci, b._ci))

    def plus(a, b):
        return R.from_indices(naive_poly_add(F, a._ci, b._ci))

    def frob(c, k):
        return naive_pow(F, c, 2 ** (k % F.degree))

    f, g = rand_poly(R, 3, rng), rand_poly(R, 1, rng, monic=True)
    s, r = f.left_divmod(g)
    assert plus(prod(g, s), r) == f and r.degree < g.degree
    assert g.left_divides(prod(g, s))
    assert not g.left_divides(plus(prod(g, s), R.one))

    c, a, b = (rand_poly(R, 1, rng, monic=True) for _ in range(3))
    f1, f2 = prod(c, a), prod(c, b)
    d, u, v = gcld_bezout(f1, f2)
    assert d.is_monic and d == plus(prod(f1, u), prod(f2, v))
    for h in (f1, f2, d):   # c | d | f1, f2 on the left
        q, rem = h.left_divmod(c if h is d else d)
        assert rem.is_zero and prod(c if h is d else d, q) == h

    m = lcrm(a, b)
    assert m.is_monic and m.degree + gcld(a, b).degree == a.degree + b.degree
    for h in (a, b):
        q, rem = m.left_divmod(h)
        assert rem.is_zero and prod(h, q) == m

    rho = left_reciprocal(f)
    top = f.degree
    assert rho == R.poly([frob(f.coefficient(top - i), i) for i in range(top + 1)])
    for j in (1, -1, 5):
        assert apply_automorphism(f, j) == R.poly([frob(x, j) for x in f.coefficients])
    assert F._frob_tables == [None] * 17


@pytest.mark.parametrize("name", ["F4", "F9"])
def test_pow_is_one_square_and_multiply(monkeypatch, name):
    """f ** k equals the k-fold product, ring.one at k = 0, and makes
    bit_length(k) - 1 squarings and popcount(k) - 1 products: no product
    by one and no squaring past the top bit of k."""
    F = get_field(name)
    R = SkewRing(F, 1)
    rng = random.Random(name)
    for f in (rand_poly(R, 3, rng), R.x, R.zero):
        products = [R.one]
        for _ in range(9):
            products.append(products[-1] * f)
        calls = []
        mul_ci = skewpoly._mul_ci
        monkeypatch.setattr(skewpoly, "_mul_ci", lambda *args: calls.append(1) or mul_ci(*args))
        for k in range(10):
            calls.clear()
            assert f ** k == products[k], (f, k)
            assert len(calls) == (k.bit_length() - 1 + bin(k).count("1") - 1 if k else 0)
        monkeypatch.undo()
        with pytest.raises(ValueError):
            f ** -1
        with pytest.raises(ValueError, match="negative powers are not defined"):
            f.times_x(-1)
    with pytest.raises(ValueError, match="negative powers are not defined"):
        R.x_pow_minus(-1, F.one)
