"""Public input forms and refusals that no other in-process test reaches.

``tools/line_census.py`` lists the function-body lines of ``src/skewcodes``
that no test executes.  Each test here runs such a line through the public
API, or through the private helper a public call reaches, and checks its
answer or its refusal, so that deleting the branch fails it."""

import pytest

from skewcodes.bch import Bch1Spec, EvaluationCode, min_distance_exact, skew_rs1
from skewcodes.codes import (
    Modulus,
    SkewCirculant,
    SkewCyclicCode,
    count_divisors,
    enumerate_right_divisors,
    poly_to_word,
    self_dual_search,
    vandermonde_parity_check,
)
from skewcodes.errors import (
    ConditionViolatedError,
    FieldMismatchError,
    NotWedderburnError,
    ParseError,
)
from skewcodes.fields import (
    FieldEmbedding,
    FieldSpec,
    FrobeniusAut,
    conjugate,
    get_field,
    norm_exponent,
)
from skewcodes.linearized import LinearizedPoly
from skewcodes.rootsets import (
    AlgebraicSet,
    is_wedderburn,
    minimal_poly_over_subfield,
    skew_vandermonde,
)
from skewcodes.skewpoly import (
    NEG_INF,
    CommutativePoly,
    SkewRing,
    companion_matrix,
    gcrd,
    is_irreducible_bruteforce,
    lclm,
    left_reciprocal,
    similar_bruteforce,
)
from skewcodes.textio import format_field_config, parse_code_config, parse_field_config


def test_ring_from_an_automorphism(F4, F16):
    """A FrobeniusAut of the field gives the ring of its exponent; one of
    another field is refused."""
    R = SkewRing(F16, FrobeniusAut(F16, 2))
    assert R == SkewRing(F16, 2) and (R.q, R.m) == (4, 2)
    assert R.aut is not None and R.sigma(F16.gen) == F16.gen ** 4 and R.sigma_order == 2
    with pytest.raises(FieldMismatchError, match="^automorphism belongs to a different field$"):
        SkewRing(F16, FrobeniusAut(F4, 1))


def test_wedderburn_test_in_an_extension(F2, F4):
    """x^2 + 1 = (x + 1)^2 over F2 has the one root 1, of minimal polynomial
    x + 1; lifted to F4[x; sigma] its roots are all of F4^*, one class of
    rank 2, so it is the minimal polynomial of its roots there."""
    f = SkewRing(F2, 1).from_indices([1, 0, 1])
    assert is_wedderburn(f) is False
    assert is_wedderburn(f, emb=FieldEmbedding(F2, F4)) is True


def test_vandermonde_check_of_a_generator_that_is_not_wedderburn(R4):
    """x^2 modulo x^4 over F4[x; sigma] vanishes only at 0, whose minimal
    polynomial is x."""
    x = R4.one.times_x(1)
    code = SkewCyclicCode(Modulus(x.times_x(3)), x.times_x(1))
    with pytest.raises(NotWedderburnError, match="is not the minimal polynomial of its"):
        vandermonde_parity_check(code)


def test_unknown_distance_strategy(R4):
    code = SkewCyclicCode(R4.x_pow_minus(3, 1), R4.from_indices([1, 1]))
    with pytest.raises(ValueError, match="^unknown strategy 'bogus'$"):
        min_distance_exact(code, strategy="bogus")


def test_config_comments_and_blank_lines(F9):
    text = format_field_config(F9, 1)
    commented = "# F9, x^2 + x + 2\n\n" + text.replace("e=1\n", "  # sigma\ne=1\n\n")
    assert parse_field_config(commented) == parse_field_config(text) == (F9, 1)


def test_code_config_needs_a_generator_line(F9):
    with pytest.raises(ParseError, match="^code config needs f= and g= lines$"):
        parse_code_config(format_field_config(F9, 1) + "f=x^4-1\n")


def test_preset_alias_f64():
    assert get_field("F64") is get_field("F2_6") is get_field("f2^6")


def test_self_dual_search_refuses_eps_2(R4):
    with pytest.raises(ValueError, match="^eps must be 1 or -1$"):
        self_dual_search(R4, 4, eps=2)


def test_divisor_enumeration_refuses_a_non_monic_f(R4):
    with pytest.raises(ValueError, match="^divisor enumeration needs a monic modulus$"):
        enumerate_right_divisors(R4.from_indices([1, 0, 2]))


def test_nontrivial_count_needs_the_degree(R4):
    result = enumerate_right_divisors(R4.x_pow_minus(3, 1))
    assert count_divisors(result, 3, nontrivial=True) == count_divisors(result) - 2
    with pytest.raises(ValueError, match="^nontrivial count needs the modulus degree$"):
        count_divisors(result, nontrivial=True)


def test_word_of_a_polynomial_of_too_high_degree(R4):
    f = R4.from_indices([1, 2, 3])
    assert [c.i for c in poly_to_word(f, 3)] == [1, 2, 3]
    with pytest.raises(ValueError, match="^polynomial degree must be below the length$"):
        poly_to_word(f, 2)


def _bch1(F, emb, alpha, t1=1):
    return Bch1Spec(SkewRing(F, 1), emb, alpha, 0, t1, 1, 2, 0, 2)


@pytest.mark.parametrize("spec,message", [
    (lambda F4, F16: _bch1(F4, FieldEmbedding(F4, F4), F4.gen, t1=0),
     "need t1, t2 >= 1 and b, nu >= 0"),
    (lambda F4, F16: _bch1(F4, FieldEmbedding(get_field("F2"), F4), F4.gen),
     "embedding source must be the base field"),
    (lambda F4, F16: _bch1(F4, FieldEmbedding(F4, F4), F16.gen),
     "alpha must live in the extension field"),
], ids=["t1_0", "foreign_embedding", "alpha_outside"])
def test_bch_spec_refusals(F4, F16, spec, message):
    with pytest.raises(ConditionViolatedError, match=f"^{message}$"):
        spec(F4, F16).validate()


def _dunder_cases(F4, F16):
    """name -> (object, an equal one built apart, an unequal one, repr)."""
    R4 = SkewRing(F4, 1)
    f, g, h = (R4.from_indices(c) for c in ([1, 0, 0, 1], [1, 1], [1, 1, 1]))
    return {
        "Modulus": (Modulus(f), Modulus(R4.x_pow_minus(3, 1)),
                    Modulus(R4.x_pow_minus(3, F4.gen)), "Modulus(x^3+1)"),
        "SkewCirculant": (SkewCirculant(f, g), SkewCirculant(Modulus(f), g),
                          SkewCirculant(f, h), "SkewCirculant(f=x^3+1, g=x+1)"),
        "SkewCyclicCode": (SkewCyclicCode(f, g), SkewCyclicCode(Modulus(f), g),
                           SkewCyclicCode(f, h), "SkewCyclicCode(n=3, k=2, f=x^3+1, g=x+1)"),
        "FrobeniusAut": (FrobeniusAut(F16, 1), FrobeniusAut(F16, 5), FrobeniusAut(F16, 2),
                         "FrobeniusAut(F16, a -> a^2^1)"),
        "AlgebraicSet": (AlgebraicSet(F4, [2, 1]), AlgebraicSet(F4, [1, 2, 2]),
                         AlgebraicSet(F4, [3]), "{1, a}"),
    }


@pytest.mark.parametrize("name", ["Modulus", "SkewCirculant", "SkewCyclicCode", "FrobeniusAut",
                                  "AlgebraicSet"])
def test_repr_eq_and_hash(F4, F16, name):
    """Equal values built apart compare equal and hash alike; an object of
    another type compares unequal (the circulant and the code define no
    hash, so they are unhashable)."""
    a, same, other, text = _dunder_cases(F4, F16)[name]
    assert repr(a) == text
    assert a == same and not a != same and a != other
    assert (a == 5) is False
    if name in ("SkewCirculant", "SkewCyclicCode"):
        assert type(a).__hash__ is None
    else:
        assert hash(a) == hash(same) and len({a, same, other}) == 2


def _refusals(F2, F4, F9):
    """name -> (call, exception, message) for refusals of malformed
    arguments to public calls."""
    R4 = SkewRing(F4, 1)
    f, x = R4.from_indices([1, 0, 1]), R4.one.times_x(1)
    nonmonic = R4.from_indices([1, 2])
    return {
        "element_foreign": (lambda: F4.element(F9.gen), FieldMismatchError,
                            "element of F9, not F4"),
        "element_index": (lambda: F4.element(4), ValueError, "index 4 out of range for F4"),
        "element_coefficients": (lambda: F4.element([1, 0, 1]), ValueError,
                                 "too many coefficients"),
        "log_not_primitive": (lambda: FieldSpec(3, (1, 0, 1)).log_i(1), ValueError,
                              "F3\\^2 has no designated primitive element"),
        "log_zero": (lambda: F4.log_i(0), ValueError, "log of zero"),
        "order_zero": (lambda: F4.element_order(0), ValueError,
                       "zero has no multiplicative order"),
        "frobenius_negative": (lambda: FrobeniusAut(F4, -1), ValueError,
                               "Frobenius exponent must be nonnegative"),
        "norm_q_1": (lambda: norm_exponent(1, 2), ValueError, "q must be at least 2"),
        "conjugate_zero": (lambda: conjugate(FrobeniusAut(F4, 1), 1, 0), ZeroDivisionError,
                           "conjugation requires nonzero c"),
        "element_plus_none": (lambda: F4.gen + None, TypeError, "unsupported operand"),
        "element_minus_none": (lambda: F4.gen - None, TypeError, "unsupported operand"),
        "element_over_none": (lambda: F4.gen / None, TypeError, "unsupported operand"),
        "coefficient_foreign": (lambda: R4.poly([F9.gen]), FieldMismatchError,
                                "coefficient from a different field"),
        "coefficient_int": (lambda: R4.poly([2]), TypeError,
                            "coefficients must be FieldElements \\(or the ints 0/1\\)"),
        "times_foreign": (lambda: f * F9.gen, FieldMismatchError,
                          "constant from a different field"),
        "foreign_times": (lambda: F9.gen * f, FieldMismatchError,
                          "constant from a different field"),
        "none_times": (lambda: None * f, TypeError, "unsupported operand"),
        "divide_by_zero": (lambda: f.right_divmod(R4.zero), ZeroDivisionError,
                           "division by the zero polynomial"),
        "monic_zero": (lambda: R4.zero.monic(), ZeroDivisionError,
                       "the zero polynomial cannot be made monic"),
        "gcrd_zeros": (lambda: gcrd(R4.zero, R4.zero), ValueError,
                       "gcrd\\(0, 0\\) is undefined"),
        "lclm_nothing": (lambda: lclm(), ValueError, "lclm of nothing"),
        "lclm_zero": (lambda: lclm(f, R4.zero), ValueError, "lclm requires nonzero operands"),
        "reciprocal_zero": (lambda: left_reciprocal(R4.zero), ValueError,
                            "reciprocal of the zero polynomial"),
        "companion_nonmonic": (lambda: companion_matrix(nonmonic), ValueError,
                               "companion matrix needs a monic polynomial"),
        "companion_constant": (lambda: companion_matrix(R4.one), ValueError,
                               "companion matrix needs degree >= 1"),
        "similar_nonmonic": (lambda: similar_bruteforce(nonmonic, f), ValueError,
                             "similarity test needs monic polynomials"),
        "similar_degrees": (lambda: similar_bruteforce(f, x), ValueError,
                            "similar polynomials have equal degree"),
        "irreducible_constant": (lambda: is_irreducible_bruteforce(R4.one), ValueError,
                                 "irreducibility applies to polynomials of degree >= 1"),
        "wedderburn_nonmonic": (lambda: is_wedderburn(nonmonic), ValueError,
                                "Wedderburn test applies to monic polynomials"),
        "embedding_degrees": (lambda: FieldEmbedding(F4, get_field("F8")), ValueError,
                              "degree 2 does not divide 3"),
        "rs1_length": (lambda: skew_rs1(R4, F4.gen, 0, 2, 4), ConditionViolatedError,
                       "alpha\\^\\[0..n-1\\] are not distinct; length too large"),
        "vandermonde_no_row": (lambda: skew_vandermonde(R4, 0, [1]), ValueError,
                               "need at least one row"),
        "subfield_foreign_embedding": (
            lambda: minimal_poly_over_subfield(R4, FieldEmbedding(F2, F4), 1), ValueError,
            "embedding source must be the base ring's field"),
        "wedderburn_foreign_embedding": (
            lambda: is_wedderburn(f, emb=FieldEmbedding(F2, F4)), ValueError,
            "embedding source must be the coefficient field"),
    }


_REFUSALS = list(_refusals(*(get_field(name) for name in ("F2", "F4", "F9"))))


@pytest.mark.parametrize("name", _REFUSALS)
def test_public_refusals(F2, F4, F9, name):
    call, error, message = _refusals(F2, F4, F9)[name]
    with pytest.raises(error, match=message):
        call()


def test_reprs_of_rings_and_polynomials(F4):
    """A commutative ring names no automorphism; the zero commutative
    polynomial has degree -inf."""
    R4 = SkewRing(F4, 1)
    assert repr(SkewRing(F4, 2)) == "SkewRing(F4[x])"
    assert repr(R4) == "SkewRing(F4[x; a->a^2])"
    assert repr(R4.from_indices([1, 1])) == "<SkewRing(F4[x; a->a^2]): x+1>"
    assert repr(LinearizedPoly(R4, (1, 1))) == "<linearized over F4: y^q+y>"
    assert repr(EvaluationCode(R4, [1, 2], 1)) == "EvaluationCode(n=2, k=1)"
    assert CommutativePoly(F4, {0: 0}).degree == NEG_INF
