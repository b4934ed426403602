import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PRESETS
from oracle_utils import parse_poly as parse_poly_by_term_regex
from skewcodes.errors import GuardExceededError, ParseError
from skewcodes.fields import FieldSpec, get_field
from skewcodes.linearized import to_linearized
from skewcodes.skewpoly import SkewRing, to_commutative
from skewcodes.textio import (
    format_element,
    format_field_config,
    format_matrix,
    format_poly,
    format_word,
    parse_code_config,
    parse_element,
    parse_field_config,
    parse_poly,
)


def test_parse_element_forms(F4):
    w = F4.gen
    assert parse_element(F4, "0") == F4.zero
    assert parse_element(F4, "1") == F4.one
    assert parse_element(F4, "a") == w
    assert parse_element(F4, "a^2") == w * w
    assert parse_element(F4, "1,1") == w * w
    assert parse_element(F4, "(0,1)") == w


@pytest.mark.parametrize("name", PRESETS)
def test_zero_and_one_are_digit_tuples(name):
    """'0' and '1', bare, padded or parenthesized, are one-digit tuples,
    in range in every field."""
    field = get_field(name)
    for token in ("0", "00", "(0)", "(00)"):
        assert parse_element(field, token) == field.zero, token
    for token in ("1", "01", "(1)"):
        assert parse_element(field, token) == field.one, token
    ring = SkewRing(field, field.degree)
    assert parse_poly(ring, "0") == parse_poly(ring, "-0") == parse_poly(ring, "0*x") == ring.zero
    assert parse_poly(ring, "1") == ring.one


def test_parse_element_rejects_garbage(F4):
    for bad in ("b", "a^", "2", ""):
        with pytest.raises(ParseError):
            parse_element(F4, bad)


def test_parse_poly_examples(R4, F4):
    w = F4.gen
    assert parse_poly(R4, "x^2+1") == R4.poly([1, 0, 1])
    assert parse_poly(R4, "x^14+1").degree == 14
    assert parse_poly(R4, "a*x+a^2") == R4.poly([w * w, w])
    assert parse_poly(R4, "a^2x") == R4.poly([F4.zero, w * w])
    assert parse_poly(R4, "(1,1)*x^3+x") == R4.poly([0, 1, 0, w * w])
    assert parse_poly(R4, "0") == R4.zero


def test_parse_poly_negation(R9, F9):
    # '-' goes through field negation
    f = parse_poly(R9, "x^2-1")
    assert f == R9.x_pow_minus(2, F9.one)
    g = parse_poly(R9, "-x+1")
    assert g == R9.poly([F9.one, -F9.one])


def test_parse_poly_merges_like_terms(R4, F4):
    assert parse_poly(R4, "x+x") == R4.zero       # char 2
    assert parse_poly(R4, "a+a^2") == R4.one      # w + w^2 = 1


def test_parse_poly_rejects_garbage(R4):
    for bad in ("", "x^", "y+1", "a**x", "((1,1))x"):
        with pytest.raises(ParseError):
            parse_poly(R4, bad)


def test_parse_poly_rejects_empty_terms(R4, R9):
    for bad in ("x^2++x", "x^2+x+", "x^2+-x", "--x", "+-1", "x-", "+", "-", "x + + 1"):
        with pytest.raises(ParseError, match="empty term"):
            parse_poly(R4, bad)
    # a single leading sign stays legal, also inside a tuple coefficient's parens
    assert parse_poly(R4, "+x^2+x") == parse_poly(R4, "x^2+x")
    assert parse_poly(R9, "-x^2+(1,2)x") == -parse_poly(R9, "x^2") + parse_poly(R9, "(1,2)x")


def test_parse_poly_guards_the_x_exponent(R4):
    """An exponent above 2^16 is refused before a coefficient list exists;
    2^16 itself still parses."""
    for text, exp in (("x^1000000", 10**6), ("x^2+x^12345678901234567890+1", 12345678901234567890)):
        with pytest.raises(GuardExceededError) as info:
            parse_poly(R4, text)
        assert info.value.cost == exp
    assert parse_poly(R4, "x^65536+1").degree == 1 << 16


def test_polynomial_text_limits_on_coefficients(R4, R9):
    """Polynomial text parenthesizes every digit tuple but 0 and 1 and never
    a power of a; a '*' follows a coefficient only."""
    for bad in ("2x", "1,1x", "00", "(a)x", "(a^2)", "*x", "x*", "1**x", "x^2x"):
        with pytest.raises(ParseError, match="cannot parse term"):
            parse_poly(R9, bad)
    F9 = R9.field
    assert parse_poly(R9, "(2)*x+(0)+(1,1)x^0") == R9.poly(
        [parse_element(F9, "1,1"), parse_element(F9, "2")])
    assert parse_poly(R4, "1*") == R4.one and parse_poly(R4, "a*x") == R4.poly([0, R4.field.gen])
    with pytest.raises(ParseError, match="cannot parse element 'a\\^'"):
        parse_poly(R4, "a^x")


def test_error_text_quotes_a_prefix_of_a_long_token(R4):
    """A token of up to 60 characters is quoted whole; a longer one by its
    first 60 and its length, whichever refusal names it."""
    F4 = R4.field
    for token in ("b" * 60, "(" + "1" * 58 + ")"):
        with pytest.raises(ParseError) as info:
            parse_element(F4, token)
        assert repr(token.strip("()")) in str(info.value)
    cases = [
        (lambda t: parse_element(F4, t), "b" * 61, "cannot parse element"),
        (lambda t: parse_element(F4, t), "(" + "1" * 5000 + ")", "element tuple"),
        (lambda t: parse_poly(R4, t), "b" * 5000, "cannot parse term"),
        (lambda t: parse_poly(R4, "x+" + t), "+" * 5000, "empty term in"),
        (lambda t: parse_field_config(t), "b" * 5000, "line 1: expected key=value, got"),
    ]
    for parse, token, head in cases:
        with pytest.raises(ParseError) as info:
            parse(token)
        text = str(info.value)
        assert text.startswith(head) and "characters)" in text and len(text) < 160, text


# Polynomial text: the grammar's tokens, stray signs and parentheses, spaces,
# exponents past the guard and past 100 digits, and foreign characters.
_TEXT_TOKENS = ["x", "^", "a", "+", "-", "(", ")", ",", "*", "0", "1", "2", "3", " ", "\t",
                "y", "x^2", "a^3", "(1,2)", "(2)", "(a)", "99999999", "x^99999999",
                "x^" + "9" * 120, "x^0003", "\u0663"]
# F4 and F9 are primitive; x has order 5 in F2[x]/(x^4+x^3+x^2+x+1) and 4 in F3[x]/(x^2+1)
_TEXT_RINGS = [SkewRing(get_field("F4"), 1), SkewRing(get_field("F9"), 1),
               SkewRing(FieldSpec(2, (1, 1, 1, 1, 1)), 1), SkewRing(FieldSpec(3, (1, 0, 1)), 1)]


def _outcome(parse, ring, text):
    try:
        return parse(ring, text)
    except Exception as exc:   # the class is compared
        return type(exc)


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_TEXT_TOKENS), min_size=1, max_size=12).map("".join))
# a guarded exponent before a stray parenthesis or an empty term: the syntax error wins
@example("x^99999999+)")
@example("x^99999999+(1")
@example("x^99999999++1")
@example("x^2+(1+1)x")
@example("(a)x")
def test_parse_poly_matches_the_term_regex_parser(text):
    """The same polynomial, or the same exception class, as the parser that
    matched each term with one regular expression, on primitive and
    non-primitive fields at p = 2 and at odd p."""
    for ring in _TEXT_RINGS:
        assert _outcome(parse_poly, ring, text) == _outcome(parse_poly_by_term_regex, ring, text)


def test_exponents_of_any_length(R4):
    """An x exponent longer than int() reads is refused by the guard, leading
    zeros do not count, and a^k of any length parses to a^(k mod (order-1)),
    against a positional reduction of the digits."""
    with pytest.raises(GuardExceededError, match="x exponent of 5000 digits exceeds 2") as info:
        parse_poly(R4, "x^" + "1" * 5000 + "+1")
    assert info.value.cost == 5000
    assert parse_poly(R4, "x^" + "0" * 5000 + "3").degree == 3
    assert parse_poly(R4, "x^" + "0" * 200 + "65536+1").degree == 1 << 16
    rng = random.Random(5000)
    for name in ("F4", "F9", "F16", "F2_12"):
        F = get_field(name)
        n = F.order - 1
        for digits in ("7" * 5000, "".join(rng.choice("0123456789") for _ in range(5000))):
            k = sum(int(c) * pow(10, i, n) for i, c in enumerate(reversed(digits))) % n
            assert parse_element(F, "a^" + digits) == F.gen ** k
            assert parse_poly(SkewRing(F, F.degree), f"a^{digits}*x") == \
                SkewRing(F, F.degree).poly([F.zero, F.gen ** k])


def test_roundtrip_primitive_and_tuple_fields(R4):
    rng = random.Random(1)
    # a field without a designated primitive element prints tuples
    plain = FieldSpec(2, (1, 1, 1, 1, 1), primitive=False)
    Rp = SkewRing(plain, 1)
    for ring in (R4, Rp):
        for _ in range(80):
            f = ring.from_indices(
                [rng.randrange(ring.field.order) for _ in range(rng.randrange(1, 6))]
            )
            assert parse_poly(ring, format_poly(f)) == f


@pytest.mark.parametrize("name", PRESETS)
@given(data=st.data())
def test_parse_format_roundtrip_on_every_preset(name, data):
    F = get_field(name)
    ring = SkewRing(F, 1)
    f = ring.from_indices(data.draw(st.lists(st.integers(0, F.order - 1), max_size=7)))
    assert parse_poly(ring, format_poly(f)) == f


def test_format_element_styles(F8):
    a = F8.gen
    assert format_element(a**3) == "a^3"
    assert format_element(a**3, style="tuple") == "1,1,0"


def test_format_word_and_matrix(F8):
    """A word is its entries by format_element, space-separated; a matrix is
    its words, one a line; an empty word is the empty text."""
    a = F8.gen
    word = [F8.zero, F8.one, a, a**3]
    assert format_word(word) == "0 1 a a^3"
    assert format_word(word, style="tuple") == "0,0,0 1,0,0 0,1,0 1,1,0"
    assert format_word(iter(word)) == " ".join(format_element(c) for c in word)
    assert format_word([]) == ""
    assert format_matrix([word, [a**6, a]]) == "0 1 a a^3\na^6 a"
    assert format_matrix([[a], []], style="tuple") == "0,1,0\n"
    assert format_matrix([]) == ""


def test_str_prints_tuple_coefficients_in_parentheses():
    """Over a field without a designated primitive element every polynomial
    class prints a coefficient as its digit tuple in parentheses."""
    F = FieldSpec(3, (1, 0, 1), primitive=False)       # F9 = F3[x]/(x^2 + 1)
    f = SkewRing(F, 1).poly([F.element((1, 1)), F.element((2, 1)), F.one])
    assert str(f) == "x^2+(2,1)*x+(1,1)"
    assert str(to_linearized(f)) == "y^q^2+(2,1)*y^q+(1,1)*y"
    assert str(to_commutative(f)) == "y^4+(2,1)*y+(1,1)"
    # a coefficient 1 before a variable part is left out, a constant stands alone
    g = SkewRing(F, 1).poly([F.one, F.element((0, 2)), 0, F.one])
    assert str(g) == "x^3+(0,2)*x+(1,0)"
    assert str(to_linearized(g)) == "y^q^3+(0,2)*y^q+y"
    assert str(to_linearized(g) + to_linearized(-g)) == str(g - g) == "0"


def test_field_config_roundtrip(F4096):
    text = format_field_config(F4096, 1)
    field, e = parse_field_config(text)
    assert field == F4096 and e == 1
    assert "modpoly=1,1,0,1,0,1,1,1,0,0,0,0,1" in text


def test_field_config_example():
    text = "p=2\ne=1\nd=2\nmodpoly=1,1,1\nprimitive=true\n"
    field, e = parse_field_config(text)
    assert field == get_field("F4")
    assert e == 1


def test_field_config_errors():
    with pytest.raises(ParseError):
        parse_field_config("p=2\ne=1\n")
    with pytest.raises(ParseError):
        parse_field_config("p=2\ne=1\nd=3\nmodpoly=1,1\n")
    with pytest.raises(ParseError):
        parse_field_config("p=2 e=1")


def test_code_config(F4):
    text = (
        "p=2\ne=1\nd=2\nmodpoly=1,1,1\nprimitive=true\n"
        "f=x^4-1\ng=x^2+1\n"
    )
    ring, f, g = parse_code_config(text)
    assert ring.field == F4
    assert f == ring.x_pow_minus(4, ring.field.one)
    assert g == ring.poly([1, 0, 1])
