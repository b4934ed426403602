import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PRESETS
from skewcodes.errors import GuardExceededError, ParseError
from skewcodes.fields import FieldSpec, get_field
from skewcodes.skewpoly import SkewRing
from skewcodes.textio import (
    format_element,
    format_field_config,
    format_poly,
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


def test_exponents_of_any_length(R4):
    """An x exponent longer than int() reads is refused by the guard, leading
    zeros do not count, and a^k of any length parses to a^(k mod (order-1)),
    against a positional reduction of the digits."""
    with pytest.raises(GuardExceededError, match="x exponent of 5000 digits exceeds 2"):
        parse_poly(R4, "x^" + "1" * 5000 + "+1")
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
