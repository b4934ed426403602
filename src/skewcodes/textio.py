"""Text formats: the polynomial grammar, element tokens, and config files.

Grammar:  poly := [sign] term (sign term)*; sign := '+' | '-', with '-'
handled by field negation; term := coeff ['*'] ['x' ['^' INT]];
coeff := '0' | '1' | 'a' | 'a^' INT | '(' INT (',' INT)* ')' where 'a'
is the designated primitive element and tuples are ascending prime-field
coefficients.  Printing round-trips losslessly through parsing.
parse_poly checks that the parentheses balance, splits the text on its
signs, refuses an empty term, cuts each term at its 'x' and reads the
coefficient with parse_element, the reader of element tokens, which also
takes a bare 'c0,c1'.

Field configs are line-oriented key=value text:

    p=2
    e=1
    d=12
    modpoly=1,1,0,1,0,1,1,1,0,0,0,0,1
    primitive=true

Code description files append f=... and g=... lines in the grammar.
"""

from __future__ import annotations

import re

from .errors import ParseError, _guard
from .fields import FieldSpec
from .skewpoly import SkewRing

# the largest x exponent parse_poly accepts: a dense polynomial of that degree
_EXPONENT_LIMIT = 1 << 16
# a longer exponent is refused by its digit count before int() reads it
# (CPython's int() refuses decimal strings of more than 4,300 digits)
_EXPONENT_DIGITS = 100

# a longer token is quoted by this many leading characters and its length
_QUOTE_LIMIT = 60

_SIGN_RE = re.compile(r"([+-])")
_X_RE = re.compile(r"x(?:\^(\d+))?")


def _quote(token):
    """The repr of a token for an error text; past _QUOTE_LIMIT characters,
    the repr of its prefix and its length, so hostile input is not echoed."""
    if len(token) <= _QUOTE_LIMIT:
        return repr(token)
    return f"{token[:_QUOTE_LIMIT]!r}... ({len(token)} characters)"


def parse_element(field, text):
    """An element from 'a^k', 'a', '0', '1', or 'c0,c1,...' (parens optional)."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if text == "0":
        return field.zero
    if text == "1":
        return field.one
    if text == "a" or text.startswith("a^"):
        if not field.primitive:
            raise ParseError(
                f"power notation needs a primitive designated generator in {field.name}"
            )
        if text == "a":
            return field.gen
        if not re.fullmatch(r"a\^\d+", text):
            raise ParseError(f"cannot parse element {_quote(text)}")
        k = 0   # a has order - 1, so reduce while reading the digits
        for digit in text[2:]:
            k = (10 * k + int(digit)) % (field.order - 1)
        return field.gen ** k
    if re.fullmatch(r"\d+(,\d+)*", text):
        digits = text.split(",")   # longer than p in decimal: refused before int()
        if len(digits) > field.degree or any(
                len(c.lstrip("0")) > len(str(field.p)) or int(c) >= field.p for c in digits):
            raise ParseError(f"element tuple {_quote(text)} out of range for {field.name}")
        return field.from_coeffs([int(c) for c in digits])
    raise ParseError(f"cannot parse element {_quote(text)}")


def format_element(a, style="auto"):
    return a.field.format_element(a.i, style=style)


def parse_poly(ring, text):
    """A SkewPoly from the shared grammar.  An x exponent above 2^16, of any
    length, raises GuardExceededError before any coefficient list is built."""
    stripped = "".join(text.split())
    if not stripped:
        raise ParseError("empty polynomial text")
    depth = 0
    for ch in stripped:
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
    if depth:
        raise ParseError("unbalanced parentheses")
    parts = _SIGN_RE.split(stripped)   # term, sign, term, ..., sign, term
    if "" in parts[2::2]:   # only the first term may be empty, before a sign
        raise ParseError(f"empty term in {_quote(stripped)}")
    field = ring.field
    coeffs = {}
    for sign, term in zip(["+"] + parts[1::2], parts[::2]):
        if not term:
            continue
        head, x, tail = term.partition("x")
        coeff = head[:-1] if head.endswith("*") else head
        power = _X_RE.fullmatch(x + tail)
        # a tuple other than 0 and 1 is parenthesized, a power of a never is
        if (x and not power) or not (
                coeff in ("0", "1") or coeff[:1] == "a"
                or coeff[:1] == "(" and coeff[1:2] != "a" or x and not head):
            raise ParseError(f"cannot parse term {_quote(term)}")
        c = parse_element(field, coeff) if coeff else field.one
        exp = 0
        if x:
            digits = (power.group(1) or "1").lstrip("0") or "0"
            _guard("x exponent of {} digits exceeds 2^16", _EXPONENT_DIGITS, len(digits))
            exp = int(digits)
            _guard("x exponent {} exceeds 2^16", _EXPONENT_LIMIT, exp)
        if sign == "-":
            c = -c
        prev = coeffs.get(exp, field.zero)
        coeffs[exp] = prev + c
    if not coeffs:
        return ring.zero
    top = max(coeffs)
    return ring.poly([coeffs.get(i, field.zero) for i in range(top + 1)])


def format_poly(f):
    return str(f)


def _format_row_i(field, row, style="auto"):
    """A row of packed indices of field, each element by
    field.format_element, space-separated."""
    fmt = field.format_element
    return " ".join([fmt(i, style) for i in row])


def format_word(word, style="auto"):
    word = tuple(word)
    return _format_row_i(word[0].field, [c.i for c in word], style) if word else ""


def format_matrix(rows, style="auto"):
    return "\n".join(format_word(row, style=style) for row in rows)


# -- config files ---------------------------------------------------------------------


def _parse_kv(text):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key=value, got {_quote(raw)}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_field_config(text):
    """(FieldSpec, sigma exponent e) from key=value lines."""
    kv = _parse_kv(text)
    try:
        p = int(kv["p"])
        e = int(kv["e"])
        d = int(kv["d"])
        modpoly = tuple(int(c) for c in kv["modpoly"].split(","))
    except KeyError as exc:
        raise ParseError(f"missing field config key {exc}") from None
    except ValueError as exc:
        raise ParseError(f"bad field config value: {exc}") from None
    if len(modpoly) != d + 1:
        raise ParseError(f"modpoly has {len(modpoly)} coefficients, expected {d + 1}")
    primitive = kv.get("primitive", "false").lower() in ("true", "1", "yes")
    field = FieldSpec(p, modpoly, primitive=primitive)
    return field, e


def format_field_config(field, e):
    lines = [
        f"p={field.p}",
        f"e={e}",
        f"d={field.degree}",
        "modpoly=" + ",".join(str(c) for c in field.modulus),
        f"primitive={'true' if field.primitive else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def parse_code_config(text):
    """(ring, f, g) from a field config block plus f= and g= lines."""
    kv = _parse_kv(text)
    field, e = parse_field_config(text)
    ring = SkewRing(field, e)
    if "f" not in kv or "g" not in kv:
        raise ParseError("code config needs f= and g= lines")
    return ring, parse_poly(ring, kv["f"]), parse_poly(ring, kv["g"])
