"""Text formats: the polynomial grammar, element tokens, and config files.

Grammar:  poly := [sign] term (sign term)*; sign := '+' | '-', with '-'
handled by field negation; term := coeff ['*'] ['x' ['^' INT]];
coeff := '0' | '1' | 'a' | 'a^' INT | '(' INT (',' INT)* ')' where 'a'
is the designated primitive element and tuples are ascending prime-field
coefficients.  Printing round-trips losslessly through parsing.

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

from .errors import GuardExceededError, ParseError, _guard
from .fields import FieldSpec
from .skewpoly import SkewRing

# the largest x exponent parse_poly accepts: a dense polynomial of that degree
_EXPONENT_LIMIT = 1 << 16
# a longer exponent is refused by its digit count before int() reads it
# (CPython's int() refuses decimal strings of more than 4,300 digits)
_EXPONENT_DIGITS = 100

_TERM_RE = re.compile(
    r"^(?:(?P<coeff>0|1|a(?:\^(?P<apow>\d+))?|\((?P<tuple>\d+(?:,\d+)*)\))\*?)?"
    r"(?P<xpart>x(?:\^(?P<xpow>\d+))?)?$"
)


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
            raise ParseError(f"cannot parse element {text!r}")
        k = 0   # a has order - 1, so reduce while reading the digits
        for digit in text[2:]:
            k = (10 * k + int(digit)) % (field.order - 1)
        return field.gen ** k
    if re.fullmatch(r"\d+(,\d+)*", text):
        digits = [int(c) for c in text.split(",")]
        if len(digits) > field.degree or any(c >= field.p for c in digits):
            raise ParseError(f"element tuple {text!r} out of range for {field.name}")
        return field.from_coeffs(digits)
    raise ParseError(f"cannot parse element {text!r}")


def format_element(a, style="auto"):
    return a.field.format_element(a.i, style=style)


def _split_terms(text):
    """Split on top-level +/-, keeping signs; parens shield tuple commas.
    A sign must be followed by a term; only the first term may be preceded
    by a sign with no term before it."""
    out = []
    depth = 0
    sign = 1
    cur = []
    signed = False   # a sign seen and no term after it yet
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if ch in "+-" and depth == 0:
            if cur:
                out.append((sign, "".join(cur)))
                cur = []
            elif signed:
                raise ParseError(f"empty term in {text!r}")
            signed = True
            sign = -1 if ch == "-" else 1
            continue
        signed = False
        cur.append(ch)
    if depth:
        raise ParseError("unbalanced parentheses")
    if signed:
        raise ParseError(f"empty term in {text!r}")
    if cur:
        out.append((sign, "".join(cur)))
    return out


def parse_poly(ring, text):
    """A SkewPoly from the shared grammar.  An x exponent above 2^16, of any
    length, raises GuardExceededError before any coefficient list is built."""
    stripped = "".join(text.split())
    if not stripped:
        raise ParseError("empty polynomial text")
    field = ring.field
    coeffs = {}
    for sign, term in _split_terms(stripped):
        m = _TERM_RE.fullmatch(term)
        if not m or (m.group("coeff") is None and m.group("xpart") is None):
            raise ParseError(f"cannot parse term {term!r}")
        if m.group("coeff") is None:
            c = field.one
        else:
            c = parse_element(field, m.group("coeff"))
        if m.group("xpart") is None:
            exp = 0
        elif m.group("xpow") is None:
            exp = 1
        else:
            digits = m.group("xpow").lstrip("0") or "0"
            if len(digits) > _EXPONENT_DIGITS:
                raise GuardExceededError(f"x exponent of {len(digits)} digits exceeds 2^16")
            exp = int(digits)
            _guard("x exponent {} exceeds 2^16", _EXPONENT_LIMIT, exp)
        if sign < 0:
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
            raise ParseError(f"line {lineno}: expected key=value, got {raw!r}")
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
