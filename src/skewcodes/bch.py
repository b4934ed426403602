"""Designed-distance constructions: skew-BCH codes of both kinds, skew-RS
codes, evaluation codes, and an exact minimum-distance oracle.

First kind: the generator's right roots are consecutive ordinary powers of
an element alpha of an extension field (Hartmann-Tzeng style offsets
b + t1*i + t2*j).  Second kind: the roots are consecutive Frobenius powers
beta^(q^t) of beta = alpha^(q-1) for a normal element alpha.  Both reduce
to one computation: the minimal polynomial over the base field of the
designed roots, closed under the automorphisms of the extension that fix
the base field (``rootsets._subfield_minimal_polynomial``).
"""

from __future__ import annotations

import itertools
from math import comb, gcd

from .codes import Modulus, SkewCyclicCode, _codewords
from .errors import ConditionViolatedError, GuardExceededError, SearchCancelledError
from .fields import FieldElement
from .linalg import rank_i, right_kernel_i, unwrap, wrap
from .rootsets import _minpoly_ci, _subfield_minimal_polynomial, _vandermonde_i
from .skewpoly import SkewPoly, SkewRing, apply_automorphism


# -- minimum distance oracle -------------------------------------------------------

_DISTANCE_LENGTH_GUARD = 24
_LENGTH_GUARD = 1 << 16   # the largest modulus degree parse_poly accepts
_DESIGNED_SET_GUARD = 1 << 20
_MESSAGE_ROUTE_GUARD = 1 << 24
_COLUMN_ROUTE_GUARD = 1 << 25


def _generator_rows_i(code):
    rows = getattr(code, "_gen_rows_i", None)
    if rows is None:
        rows = unwrap(code.generator_matrix)
    return rows


def min_distance_exact(code, strategy="auto", cancel=None):
    """Exact minimum Hamming distance of a linear code.

    Accepts any object with ``field`` and ``generator_matrix`` (full rank).
    Two search routes are implemented and must agree where both run: the
    smallest number of linearly dependent parity-check columns, and direct
    enumeration of all messages.  ``strategy`` picks "columns", "messages",
    or "auto" (cheaper estimated count).
    """
    field = code.field
    rows = _generator_rows_i(code)
    k = len(rows)
    if k == 0:
        raise ValueError("the zero code has no minimum distance")
    n = len(rows[0])
    if n > _DISTANCE_LENGTH_GUARD:
        raise GuardExceededError(f"distance oracle limited to n <= 24, got {n}")
    if rank_i(rows, field) != k:
        raise ValueError("generator matrix must have full rank")
    msg_cost = field.order ** k
    col_cost = sum(comb(n, w) for w in range(1, n - k + 2))
    if strategy == "auto":
        strategy = "messages" if msg_cost <= col_cost else "columns"
    if strategy == "messages":
        if msg_cost > _MESSAGE_ROUTE_GUARD:
            raise GuardExceededError(
                f"message enumeration cost {msg_cost} exceeds 2^24", cost=msg_cost
            )
        return _distance_by_messages(rows, field, n, cancel)
    if strategy == "columns":
        if col_cost > _COLUMN_ROUTE_GUARD:
            raise GuardExceededError(
                f"column search cost {col_cost} exceeds 2^25", cost=col_cost
            )
        return _distance_by_columns(rows, field, n, k, cancel)
    raise ValueError(f"unknown strategy {strategy!r}")


def _distance_by_messages(rows, field, n, cancel=None):
    best = n + 1
    for word in _codewords(field, rows, n, cancel):
        w = sum(1 for c in word if c)
        if w and w < best:   # w = 0 only for the zero message
            best = w
            if best == 1:
                return 1
    return best


def _distance_by_columns(rows, field, n, k, cancel=None):
    """Smallest w such that some w columns of the parity check are dependent."""
    parity = right_kernel_i(rows, field, ncols=n)   # rows of H
    cols = list(zip(*parity)) if parity else [()] * n
    for w in range(1, n + 1):
        for subset in itertools.combinations(range(n), w):
            if cancel is not None and cancel.is_set():
                raise SearchCancelledError("distance search cancelled")
            sub = [list(cols[j]) for j in subset]
            if rank_i(sub, field) < w:
                return w
    raise ArithmeticError("unreachable: the full column set is always dependent")


def is_mds(code):
    """d = n - k + 1, verified by the exact oracle."""
    rows = _generator_rows_i(code)
    n = len(rows[0]) if rows else 0
    k = len(rows)
    return min_distance_exact(code) == n - k + 1


# -- evaluation codes -----------------------------------------------------------------


class EvaluationCode:
    """The code {(p(a_1), ..., p(a_n)) : deg p < k} for points of full
    Vandermonde rank; dimension k, minimum distance n - k + 1 (MDS)."""

    def __init__(self, ring, points, k):
        field = ring.field
        pts = [field.element(a) for a in points]
        n = len(pts)
        if not 1 <= k < n:
            raise ValueError("need 1 <= k < n")
        full = _vandermonde_i(ring, n, [a.i for a in pts])
        if rank_i(full, field) != n:
            raise ConditionViolatedError(
                "points do not have full skew Vandermonde rank"
            )
        self.ring = ring
        self.field = field
        self.points = tuple(pts)
        self.n = n
        self.k = k
        self._gen_rows_i = full[:k]

    @property
    def generator_matrix(self):
        return wrap(self._gen_rows_i, self.field)

    def __repr__(self):
        return f"EvaluationCode(n={self.n}, k={self.k})"


def evaluation_code(ring, points, k):
    return EvaluationCode(ring, points, k)


# -- skew-BCH specifications ------------------------------------------------------------


class _Frozen:
    """An immutable record over the names in ``_fields``: built from
    positional or keyword values, compared and hashed as the tuple of its
    values (only against its own class), shown as ``Name(field=value, ...)``,
    and refusing assignment and deletion with AttributeError."""

    _fields = ()

    def __init__(self, *args, **kwargs):
        cls = type(self).__qualname__
        if len(args) > len(self._fields):
            raise TypeError(f"{cls}() takes {len(self._fields)} arguments, got {len(args)}")
        values = dict(zip(self._fields, args))
        for name, value in kwargs.items():
            if name not in self._fields:
                raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in self._fields if name not in values]
        if missing:
            raise TypeError(f"{cls}() missing arguments: {', '.join(missing)}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _BchSpec(_Frozen):
    """The parameters both kinds share: ``base_ring`` is F_{q^m}[x; sigma],
    ``emb`` embeds the base field into the extension where alpha lives, and
    the designed exponents are b + t1*i + t2*j for i <= delta-2, j <= nu."""

    _fields = ("base_ring", "emb", "alpha", "b", "t1", "t2", "delta", "nu")

    @property
    def s(self):
        return self.emb.target.degree // self.emb.source.degree

    @property
    def ext_ring(self):
        return SkewRing(self.emb.target, self.base_ring.e)

    @property
    def designed_distance(self):
        return self.delta + self.nu

    def designed_exponents(self):
        """The set {b + t1*i + t2*j : i <= delta-2, j <= nu}."""
        count = (self.delta - 1) * (self.nu + 1)
        if count > _DESIGNED_SET_GUARD:
            raise GuardExceededError(
                f"designed exponent set of {count} exceeds 2^20", cost=count
            )
        return {
            self.b + self.t1 * i + self.t2 * j
            for i in range(self.delta - 1)
            for j in range(self.nu + 1)
        }

    def validate(self):
        if self.emb.source != self.base_ring.field:
            raise ConditionViolatedError("embedding source must be the base field")
        if self.alpha.field != self.emb.target:
            raise ConditionViolatedError("alpha must live in the extension field")
        if self.delta < 2:
            raise ConditionViolatedError("delta must be at least 2")


# -- skew-BCH codes of the first kind ---------------------------------------------------


def _unit_brackets(field, q, bases, limit):
    """Yield (ell, i) for each base (numbered from 1) with a bracket power
    base^[i] = 1, [i] = (q^i-1)/(q-1), at some 1 <= i < limit: the least
    such i.  [i + 1] = q[i] + 1 is stepped modulo N = order - 1, a bijection
    of Z/N, so [i] returns to [0] = 0 within N steps: a nonzero base reaches
    1 by i = N, and 0 never does."""
    n = field.order - 1
    for ell, base in enumerate(bases, 1):
        k = 0
        for i in range(1, min(limit, n + 1) if base else 0):
            k = (k * q + 1) % n
            if field.pow_i(base, k) == 1:
                yield ell, i
                break


def _bch1_brackets(spec, limit):
    """_unit_brackets of alpha^t1, and of alpha^t2 when nu > 0."""
    field = spec.emb.target
    ts = (spec.t1,) if spec.nu == 0 else (spec.t1, spec.t2)
    bases = [field.pow_i(spec.alpha.i, t) for t in ts]
    return _unit_brackets(field, spec.base_ring.q, bases, limit)


class Bch1Spec(_BchSpec):
    """Parameters for a first-kind construction of length n: alpha lives in
    F_{q^(ms)} (the identity embedding when s = 1) and the designed roots
    are alpha^(b + t1*i + t2*j) for i <= delta-2, j <= nu.
    """

    _fields = _BchSpec._fields + ("n",)

    def validate(self):
        super().validate()
        if self.t1 < 1 or self.t2 < 1 or self.b < 0 or self.nu < 0:
            raise ConditionViolatedError("need t1, t2 >= 1 and b, nu >= 0")
        hit = next(_bch1_brackets(self, self.n), None)
        if hit is not None:
            ell, i = hit
            raise ConditionViolatedError(
                f"(alpha^t{ell})^[{i}] = 1 with [i] = (q^{i}-1)/(q-1); "
                f"length {self.n} exceeds the admissible range"
            )


def bch1_root_exponents(spec):
    return sorted(spec.designed_exponents())


def bch1_max_length(spec):
    """Largest admissible n: the least i >= 1 with (alpha^t1)^[i] = 1
    (and the t2 analogue when nu > 0), scanned at desk scale."""
    return min((i for _, i in _bch1_brackets(spec, spec.emb.target.order)), default=None)


def bch1_generator(spec):
    """(g, delta + nu): g is the least-degree monic polynomial over the base
    field vanishing at the designed roots; any length-n code it generates
    has minimum distance at least delta + nu."""
    spec.validate()
    field = spec.emb.target
    roots = [field.pow_i(spec.alpha.i, t) for t in bch1_root_exponents(spec)]
    g = _subfield_minimal_polynomial(spec.base_ring, spec.emb, roots)
    return g, spec.designed_distance


def constacyclic_modulus_for(ring, g, n):
    """x^n - a for the unique a in F* with g a right divisor, when one
    exists: with deg g >= 1, x^n - a = s*g exactly when the remainder of
    x^n on right division by g is the nonzero constant a.  A constant g
    divides every x^n - a and gets a = 1."""
    if g.degree == 0:
        a = ring.field.one
    else:
        r = ring.one.times_x(n).right_rem(g)
        if r.degree != 0:
            return None
        a = r.constant_coefficient
    return ring.x_pow_minus(n, a)


def left_x_multiple(g, n):
    """The monic degree-n left multiple x^(n - deg g) * g = sigma^k(g) x^k."""
    k = n - g.degree
    return apply_automorphism(g, k).times_x(k)


def bch1_code(spec, n=None):
    """The length-n code generated by the first-kind polynomial.

    The modulus defaults to x^n - a when some nonzero a makes g a right
    divisor, else to the monic left multiple x^(n - deg g) * g; the
    generator matrix does not depend on this choice.
    """
    n = spec.n if n is None else n
    g, designed = bch1_generator(spec)
    if g.degree > n:
        raise ConditionViolatedError(
            f"generator degree {g.degree} exceeds length {n}"
        )
    if n > _LENGTH_GUARD:
        raise GuardExceededError(f"code length {n} exceeds 2^16", cost=n)
    f = constacyclic_modulus_for(spec.base_ring, g, n) or left_x_multiple(g, n)
    return SkewCyclicCode(Modulus(f), g), designed


def _rs1_brackets_repeat(ring, a, n):
    """Whether a^[0], ..., a^[n-1] repeat.  For a != 0, a^[j] = a^[i] exactly
    when a^[j-i] = 1, since a^[j]/a^[i] = (a^[j-i])^(q^i); 0^[i] = 0 for
    every i >= 1."""
    if a == 0:
        return n >= 3
    return next(_unit_brackets(ring.field, ring.q, [a], n), None) is not None


def skew_rs1(ring, alpha, b, delta, n, f=None):
    """The code generated by lclm(x - alpha^(b+i) : i <= delta-2) for alpha
    in the base field; dimension n - delta + 1 and MDS."""
    field = ring.field
    alpha = field.element(alpha)
    if _rs1_brackets_repeat(ring, alpha.i, n):
        raise ConditionViolatedError(
            "alpha^[0..n-1] are not distinct; length too large"
        )
    g = SkewPoly(ring, _minpoly_ci(ring, [field.pow_i(alpha.i, b + i) for i in range(delta - 1)]))
    if g.degree != delta - 1:
        raise ConditionViolatedError(
            "designed roots are not P-independent; generator degree dropped"
        )
    if f is None:
        f = constacyclic_modulus_for(ring, g, n) or left_x_multiple(g, n)
    elif not g.right_divides(f):
        raise ConditionViolatedError("supplied modulus is not a left multiple")
    return SkewCyclicCode(Modulus(f), g)


# -- skew-BCH codes of the second kind ----------------------------------------------------


def _is_normal(ring, a):
    """Whether the sigma-orbit of the packed a is a basis over the fixed
    field: its Moore matrix, the Hankel matrix sigma^(i+j)(a), has full
    rank m.  sigma^m is the identity, so row i is the orbit rotated by i."""
    m = ring.m
    orbit = [ring.sigma_i(a, j) for j in range(m)]
    return rank_i([orbit[i:] + orbit[:i] for i in range(m)], ring.field) == m


def find_normal_element(ring):
    """The first power of the primitive element whose sigma-orbit is a basis
    over the fixed field (Moore matrix invertible); deterministic scan."""
    field = ring.field
    cand = 1
    for _ in range(1, field.order - 1):
        cand = field.mul_i(cand, field._x)
        if _is_normal(ring, cand):
            return FieldElement(field, cand)
    raise ArithmeticError("no normal element found; this cannot happen")


class Bch2Spec(_BchSpec):
    """Parameters for a second-kind construction over F_{q^m}, length n = ms.

    ``emb`` embeds the base field F_{q^m} into F_{q^n}; alpha generates a
    normal basis of F_{q^n} over F_q and beta = alpha^(q-1).  Designed root
    exponents are q^(b + t1*i + t2*j) applied to beta.
    """

    @property
    def n(self):
        return self.base_ring.m * self.s

    @property
    def beta(self):
        return FieldElement(self.emb.target, self._beta_i)

    @property
    def _beta_i(self):
        return self.emb.target.pow_i(self.alpha.i, self.base_ring.q - 1)

    def validate(self):
        super().validate()
        n = self.n
        ext = self.ext_ring
        if ext.m != n:
            raise ConditionViolatedError("extension ring order must equal the length")
        if gcd(n, self.t1) != 1:
            raise ConditionViolatedError(f"gcd(n, t1) = {gcd(n, self.t1)} != 1")
        if gcd(n, self.t2) >= self.delta:
            raise ConditionViolatedError(
                f"gcd(n, t2) = {gcd(n, self.t2)} >= delta = {self.delta}"
            )
        if not _is_normal(ext, self.alpha.i):
            raise ConditionViolatedError("alpha does not generate a normal basis")


def bch2_exponent_sets(spec):
    """(S, S_closed): the designed exponent set modulo n, and its closure
    under the order-s subgroup generated by m (smallest union of cosets)."""
    n = spec.n
    m = spec.base_ring.m
    S = sorted({t % n for t in spec.designed_exponents()})
    closed = sorted({(t + m * l) % n for t in S for l in range(spec.s)})
    return S, closed


def bch2_generator(spec):
    """(g', delta + nu): g' is the least-degree monic polynomial over the
    base field vanishing at beta^(q^t) for t in the designed set, so at the
    whole coset closure; g' right-divides x^n - 1."""
    spec.validate()
    field = spec.emb.target
    q = spec.base_ring.q
    beta = spec._beta_i
    S, _ = bch2_exponent_sets(spec)
    roots = [field.pow_i(beta, q ** t) for t in S]
    g = _subfield_minimal_polynomial(spec.base_ring, spec.emb, roots)
    return g, spec.designed_distance


def bch2_code(spec):
    g, designed = bch2_generator(spec)
    f = spec.base_ring.x_pow_minus(spec.n, spec.base_ring.field.one)
    return SkewCyclicCode(Modulus(f), g), designed
