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

from collections import namedtuple
from math import comb, gcd

from .codes import Modulus, SkewCyclicCode, _codewords
from .errors import ConditionViolatedError, _cancellable, _guard
from .fields import FieldElement
from .linalg import rank_i, right_kernel_i, unwrap, wrap
from .rootsets import _minpoly_ci, _subfield_minimal_polynomial, _vandermonde_i
from .skewpoly import SkewPoly, SkewRing, apply_automorphism


# -- minimum distance oracle -------------------------------------------------------

_DISTANCE_LENGTH_GUARD = 24
_LENGTH_GUARD = 1 << 16   # the largest modulus degree parse_poly accepts
_DESIGNED_SET_GUARD = 1 << 20
_MESSAGE_ROUTE_GUARD = 1 << 24


def _generator_rows_i(code):
    rows = getattr(code, "_gen_rows_i", None)
    if rows is None:
        rows = unwrap(code.generator_matrix)
    return rows


def min_distance_exact(code, strategy="auto", cancel=None):
    """Exact minimum Hamming distance of a linear code.

    Accepts any object with ``field`` and ``generator_matrix`` (full rank).
    G is reduced once, to the rows of its parity check H, whose count
    n - rank is the full-rank check.  Two search routes must agree where
    both run: the smallest number of dependent columns of H, by a
    depth-first walk of column subsets that carries the rows of H each
    prefix leaves free (``_distance_by_columns``), and the least weight
    over one message per projective point (``_distance_by_messages``).
    ``strategy`` picks "columns", "messages", or "auto", the route with the
    smaller cost formula: N^k messages against the sum over w <= n - k + 1
    of C(n, w) column subsets.  A ``SkewCyclicCode`` with a constacyclic
    modulus is closed under the skew shift, and its column walk visits only
    the canonical rotation of each support: column 0 first, and the wrap
    gap from the last column round to column 0 at least every other gap.
    Over levels 2..d at n = 12 that is at most 179 eliminations when d = 6
    and 83 when d = 5, against 562 and 232 from column 0 alone.  ``auto``
    still costs the column route by the full count.
    """
    field = code.field
    rows = _generator_rows_i(code)
    k = len(rows)
    if k == 0:
        raise ValueError("the zero code has no minimum distance")
    n = len(rows[0])
    _guard("distance oracle limited to n <= 24, got {}", _DISTANCE_LENGTH_GUARD, n)
    parity = right_kernel_i(rows, field)   # rows of H
    if len(parity) != n - k:
        raise ValueError("generator matrix must have full rank")
    msg_cost = field.order ** k
    col_cost = sum(comb(n, w) for w in range(1, n - k + 2))
    if strategy == "auto":
        strategy = "messages" if msg_cost <= col_cost else "columns"
    if strategy == "messages":
        _guard("message enumeration cost {} exceeds 2^24", _MESSAGE_ROUTE_GUARD, msg_cost)
        return _distance_by_messages(rows, field, n, cancel)
    if strategy == "columns":   # n <= 24 caps its cost at 2^24 - 1 subsets
        shifted = isinstance(code, SkewCyclicCode) and code.modulus.is_constacyclic
        return _distance_by_columns(parity, field, n, cancel, shifted)
    raise ValueError(f"unknown strategy {strategy!r}")


def _distance_by_messages(rows, field, n, cancel=None):
    """Least weight of u * G over the messages u whose last nonzero
    coordinate is 1: every nonzero codeword is a scalar multiple of one of
    them, and scaling keeps the weight."""
    best = n + 1
    for word in _codewords(field, rows, n, cancel, projective=True):
        w = sum(1 for c in word if c)
        if w < best:
            best = w
            if best == 1:
                return 1
    return best


def _distance_by_columns(parity, field, n, cancel=None, shifted=False):
    """Smallest w such that some w columns of the parity check H (rows
    ``parity``) are dependent, by iterative deepening over w = 1, 2, ... of
    a depth-first walk of column subsets in lexicographic order.

    A prefix of s columns holds the r - s rows of H that it leaves free
    (r = len(parity)): adding column c copies them with the first row
    nonzero at c placed first, makes one ``eliminate(sub, 0, c)`` and hands
    ``sub[1:]`` to the child.  A column j is in the span of the prefix
    exactly when it is zero in the free rows.  Levels below w found no
    dependent set, so every prefix at level w is independent (the column
    added to it has a nonzero free row), and a dependent w-set is reached
    as its w - 1 smallest columns (a prefix) and its largest column j (a
    leaf), with no kernel call.  Level w makes C(n - w + j, j)
    eliminations at each prefix size j = 1..w-1 and at most C(n, w)
    zero-tests at its leaves.  With no free rows every column is dependent,
    so the search ends by w = r + 1 (the Singleton bound).  Each node checks
    ``cancel`` before each of its columns.

    ``shifted`` says the code is closed under the skew shift, as a
    skew-constacyclic code is: a left submodule of R/R(x^n - a) is mapped to
    itself by left multiplication by x, which keeps the weight of a word and
    rotates its support one place.  Each level then walks only the
    canonical w-sets {0 = c_0 < ... < c_(w-1)}, whose wrap gap n - c_(w-1)
    is at least every gap c_(i+1) - c_i: rotating a lightest codeword so
    that its largest cyclic gap ends at column 0 gives one.  Levels below w
    still found nothing, since a dependent prefix would give a lighter
    codeword, whose canonical rotation its own level would have found.  A
    prefix ending at c, with largest gap g so far, takes its next column
    c' with rest columns still to come (c' among them) up to
    min(n - g - rest + 1, (n + c - rest + 1) // 2): beyond the first the
    wrap gap falls below g, beyond the second below c' - c.  Every column
    in range extends to a canonical set (the rest columns consecutive), so
    the walk visits exactly the prefixes of canonical sets.  Over levels
    2..d at n = 12 that is at most 179 eliminations when d = 6 and 83 when
    d = 5, where starting each level at column 0 alone, with
    C(n - w + j - 1, j - 1) eliminations at each prefix size j, makes 562
    and 232, and the full walk 1,580 and 789.
    """
    kern = field.kernel()

    def closes(free, cols, left, last, gap):
        """Whether some dependent set extends the prefix, whose last column
        is ``last`` and whose largest gap is ``gap``, by ``left`` more
        columns, the next one from ``cols``."""
        cols = _cancellable(cols, cancel, "distance")
        if left == 1:
            return any(not any(row[c] for row in free) for c in cols)
        for c in cols:   # the prefix and c are independent: c has a nonzero free row
            pivot = next(i for i, row in enumerate(free) if row[c])
            sub = [list(row) for row in (free[pivot], *free[:pivot], *free[pivot + 1:])]
            kern.eliminate(sub, 0, c)
            rest, g = left - 1, max(gap, c - last)
            hi = min(n - g - rest + 1, (n + c - rest + 1) // 2) if shifted else n - rest
            if closes(sub[1:], range(c + 1, hi + 1), rest, c, g):
                return True
        return False

    # last = -1 counts the root's column 0 as a gap of 1, which no gap undercuts
    for w in range(1, len(parity) + 2):
        if closes(parity, range(1 if shifted else n - w + 1), w, -1, 0):
            return w
    raise ArithmeticError("unreachable: any n - k + 1 parity-check columns are dependent")


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
    """An immutable record over the names in ``_fields``: a namedtuple of the
    class's own name, made per class, binds the positional or keyword values
    and prints them as ``Name(field=value, ...)``; compared and hashed as the
    tuple of its values (only against its own class), and refusing
    assignment and deletion with AttributeError."""

    _fields = ()

    def __init_subclass__(cls):
        cls._record = namedtuple(cls.__name__, cls._fields)

    def __init__(self, *args, **kwargs):
        self.__dict__.update(self._record(*args, **kwargs)._asdict())

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return repr(self._record(*self._values()))

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

    def _designed_ranges(self):
        """The ranges of i and j in b + t1*i + t2*j, after the guard on the
        number of designed exponents."""
        _guard("designed exponent set of {} exceeds 2^20", _DESIGNED_SET_GUARD,
               (self.delta - 1) * (self.nu + 1))
        return range(self.delta - 1), range(self.nu + 1)

    def designed_exponents(self):
        """The set {b + t1*i + t2*j : i <= delta-2, j <= nu}."""
        rows, cols = self._designed_ranges()
        return {self.b + self.t1 * i + self.t2 * j for i in rows for j in cols}

    def _designed_residues(self, order):
        """designed_exponents() modulo order, without the set: t*i mod order
        has a period dividing order, so i and j run below order."""
        rows, cols = self._designed_ranges()
        return {(self.b + self.t1 * i + self.t2 * j) % order
                for i in rows[:order] for j in cols[:order]}

    def validate(self):
        if self.emb.source != self.base_ring.field:
            raise ConditionViolatedError("embedding source must be the base field")
        if self.alpha.field != self.emb.target:
            raise ConditionViolatedError("alpha must live in the extension field")
        if self.delta < 2:
            raise ConditionViolatedError("delta must be at least 2")


# -- skew-BCH codes of the first kind ---------------------------------------------------


def _unit_brackets(field, e, bases, limit):
    """Yield (ell, i) for each base (numbered from 1) with a bracket power
    base^[i] = 1, [i] = (q^i-1)/(q-1), q = p^e, at some 1 <= i < limit: the
    least such i.  [i + 1] = q[i] + 1, so base^[i+1] = sigma(base^[i]) * base,
    and modulo N = order - 1 the step is a bijection of Z/N: [i] returns to
    [0] = 0 within N steps, a nonzero base reaches 1 by i = N, 0 never does."""
    n = field.order - 1
    kern, t = field.kernel(), e % field.degree
    for ell, base in enumerate(bases, 1):
        power = 1
        for i in range(1, min(limit, n + 1) if base else 0):
            power = kern.mul(kern.frobenius(power, t), base)
            if power == 1:
                yield ell, i
                break


def _bch1_brackets(spec, limit):
    """_unit_brackets of alpha^t1, and of alpha^t2 when nu > 0."""
    field = spec.emb.target
    ts = (spec.t1,) if spec.nu == 0 else (spec.t1, spec.t2)
    bases = [field.pow_i(spec.alpha.i, t) for t in ts]
    return _unit_brackets(field, spec.base_ring.e, bases, limit)


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
        if not self.alpha:
            raise ConditionViolatedError("alpha must be nonzero")
        hit = next(_bch1_brackets(self, self.n), None)
        if hit is not None:
            ell, i = hit
            raise ConditionViolatedError(
                f"(alpha^t{ell})^[{i}] = 1 with [i] = (q^{i}-1)/(q-1); "
                f"length {self.n} exceeds the admissible range"
            )


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
    # alpha^t depends on t modulo the order of alpha
    residues = spec._designed_residues(field.element_order(spec.alpha))
    roots = [field.pow_i(spec.alpha.i, t) for t in sorted(residues)]
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
    # before the spec's bracket scan, which runs up to min(n, field order)
    _guard("code length {} exceeds 2^16", _LENGTH_GUARD, n)
    g, designed = bch1_generator(spec)
    if g.degree > n:
        raise ConditionViolatedError(
            f"generator degree {g.degree} exceeds length {n}"
        )
    f = constacyclic_modulus_for(spec.base_ring, g, n) or left_x_multiple(g, n)
    return SkewCyclicCode(Modulus(f), g), designed


def _rs1_brackets_repeat(ring, a, n):
    """Whether a^[0], ..., a^[n-1] repeat, for a != 0: a^[j] = a^[i] exactly
    when a^[j-i] = 1, since a^[j]/a^[i] = (a^[j-i])^(q^i)."""
    return next(_unit_brackets(ring.field, ring.e, [a], n), None) is not None


def skew_rs1(ring, alpha, b, delta, n, f=None):
    """The code generated by lclm(x - alpha^(b+i) : i <= delta-2) for a
    nonzero alpha in the base field; dimension n - delta + 1 and MDS."""
    field = ring.field
    alpha = field.element(alpha)
    if not alpha:
        raise ConditionViolatedError("alpha must be nonzero")
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
    orbit = [ring.aut.apply_i(a, j) for j in range(m)]
    return rank_i([orbit[i:] + orbit[:i] for i in range(m)], ring.field) == m


def find_normal_element(ring):
    """The first power g^1, ..., g^(order-1) of the generator g of F^* the
    field is built on whose sigma-orbit is a basis over the fixed field
    (Moore matrix invertible); deterministic scan."""
    field = ring.field
    gen, cand = field._generator_i(), 1
    for _ in range(field.order - 1):
        cand = field.mul_i(cand, gen)
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
        if self.nu < 0:
            raise ConditionViolatedError("need nu >= 0")
        if gcd(n, self.t1) != 1:
            raise ConditionViolatedError(f"gcd(n, t1) = {gcd(n, self.t1)} != 1")
        if gcd(n, self.t2) >= self.delta:
            raise ConditionViolatedError(
                f"gcd(n, t2) = {gcd(n, self.t2)} >= delta = {self.delta}"
            )
        if not _is_normal(self.ext_ring, self.alpha.i):
            raise ConditionViolatedError("alpha does not generate a normal basis")


def bch2_exponent_sets(spec):
    """(S, S_closed): the designed exponent set modulo n, and its closure
    under the order-s subgroup generated by m (smallest union of cosets)."""
    n = spec.n
    m = spec.base_ring.m
    S = sorted(spec._designed_residues(n))
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
