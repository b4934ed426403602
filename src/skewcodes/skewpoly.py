"""The twisted polynomial ring F[x; sigma] with xa = sigma(a) x.

Polynomials carry left coefficients, ascending, with trailing zeros trimmed
by the constructor, so every polynomial's packed tuple _ci is trimmed.
Division, gcrd/lclm with Bezout data, right evaluation through the norm
formula, reciprocals, two-sidedness, similarity and irreducibility searches
all live here.  Coefficients are stored internally as packed field indices
so that enumeration loops stay fast; the public surface deals in
FieldElement values.

Only the right-sided algorithms are implemented.  The mirror map
mu(sum a_i x^i) = sum sigma^-i(a_i) x^i is an anti-isomorphism onto
F[x; sigma^-1]: mu(f*g) = mu(g)*mu(f) (Ore, 1933).  Left division, gcld
and lcrm are therefore right division, gcrd and lclm run in the mirror ring
on the mirrored operands, mapped back by mu^-1.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd, inf

from .errors import FieldMismatchError, _cancellable, _guard
from .fields import FieldElement, FrobeniusAut, _power, _trim, norm_exponent
from .linalg import wrap

NEG_INF = -inf


class SkewRing:
    """F[x; sigma] for a finite field F = F_{q^m} and sigma the q-Frobenius.

    ``sigma`` may be a FrobeniusAut or the exponent e with sigma(a) = a^(p^e).
    The exponent must divide the field degree d; q = p^e, m = d/e, the fixed
    field is F_q and the center is F_q[x^m].  The commutative polynomial ring
    is the configuration e = d (sigma is then the identity and m = 1).
    """

    def __init__(self, field, sigma):
        if isinstance(sigma, FrobeniusAut):
            if sigma.field != field:
                raise FieldMismatchError("automorphism belongs to a different field")
            e = sigma.e
        else:
            e = int(sigma)
        d = field.degree
        if not 1 <= e <= d or d % e != 0:
            raise ValueError(
                f"sigma exponent {e} must divide the field degree {d} (use e = d for the identity)"
            )
        self.field = field
        self.e = e
        self.aut = sigma if isinstance(sigma, FrobeniusAut) else FrobeniusAut(field, e)
        self.q = field.p ** e
        self.m = d // e                       # order of sigma
        self.is_commutative = self.m == 1
        self._mirror = _Mirror(field, -e % d)

    @property
    def sigma_order(self):
        return self.m

    def sigma(self, a, j=1):
        return self.aut.apply(a, j)

    def __eq__(self, other):
        return (
            isinstance(other, SkewRing)
            and self.field == other.field
            and self.e == other.e
        )

    def __hash__(self):
        return hash((self.field, self.e))

    def __repr__(self):
        if self.is_commutative:
            return f"SkewRing({self.field.name}[x])"
        return f"SkewRing({self.field.name}[x; a->a^{self.q}])"

    # -- polynomial constructors ---------------------------------------------

    def poly(self, coeffs):
        """Polynomial from ascending coefficients (FieldElements, or 0/1 ints)."""
        ci = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != self.field:
                    raise FieldMismatchError("coefficient from a different field")
                ci.append(c.i)
            elif c in (0, 1):
                ci.append(c)
            else:
                raise TypeError("coefficients must be FieldElements (or the ints 0/1)")
        return SkewPoly(self, ci)

    def from_indices(self, indices):
        return SkewPoly(self, indices)

    @property
    def zero(self):
        return SkewPoly(self, ())

    @property
    def one(self):
        return SkewPoly(self, (1,))

    @property
    def x(self):
        return SkewPoly(self, (0, 1))

    def x_minus(self, a):
        a = self.field.element(a)
        return SkewPoly(self, (self.field.neg_i(a.i), 1))

    def x_pow_minus(self, n, a):
        """x^n - a."""
        if n < 0:
            raise ValueError("negative powers are not defined")
        a = self.field.element(a)
        ci = [0] * (n + 1)
        ci[0] = self.field.neg_i(a.i)
        ci[n] = self.field.add_i(ci[n], 1) if n == 0 else 1
        return SkewPoly(self, ci)

    def monic_polys(self, degree):
        """Iterate all monic polynomials of the exact degree, in lexicographic
        order of the ascending coefficient sequence."""
        for tail in itertools.product(range(self.field.order), repeat=degree):
            yield SkewPoly(self, tail + (1,))

    def all_polys(self, max_degree):
        """Iterate every polynomial of degree at most max_degree (incl. zero)."""
        for ci in itertools.product(range(self.field.order), repeat=max_degree + 1):
            yield SkewPoly(self, ci)


# F[x; sigma^-1] for the kernels, which read only ``field`` and ``e``.  Not a
# SkewRing: its exponent -e mod d need not divide d (F8 with e = 1).
_Mirror = namedtuple("_Mirror", "field e")


# -- int-level kernels (ascending packed coefficient tuples) -------------------
#
# Each function binds the field's kernel (FieldSpec.kernel) once per call and
# makes one kernel call per row or polynomial: c * sigma^t(b) added for a
# whole row b (a product row or a division step), a scaling or an
# evaluation.  The polynomial constructor trims, so every polynomial's _ci
# is trimmed.


def _mul_ci(ring, a, b):
    if not a or not b:
        return ()
    kern, d, e = ring.field.kernel(), ring.field.degree, ring.e
    out = [0] * (len(a) + len(b) - 1)
    bnz = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            kern.addmul(out, i, ai, bnz, e * i % d)
    return tuple(out)


def _add_ci(ring, a, b, c=1):
    """a + c*b; c = p - 1, the packed index of -1, subtracts."""
    out = list(a) + [0] * (len(b) - len(a))
    ring.field.kernel().addmul(out, 0, c, [(j, x) for j, x in enumerate(b) if x], 0)
    return tuple(_trim(out))


def _sub_ci(ring, a, b):
    return _add_ci(ring, a, b, ring.field.p - 1)


def _right_divmod_ci(ring, f, g):
    """(s, r) with f = s*g + r and deg r < deg g."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    field = ring.field
    kern, d, e = field.kernel(), field.degree, ring.e
    dg = len(g) - 1
    r = list(f)
    s = [0] * (len(f) - dg)
    ginv = 1 if g[-1] == 1 else field.inv_i(g[-1])   # monic: no inv_i, c = lead
    tail = [(j, gj) for j, gj in enumerate(g[:dg]) if gj]
    for t in range(len(f) - 1 - dg, -1, -1):
        lead = r[t + dg]
        if lead:
            # the digit c = lead * sigma^t(ginv); r -= c x^t g below the lead
            tt = e * t % d
            s[t] = c = lead if ginv == 1 else kern.mul(lead, kern.frobenius(ginv, tt))
            kern.addmul(r, t, kern.neg(c), tail, tt)
    return tuple(_trim(s)), tuple(_trim(r[:dg]))


def _monic_ci(ring, f):
    if not f:
        raise ZeroDivisionError("the zero polynomial cannot be made monic")
    if f[-1] == 1:
        return tuple(f)
    return _scale_ci(ring, ring.field.inv_i(f[-1]), f)


def _scale_ci(ring, c, f):
    return ring.field.kernel().scale(c, f) if c else ()


def _sigma_ci(ring, f, j):
    frob, t = ring.field.kernel().frobenius, ring.e * j % ring.field.degree
    return tuple(frob(c, t) for c in f)


def _mirror_ci(ring, f):
    """mu(f) = sum sigma^-i(f_i) x^i, into the ring with twist -e.

    Applied with the mirror's twist it is the inverse map mu^-1.
    """
    frob, e, d = ring.field.kernel().frobenius, ring.e, ring.field.degree
    return tuple(frob(c, -e * i % d) for i, c in enumerate(f))


def _to_mirror(ring, *polys):
    return [_mirror_ci(ring, f._ci) for f in polys]


def _from_mirror(ring, *cis):
    return tuple(SkewPoly(ring, _mirror_ci(ring._mirror, c)) for c in cis)


def _euclid_ci(ring, a, b):
    """Right Euclid: the quotients of the remainder sequence of (a, b) and
    its last nonzero remainder."""
    qs = []
    while b:
        q, r = _right_divmod_ci(ring, a, b)
        qs.append(q)
        a, b = b, r
    return qs, a


def _fold_ci(ring, qs, x0, x1):
    """The last two rows of x_{k+1} = x_{k-1} - q_k x_k over Euclid's quotients:
    start (1, 0) gives the multipliers of a, (0, 1) those of b."""
    for q in qs:
        x0, x1 = x1, _sub_ci(ring, x0, _mul_ci(ring, q, x1))
    return x0, x1


def _gcrd_bezout_ci(ring, f1, f2):
    qs, r = _euclid_ci(ring, f1, f2)
    c = ring.field.inv_i(r[-1])
    u = _fold_ci(ring, qs, (1,), ())[0]
    v = _fold_ci(ring, qs, (), (1,))[0]
    return _scale_ci(ring, c, r), _scale_ci(ring, c, u), _scale_ci(ring, c, v)


def _lclm_ci(ring, polys):
    """Monic lclm of nonzero coefficient tuples, folded pairwise: the
    multiplier row u of the vanished remainder gives u*acc = lclm(acc, f)."""
    acc = _monic_ci(ring, polys[0])
    for f in polys[1:]:
        qs, _ = _euclid_ci(ring, acc, f)
        acc = _monic_ci(ring, _mul_ci(ring, _fold_ci(ring, qs, (1,), ())[1], acc))
    return acc


def _monic_right_divisors_ci(ring, f, degree, cancel, what="divisor"):
    """Yield (g, s) with f = s*g for every monic g of degree D, for a monic
    f of degree n and 1 <= D <= n/2, which enumerate_right_divisors,
    is_irreducible_bruteforce and self_dual_search all meet; a set cancel
    stops the "<what> search" before the next node.  The hits come in no
    fixed order; a caller wanting the ascending-coefficient order sorts by g.

    A depth-first walk fixes g_{D-1}, ..., g_0 in turn.  With E = n - D,
    coefficient n - k of s*g is s_{E-k} + sigma^E(g_{D-k}) plus terms fixed
    above depth k, so each node fixes one quotient digit by one subtraction
    from a partial sum its parent computes once.  A leaf derives the E - D
    digits left and checks the remainder
    r_c = f_c - sum_{b<=c} s_{c-b} sigma^{c-b}(g_b) from c = 0 up, stopping
    at the first nonzero one.

    Below the top, each digit runs over all N field elements; the top digit
    g_{D-1} runs over one element per orbit of the maps x -> lam x that fix
    f.  Each is a ring automorphism, x^i -> N_i(lam) x^i, and it fixes f
    when N_i(lam) = 1 wherever f_i != 0.  With N_i(lam) = lam^(k_i) and
    k_i = sum_{j<i} p^(shift of sigma^j), those lam form the subgroup Lam of
    F^* of order h = gcd(N - 1, the k_i over the support of f).  Mapping
    f = s*g and making the image monic gives f = s'*g' with
    g'_i = g_i N_i(lam) N_D(lam)^-1 and s'_i = s_i N_i(lam) sigma^i(N_D(lam)),
    so g'_{D-1} = g_{D-1} / sigma^{D-1}(lam): the orbit of a nonzero top
    digit v is the coset v Lam, as sigma^{D-1} maps Lam onto itself.  The
    top digit takes 0 and one generator power per coset, and each hit with
    g_{D-1} != 0 is yielded with its h - 1 distinct images; the subtree of
    g_{D-1} = 0 is walked in full.  When h = 1 the top digit runs over all N
    elements.  The walk visits at most sum_{k=1}^{D} N^k <= 2 N^D nodes, so
    a guard's count of N^D candidates bounds its work within a factor of 2.
    """
    field = ring.field
    kern, N = field.kernel(), field.order
    add, neg, mul, frob, dot = kern.add, kern.neg, kern.mul, kern.frobenius, kern.dot
    n, D = len(f) - 1, degree
    E = n - D
    tw = [ring.e * i % field.degree for i in range(n)]   # sigma^i's shift
    tE, low = tw[E], range(E - D - 1, -1, -1)
    g, ns = [0] * D + [1], [0] * (E + 1)   # ns[i] = -s_i for i < E; s_E = 1
    nf0 = neg(f[0])
    h, ki = N - 1, 0
    for i in range(1, n + 1):
        ki += field.p ** tw[i - 1]
        if f[i]:
            h = gcd(h, ki)
    top, images = range(N), ()
    if h > 1:
        gen, step = field._generator_i(), (N - 1) // h
        top = [0] + [kern.pow(gen, j) for j in range(step)]
        images = [_orbit_rows(kern, tw, D, E, kern.pow(gen, j * step)) for j in range(1, h)]

    def walk(k):
        # g_{D-k+1..D-1} and s_{E-k+1..E-1} are fixed: each g_{D-k} fixes
        # -s_{E-k} = sigma^E(g_{D-k}) - (f_{n-k} - the terms fixed above)
        b, lo = D - k, E - k + 1
        rest = neg(dot(f[n - k], ns[lo:E], g[D - 1:b:-1], tw[lo:E]))
        for v in _cancellable(top if k == 1 else range(N), cancel, what):
            g[b] = v
            ns[E - k] = add(rest, frob(v, tE))
            if k < D:
                yield from walk(k + 1)
                continue
            for j in low:   # the digits below the walk
                ns[j] = neg(dot(f[j + D], ns[j + D:j:-1], g[:D], tw[j + D:j:-1]))
            # the remainder's constant term f_0 - s_0 g_0 rejects most leaves
            if (mul(ns[0], v) if ns[0] and v else 0) != nf0:
                continue
            for c in range(1, D):
                if dot(f[c], ns[c::-1], g[:c + 1], tw[c::-1]):
                    break
            else:
                gt, st = tuple(g), tuple(map(neg, ns[:E])) + (1,)
                yield gt, st
                for gm, sm in images if g[D - 1] else ():
                    yield (tuple(mul(c, m) if c else 0 for c, m in zip(gt, gm)),
                           tuple(mul(c, m) if c else 0 for c, m in zip(st, sm)))

    return walk(1)


def _orbit_rows(kern, tw, D, E, lam):
    """The multipliers taking a walk hit (g, s) to its image under x -> lam x
    made monic: (N_i(lam) N_D(lam)^-1 for i <= D, N_i(lam) sigma^i(N_D(lam))
    for i <= E), with tw[i] the shift of sigma^i."""
    norms = [1]   # N_i(lam) = prod_{j<i} sigma^j(lam)
    for t in tw[:E]:
        norms.append(kern.mul(norms[-1], kern.frobenius(lam, t)))
    nD = norms[D]
    inv = kern.inv(nD)
    return ([kern.mul(c, inv) for c in norms[:D + 1]],
            [kern.mul(c, kern.frobenius(nD, t)) for c, t in zip(norms, tw)])


def _eval_ci(ring, f, a):
    """Right evaluation sum_i f_i N_i(a) on packed indices."""
    if not f or a == 0:   # N_0(a) = 1 and N_i(0) = 0 for i >= 1
        return f[0] if f else 0
    return ring.field.kernel().evaluate(f, a, ring.e)


def _shift_ci(ring, f, w):
    """x*w mod_r f for the monic f of degree n and a word w of n packed
    coefficients, as a list: w twisted by sigma and shifted one place, its
    top coefficient folded back through x^n = -sum_{j<n} f_j x^j."""
    kern, n, t = ring.field.kernel(), len(f) - 1, ring.e % ring.field.degree
    out = [0] + [kern.frobenius(c, t) for c in w]
    top = out.pop()
    if top:
        kern.addmul(out, 0, kern.neg(top), [(j, c) for j, c in enumerate(f[:n]) if c], 0)
    return out


def _circulant_rows_i(ring, f, g, count):
    """The first count rows v_f(x^i g) of the skew circulant of g modulo the
    monic f, as packed index lists: row 0 is g mod_r f and row i + 1 is
    _shift_ci of row i.  Refuses more than 2^20 entries."""
    n = len(f) - 1
    _guard("matrix of {} entries exceeds 2^20", 1 << 20, count * n)
    _, row = _right_divmod_ci(ring, g, f)
    rows = [list(row) + [0] * (n - len(row))]
    for _ in range(count - 1):
        rows.append(_shift_ci(ring, f, rows[-1]))
    return rows[:count]


class _TuplePoly:
    """An immutable polynomial as its ascending packed coefficient tuple, which
    the constructor trims: the constructor, ring check, sum, equality (within
    one class), hash, truth value and text that SkewPoly and LinearizedPoly
    share.  A subclass sets its ring-mismatch text and _term(i), the variable
    part of term i."""

    __slots__ = ("ring", "_ci")

    def __init__(self, ring, ci):
        ci = tuple(ci)
        self.ring = ring
        self._ci = ci if not ci or ci[-1] else _trim(ci)

    @property
    def coefficients(self):
        return tuple(FieldElement(self.ring.field, c) for c in self._ci)

    def _same_ring(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.ring != self.ring:
            raise FieldMismatchError(self._mismatch)
        return other

    def __add__(self, other):
        other = self._same_ring(other)
        return type(self)(self.ring, _add_ci(self.ring, self._ci, other._ci))

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.ring == other.ring and self._ci == other._ci

    def __hash__(self):
        return hash((self.ring, self._ci))

    def __bool__(self):
        return bool(self._ci)

    def __str__(self):
        ci = self._ci
        return _join_terms(
            ((ci[i], self._term(i)) for i in range(len(ci) - 1, -1, -1)), self.ring.field
        )


class SkewPoly(_TuplePoly):
    """A polynomial in a SkewRing, with left coefficients.  Immutable; the
    degree of the zero polynomial is -inf."""

    __slots__ = ()
    _mismatch = "polynomials from different rings"

    @staticmethod
    def _term(i):
        return "x" if i == 1 else f"x^{i}" if i else ""

    # -- structure -------------------------------------------------------------

    @property
    def degree(self):
        return len(self._ci) - 1 if self._ci else NEG_INF

    @property
    def is_zero(self):
        return not self._ci

    @property
    def is_monic(self):
        return bool(self._ci) and self._ci[-1] == 1

    def coefficient(self, i):
        c = self._ci[i] if 0 <= i < len(self._ci) else 0
        return FieldElement(self.ring.field, c)

    @property
    def leading_coefficient(self):
        if not self._ci:
            raise ValueError("the zero polynomial has no leading coefficient")
        return FieldElement(self.ring.field, self._ci[-1])

    @property
    def constant_coefficient(self):
        return self.coefficient(0)

    def monic(self):
        return SkewPoly(self.ring, _monic_ci(self.ring, self._ci))

    # -- arithmetic --------------------------------------------------------------

    def __sub__(self, other):
        other = self._same_ring(other)
        return SkewPoly(self.ring, _sub_ci(self.ring, self._ci, other._ci))

    def __neg__(self):
        neg = self.ring.field.neg_i
        return SkewPoly(self.ring, tuple(neg(c) for c in self._ci))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            # f * c = sum f_i sigma^i(c) x^i
            if other.field != self.ring.field:
                raise FieldMismatchError("constant from a different field")
            return SkewPoly(self.ring, _mul_ci(self.ring, self._ci, (other.i,)))
        other = self._same_ring(other)
        return SkewPoly(self.ring, _mul_ci(self.ring, self._ci, other._ci))

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.ring.field:
                raise FieldMismatchError("constant from a different field")
            return SkewPoly(self.ring, _scale_ci(self.ring, other.i, self._ci))
        return NotImplemented

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined")
        if k == 0:
            return self.ring.one
        ring = self.ring
        return SkewPoly(ring, _power(lambda a, b: _mul_ci(ring, a, b), self._ci, k))

    def times_x(self, k=1):
        """Right multiplication by x^k (a plain coefficient shift)."""
        if k < 0:
            raise ValueError("negative powers are not defined")
        return SkewPoly(self.ring, (0,) * k + self._ci)

    # -- division ----------------------------------------------------------------

    def right_divmod(self, g):
        """(s, r) with self = s*g + r, deg r < deg g.  Unique."""
        g = self._same_ring(g)
        s, r = _right_divmod_ci(self.ring, self._ci, g._ci)
        return SkewPoly(self.ring, s), SkewPoly(self.ring, r)

    def left_divmod(self, g):
        """(s, r) with self = g*s + r, deg r < deg g.  Unique."""
        g = self._same_ring(g)
        ring = self.ring
        return _from_mirror(ring, *_right_divmod_ci(ring._mirror, *_to_mirror(ring, self, g)))

    def right_rem(self, g):
        return self.right_divmod(g)[1]

    def right_divides(self, f):
        """True when self is a right divisor of f (f = h * self)."""
        f = self._same_ring(f)
        return not _right_divmod_ci(self.ring, f._ci, self._ci)[1]

    def left_divides(self, f):
        f = self._same_ring(f)
        ring = self.ring
        return not _right_divmod_ci(ring._mirror, *_to_mirror(ring, f, self))[1]

    # -- evaluation ----------------------------------------------------------------

    def __call__(self, a):
        """Right evaluation: the remainder of right division by x - a,
        computed as sum_i f_i N_i(a)."""
        a = self.ring.field.element(a)
        return FieldElement(self.ring.field, _eval_ci(self.ring, self._ci, a.i))

    def __repr__(self):
        return f"<{self.ring!r}: {self}>"


def _join_terms(terms, field):
    """The text of (coefficient, variable part) terms over field, highest
    first, joined by '+': zero terms are skipped, a coefficient 1 before a
    variable part is left out, and a constant stands alone.  A coefficient
    prints as a power of a over a primitive field, else as its digit tuple
    in parentheses; '0' when no term is left."""
    def token(c):
        return field.format_element(c) if field.primitive else f"({field.format_element(c)})"

    return "+".join(
        v if v and c == 1 else f"{token(c)}*{v}" if v else token(c) for c, v in terms if c
    ) or "0"


# -- Euclidean theory -------------------------------------------------------------


def evaluate(f, a):
    return f(a)


def _pair_ring(f1, f2, name):
    f1._same_ring(f2)
    if f1.is_zero and f2.is_zero:
        raise ValueError(f"{name}(0, 0) is undefined")
    return f1.ring


def gcrd_bezout(f1, f2):
    """(d, u, v) with d = gcrd(f1, f2) monic and d = u*f1 + v*f2.

    The multipliers come from the extended right Euclidean algorithm; when
    both inputs are nonzero and neither divides the other, deg u < deg f2.
    """
    ring = _pair_ring(f1, f2, "gcrd")
    return tuple(SkewPoly(ring, x) for x in _gcrd_bezout_ci(ring, f1._ci, f2._ci))


def gcrd(f1, f2):
    ring = _pair_ring(f1, f2, "gcrd")
    return SkewPoly(ring, _monic_ci(ring, _euclid_ci(ring, f1._ci, f2._ci)[1]))


def gcld_bezout(f1, f2):
    """(d, u, v) with d = gcld(f1, f2) monic and d = f1*u + f2*v: the mirror
    image of gcrd_bezout on the mirrored operands."""
    ring = _pair_ring(f1, f2, "gcld")
    return _from_mirror(ring, *_gcrd_bezout_ci(ring._mirror, *_to_mirror(ring, f1, f2)))


def gcld(f1, f2):
    ring = _pair_ring(f1, f2, "gcld")
    r = _euclid_ci(ring._mirror, *_to_mirror(ring, f1, f2))[1]
    return _from_mirror(ring, _monic_ci(ring._mirror, r))[0]


def _multiple_ring(polys, name):
    """The common ring of nonzero lclm/lcrm operands."""
    if not polys:
        raise ValueError(f"{name} of nothing")
    if not isinstance(polys[0], SkewPoly):   # _same_ring checks its argument against self
        raise TypeError(f"expected SkewPoly, got {type(polys[0]).__name__}")
    for f in polys:
        if polys[0]._same_ring(f).is_zero:
            raise ValueError(f"{name} requires nonzero operands")
    return polys[0].ring


def lclm(*polys):
    """Least common left multiple, monic; variadic form folds pairwise."""
    ring = _multiple_ring(polys, "lclm")
    return SkewPoly(ring, _lclm_ci(ring, [f._ci for f in polys]))


def lcrm(*polys):
    """Least common right multiple, monic: the mirror image of lclm."""
    ring = _multiple_ring(polys, "lcrm")
    return _from_mirror(ring, _lclm_ci(ring._mirror, _to_mirror(ring, *polys)))[0]


# -- reciprocals and automorphism transport -------------------------------------


def left_reciprocal(g):
    """rho_l(g) = sum_i x^(r-i) g_i = sum_i sigma^i(g_{r-i}) x^i, r = deg g.

    With sigma = id this is the classical reciprocal x^r g(1/x); in general
    it is mu^-1 of the reversed coefficient sequence.
    """
    if g.is_zero:
        raise ValueError("reciprocal of the zero polynomial")
    return SkewPoly(g.ring, _mirror_ci(g.ring._mirror, g._ci[::-1]))


def apply_automorphism(g, j=1):
    """Coefficientwise sigma^j; a ring automorphism with x*g = sigma(g)*x."""
    return SkewPoly(g.ring, _sigma_ci(g.ring, g._ci, j))


def product_eval_check(f, g, a):
    """(f*g)(a) via the case split: 0 when g(a) = 0, else f(a^g(a)) * g(a).

    Asserts agreement with direct evaluation of the product before returning.
    """
    f._same_ring(g)
    ring = f.ring
    field = ring.field
    a = field.element(a)
    ga = _eval_ci(ring, g._ci, a.i)
    if ga == 0:
        value = 0
    else:
        conj = field.mul_i(field.mul_i(ring.aut.apply_i(ga), a.i), field.inv_i(ga))
        value = field.mul_i(_eval_ci(ring, f._ci, conj), ga)
    direct = _eval_ci(ring, _mul_ci(ring, f._ci, g._ci), a.i)
    if value != direct:
        raise ArithmeticError("product evaluation identity failed; arithmetic bug")
    return FieldElement(field, value)


# -- two-sidedness, companion matrices, similarity --------------------------------


def is_two_sided(f):
    """True when Rf is a two-sided ideal: f*x and f*gamma lie in Rf, for
    gamma the field's variable, which generates F over the central F_p.
    Then f*r lies in Rf for every r, since x and gamma generate R over F_p.

    The zero polynomial and nonzero constants are two-sided.  For x^n - a this
    reduces to: m divides n and sigma(a) = a.
    """
    if f.is_zero:
        return True
    ring, ci = f.ring, f._ci
    return not any(_right_divmod_ci(ring, fr, ci)[1]
                   for fr in ((0,) + ci, _mul_ci(ring, ci, (ring.field._x,))))


def companion_matrix(f):
    """The n x n companion matrix: superdiagonal ones, last row -f_0..-f_{n-1}.
    Row i is x^(i+1) mod_r f, so the matrix is rows 0..n-1 of the skew
    circulant of x modulo f, under its 2^20-entry guard."""
    if not f.is_monic:
        raise ValueError("companion matrix needs a monic polynomial")
    if f.degree < 1:
        raise ValueError("companion matrix needs degree >= 1")
    return wrap(_circulant_rows_i(f.ring, f._ci, (0, 1), f.degree), f.ring.field)


def similar_bruteforce(f, g, cancel=None):
    """Search a witness h (nonzero, deg h < deg f) with g*h in Rf and
    gcrd(f, h) = 1.  Returns the first in lexicographic order of the
    ascending coefficients, or None.

    Such an h exists exactly when the quotient modules by f and by g are
    isomorphic: g*h in Rf makes 1 -> h a module map R/Rg -> R/Rf, and
    gcrd(f, h) = 1 makes it onto, hence bijective, both having dimension n.
    Then deg lclm(f, h) = n + deg h = deg(g*h), so lclm(f, h) = monic(g*h).
    The witness need not be monic.  (Requiring a monic witness with
    g*h = lclm(f, h) on the nose misses e.g. x-1 vs x-w over F_4.)

    Similar polynomials have equal degree, so unequal degrees raise.  At
    degree 0 (f = g = 1) both quotients are 0, and the witness is 1.
    Refuses more than 2^16 candidates N^n.
    """
    f._same_ring(g)
    if not (f.is_monic and g.is_monic):
        raise ValueError("similarity test needs monic polynomials")
    if f.degree != g.degree:
        raise ValueError("similar polynomials have equal degree")
    ring, n, fci, gci = f.ring, f.degree, f._ci, g._ci
    if n == 0:
        return ring.one
    _guard("similarity search cost {} exceeds 2^16", 1 << 16, ring.field.order, [n])
    candidates = itertools.product(range(ring.field.order), repeat=n)
    for ci in _cancellable(candidates, cancel, "similarity"):
        h = _trim(ci)
        if (h and not _right_divmod_ci(ring, _mul_ci(ring, gci, h), fci)[1]
                and len(_euclid_ci(ring, fci, h)[1]) == 1):
            return SkewPoly(ring, h)
    return None


_IRREDUCIBLE_COST_GUARD = 1 << 24


def is_irreducible_bruteforce(f, cancel=None):
    """True when every right (hence left) divisor is a unit or has deg f.

    Searches monic right divisors of degree 1..floor(n/2); cost-guarded.  No
    left search is needed: R/Rf splits into blocks over the irreducible
    two-sided factors of the bound of f, each with a single simple module,
    so every composition factor of R/Rf is isomorphic to some R/Rg with g a
    monic right divisor of f.  A reducible f has two or more composition
    factors; the smallest has dimension deg g, between 1 and n/2.
    """
    n = f.degree
    if f.is_zero or n < 1:
        raise ValueError("irreducibility applies to polynomials of degree >= 1")
    ring = f.ring
    _guard("irreducibility enumeration cost {} exceeds 2^24", _IRREDUCIBLE_COST_GUARD,
           ring.field.order, [n // 2])
    fci = _monic_ci(ring, f._ci)   # c*f = (c*s)*g: the same right divisors
    for d in range(1, n // 2 + 1):
        for _ in _monic_right_divisors_ci(ring, fci, d, cancel):
            return False
    return True


# -- the commutative companion of right evaluation --------------------------------


class CommutativePoly:
    """A sparse ordinary polynomial over a finite field (exponent -> coeff)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    def evaluate(self, a):
        a = self.field.element(a)
        acc = 0
        for e, c in self.coeffs.items():
            acc = self.field.add_i(acc, self.field.mul_i(c, self.field.pow_i(a.i, e)))
        return FieldElement(self.field, acc)

    @property
    def degree(self):
        return max(self.coeffs) if self.coeffs else NEG_INF

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CommutativePoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

    def __str__(self):
        return _join_terms(
            ((self.coeffs[e], "y" if e == 1 else f"y^{e}" if e else "")
             for e in sorted(self.coeffs, reverse=True)),
            self.field,
        )

    __repr__ = __str__


def to_commutative(f):
    """The ordinary polynomial sum_i f_i y^((q^i-1)/(q-1)); its usual
    evaluation agrees with right evaluation of f at every point."""
    q = f.ring.q
    return CommutativePoly(
        f.ring.field, {norm_exponent(q, i): c for i, c in enumerate(f._ci) if c}
    )
