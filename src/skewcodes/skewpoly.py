"""The twisted polynomial ring F[x; sigma] with xa = sigma(a) x.

Polynomials carry left coefficients (ascending, trailing zeros trimmed).
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
from math import inf

from .errors import FieldMismatchError, _cancellable, _guard
from .fields import FieldElement, FrobeniusAut, _power, norm_exponent
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

    def sigma_i(self, a, j=1):
        """sigma^j on a packed index."""
        return self.field.frob_i(a, (self.e * j) % self.field.degree)

    def in_fixed_field(self, a):
        a = self.field.element(a)
        return self.sigma_i(a.i) == a.i

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
        return SkewPoly._make(self, ci)

    def from_indices(self, indices):
        return SkewPoly._make(self, list(indices))

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
        a = self.field.element(a)
        ci = [0] * (n + 1)
        ci[0] = self.field.neg_i(a.i)
        ci[n] = self.field.add_i(ci[n], 1) if n == 0 else 1
        return SkewPoly._make(self, ci)

    def monic_polys(self, degree):
        """Iterate all monic polynomials of the exact degree, in lexicographic
        order of the ascending coefficient sequence."""
        if degree == 0:
            yield self.one
            return
        for tail in itertools.product(range(self.field.order), repeat=degree):
            yield SkewPoly(self, tail + (1,))

    def all_polys(self, max_degree):
        """Iterate every polynomial of degree at most max_degree (incl. zero)."""
        for ci in itertools.product(range(self.field.order), repeat=max_degree + 1):
            yield SkewPoly._make(self, list(ci))


# F[x; sigma^-1] for the kernels, which read only ``field`` and ``e``.  Not a
# SkewRing: its exponent -e mod d need not divide d (F8 with e = 1).
_Mirror = namedtuple("_Mirror", "field e")


# -- int-level kernels (ascending packed coefficient tuples) -------------------
#
# Each function binds the field's kernel (FieldSpec.kernel) once per call and
# makes one kernel call per row or polynomial: c * sigma^t(b) added for a
# whole row b, one division step, a scaling or an evaluation.


def _trim(ci):
    n = len(ci)
    while n and ci[n - 1] == 0:
        n -= 1
    return ci[:n]


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
    if len(f) < len(g):
        return (), tuple(f)
    field = ring.field
    kern, d, e = field.kernel(), field.degree, ring.e
    dg = len(g) - 1
    r = list(f)
    s = [0] * (len(f) - dg)
    ginv = 1 if g[-1] == 1 else field.inv_i(g[-1])   # monic candidates skip inv_i
    tail = [(j, gj) for j, gj in enumerate(g[:dg]) if gj]
    for t in range(len(f) - 1 - dg, -1, -1):
        lead = r[t + dg]
        if lead:
            s[t] = kern.divstep(r, t, lead, ginv, tail, e * t % d)
            r[t + dg] = 0
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
    """Yield (g, s) with f = s*g for every monic g of the given degree, in
    lexicographic order of the ascending coefficients of g; a set cancel
    stops the "<what> search"."""
    tails = itertools.product(range(ring.field.order), repeat=degree)
    for tail in _cancellable(tails, cancel, what):
        g = tail + (1,)
        s, r = _right_divmod_ci(ring, f, g)
        if not r:
            yield g, s


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


class SkewPoly:
    """A polynomial in a SkewRing, with left coefficients.

    Immutable.  The degree of the zero polynomial is -inf.
    """

    __slots__ = ("ring", "_ci")

    def __init__(self, ring, ci):
        self.ring = ring
        self._ci = tuple(ci)

    @classmethod
    def _make(cls, ring, ci):
        return cls(ring, _trim(tuple(ci)))

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

    @property
    def coefficients(self):
        return tuple(FieldElement(self.ring.field, c) for c in self._ci)

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

    def _same_ring(self, other):
        if not isinstance(other, SkewPoly):
            raise TypeError(f"expected SkewPoly, got {type(other).__name__}")
        if other.ring != self.ring:
            raise FieldMismatchError("polynomials from different rings")
        return other

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        other = self._same_ring(other)
        return SkewPoly(self.ring, _add_ci(self.ring, self._ci, other._ci))

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
            return SkewPoly._make(self.ring, _mul_ci(self.ring, self._ci, (other.i,)))
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
        if self.is_zero:
            return self
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

    # -- comparison and display -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and self.ring == other.ring
            and self._ci == other._ci
        )

    def __hash__(self):
        return hash((self.ring, self._ci))

    def __bool__(self):
        return bool(self._ci)

    def _coeff_token(self, c):
        field = self.ring.field
        if field.primitive:
            return field.format_element(c)
        return "(" + field.format_element(c, style="tuple") + ")"

    def __str__(self):
        ci = self._ci
        return _join_terms(
            ((ci[i], "x" if i == 1 else f"x^{i}" if i else "") for i in range(len(ci) - 1, -1, -1)),
            self._coeff_token,
        )

    def __repr__(self):
        return f"<{self.ring!r}: {self}>"


def _join_terms(terms, token):
    """The text of (coefficient, variable part) terms, highest first, joined
    by '+': zero terms are skipped, a coefficient 1 before a variable part
    is left out, and a constant is token(c) alone; '0' when none is left."""
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
    for f in polys:  # f = polys[0] first, so a non-polynomial there is a TypeError
        if SkewPoly._same_ring(polys[0], f).is_zero:
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
    return SkewPoly._make(g.ring, _mirror_ci(g.ring._mirror, g._ci[::-1]))


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
        conj = field.mul_i(field.mul_i(ring.sigma_i(ga), a.i), field.inv_i(ga))
        value = field.mul_i(_eval_ci(ring, f._ci, conj), ga)
    direct = _eval_ci(ring, _mul_ci(ring, f._ci, g._ci), a.i)
    if value != direct:
        raise ArithmeticError("product evaluation identity failed; arithmetic bug")
    return FieldElement(field, value)


# -- two-sidedness, companion matrices, similarity --------------------------------


def is_two_sided(f):
    """True when f = c x^t g with g in the center F_q[x^m].

    The zero polynomial and nonzero constants are two-sided.  For x^n - a this
    reduces to: m divides n and sigma(a) = a.
    """
    if f.is_zero:
        return True
    ring = f.ring
    field = ring.field
    ci = f._ci
    t = next(i for i, c in enumerate(ci) if c)
    inv0 = field.inv_i(ci[t])
    for i in range(t, len(ci)):
        c = ci[i]
        if not c:
            continue
        if (i - t) % ring.m:
            return False
        ratio = field.mul_i(c, inv0)
        if ring.sigma_i(ratio) != ratio:
            return False
    return True


def companion_matrix(f):
    """The n x n companion matrix: superdiagonal ones, last row -f_0..-f_{n-1}.
    Row i is x^(i+1) mod_r f, so the matrix is rows 0..n-1 of the skew
    circulant of x modulo f, under its 2^20-entry guard."""
    if not f.is_monic:
        raise ValueError("companion matrix needs a monic polynomial")
    if f.degree < 1:
        raise ValueError("companion matrix needs degree >= 1")
    return wrap(_circulant_rows_i(f.ring, f._ci, (0, 1), f.degree), f.ring.field)


_SIMILARITY_DEGREE_GUARD = 4
_SIMILARITY_FIELD_GUARD = 16


def similar_bruteforce(f, g, cancel=None):
    """Search a witness h (nonzero, deg h < deg f) with gcrd(f, h) = 1 and
    lclm(f, h) = monic(g * h).  Returns the witness or None.

    Such an h exists exactly when the quotient modules by f and by g are
    isomorphic: the witness is a representative of the image of the coset
    of 1, so its degree is below deg f, but it need not be monic and g*h is
    a least common left multiple only up to a left unit.  (Requiring a monic
    witness with g*h on the nose misses e.g. x-1 vs x-w over F_4.)

    Similar polynomials have equal degree, so unequal degrees raise.
    Guarded to deg f <= 4 and field size <= 16.
    """
    f._same_ring(g)
    if not (f.is_monic and g.is_monic):
        raise ValueError("similarity test needs monic polynomials")
    if f.degree != g.degree:
        raise ValueError("similar polynomials have equal degree")
    ring = f.ring
    n = f.degree
    if n > _SIMILARITY_DEGREE_GUARD or ring.field.order > _SIMILARITY_FIELD_GUARD:
        # limit 0: refused whatever the cost, which counts the N^n candidates
        _guard("similarity search guarded to degree <= 4 over fields of size <= 16",
               0, ring.field.order, [n])
    candidates = itertools.product(range(ring.field.order), repeat=n)
    for ci in _cancellable(candidates, cancel, "similarity"):
        h = _trim(ci)
        if not h:
            continue
        # one Euclid loop: a unit last remainder is gcrd(f, h) = 1, and the
        # same quotients fold to u with u*f = lclm(f, h)
        qs, r = _euclid_ci(ring, f._ci, h)
        if len(r) == 1:
            u = _fold_ci(ring, qs, (1,), ())[1]
            lclm_fh = _monic_ci(ring, _mul_ci(ring, u, f._ci))
            if lclm_fh == _monic_ci(ring, _mul_ci(ring, g._ci, h)):
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
    if n == 1:
        return True
    ring = f.ring
    _guard("irreducibility enumeration cost {} exceeds 2^24", _IRREDUCIBLE_COST_GUARD,
           ring.field.order, [n // 2])
    for d in range(1, n // 2 + 1):
        for _ in _monic_right_divisors_ci(ring, f._ci, d, cancel):
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

    def __eq__(self, other):
        return (
            isinstance(other, CommutativePoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __str__(self):
        return _join_terms(
            ((self.coeffs[e], "y" if e == 1 else f"y^{e}" if e else "")
             for e in sorted(self.coeffs, reverse=True)),
            self.field.format_element,
        )

    __repr__ = __str__


def to_commutative(f):
    """The ordinary polynomial sum_i f_i y^((q^i-1)/(q-1)); its usual
    evaluation agrees with right evaluation of f at every point."""
    q = f.ring.q
    return CommutativePoly(
        f.ring.field, {norm_exponent(q, i): c for i, c in enumerate(f._ci) if c}
    )
