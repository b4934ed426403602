"""Exact arithmetic in finite fields F_{p^d} with explicit defining polynomials.

Elements are coefficient vectors over F_p in the power basis of the residue
class of the variable.  A vector (c_0, ..., c_{d-1}) is packed positionally
into the integer sum(c_i * p^i); this is a packing of the canonical
coefficient form, not a discrete logarithm.  A field of at most 2^16
elements has log/antilog tables over a multiplicative generator and the d
Frobenius tables, all built with its kernel on the first operation.

No table entry costs a polynomial product.  The antilog table steps
acc -> acc*g through a split map: with P = p^ceil(d/2), acc = l + P*h
gives acc*g = (l*g) + ((P*h)*g), two tables of about p^(d/2) entries each,
added by the field's adder.  The Frobenius table a -> a^p is the antilog
table permuted, exp[log(a) * p], and the table of shift j + 1 is the table
of shift j read through it.

``FieldSpec.kernel()`` is the one arithmetic interface of a field, and
``_make_kernel``, under the field's lock, the one place that builds a table
and chooses tables or polynomials and the one adder, from p and d: XOR for
p = 2, mod p in a prime field, and for odd p with d > 1 the full digit-add
table (built by digit recursion) up to 2^12 elements, the half-width table
chunk by chunk up to 2^16 and digit by digit above.  Every kernel has the
scalar operations (``add``, ``neg``, ``mul``, ``inv``, ``pow``,
``frobenius``), behind ``FieldSpec.add_i`` .. ``frob_i`` for every p, and the row operations the ring and elimination
loops call once per row (``addmul``, ``divstep``, ``scale``, ``evaluate``,
``eliminate``).  Up to 2^16 elements it works in the log domain over
references to the tables, negation a shift by log(-1) = (order - 1)/2;
above, it builds no table of the field and works on packed indices: a
carry-less product for p = 2, a Kronecker-substitution product for odd p
(``_packed_mul``, which the table builds use too), an extended-Euclid
inverse (``_packed_inv``) and square-and-multiply powers; these two also
check the defining polynomial, by Rabin's test (``_fp_is_irreducible``).

The F_p-linear algebra on packed indices (``_fp_kernel``, ``_fp_span``)
lives here with the packing; it finds the roots in a conjugacy class and
the subfield an embedding searches, the F_p-kernel of a -> a^(p^d1) - a.
Packed indices are the working form: the loops over elements run on them,
and a FieldElement is built where a public function returns one
(``_embed_i`` and ``_restrict_i`` serve the tower routes of ``rootsets``).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from functools import partial
from math import gcd, isqrt
from operator import xor

from .errors import FieldMismatchError, GuardExceededError

_TABLE_LIMIT = 1 << 16
_ADD_TABLE_LIMIT = 1 << 12


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _fp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


# -- the defining polynomial: range guard and Rabin's irreducibility test --

def _check_modulus(p, modulus):
    """The coefficients of modulus reduced mod p, as a tuple.  Refuses p not
    prime (trial division below 2^16 decides every p < 2^32) before any
    coefficient is reduced, then a modulus not monic of degree d >= 1, and
    p^(d//2) > 2^16, the range that bounds Rabin's cost and the p-entry
    chunk tables of _packed_mul."""
    root = isqrt(max(p, 0))
    if p < 2 or any(p % f == 0 for f in range(2, min(root + 1, _TABLE_LIMIT))):
        raise ValueError(f"characteristic {p} is not prime")
    if root >= _TABLE_LIMIT:
        raise GuardExceededError(
            f"primality check of {p} needs {root - 1} trial divisors, exceeds 2^16", cost=root - 1)
    modulus = tuple(int(c) % p for c in modulus)
    if len(modulus) < 2 or modulus[-1] != 1:
        raise ValueError("defining polynomial must be monic of degree >= 1")
    d = len(modulus) - 1
    if p ** (d // 2) > _TABLE_LIMIT:
        raise GuardExceededError(f"field modulus of degree {d} over F_{p} is out of range: "
                                 f"{p}^{d // 2} exceeds 2^16", cost=p ** (d // 2))
    return modulus


def _fp_is_irreducible(p, modulus, mul):
    """Rabin's test (SIAM J. Comput. 1980): a monic modulus of degree d > 1
    is irreducible iff x^(p^d) = x and gcd(x^(p^(d/r)) - x, modulus) = 1 for
    each prime r | d.  x packs to p, mul is the packed product, the gcd is 1
    iff _packed_inv finds an inverse, and subtracting x lowers digit 1 mod p."""
    d = len(modulus) - 1
    if d == 1:
        return True
    powers = [p]   # x^(p^k), k = 0 .. d
    for _ in range(d):
        powers.append(_power(mul, powers[-1], p))
    inv = _packed_inv(p, modulus)
    return powers[d] == p and all(
        inv(a - p if a // p % p else a + (p - 1) * p)
        for a in (powers[d // r] for r in _prime_factors(d)))


def _digit_add_table(p, k):
    """Addition table of F_p^k on packed indices, by digit recursion:
    T_k[a0 + p*a'][b0 + p*b'] = (a0 + b0) % p + p*T_{k-1}[a'][b'].  Entries
    are shared int objects, taken from one list(range(p^k)).  k = 0 gives
    [[0]] without the p x p digit sums."""
    table = [[0]]
    rots = [[(a0 + b0) % p for b0 in range(p)] for a0 in range(p)] if k else []
    for level in range(1, k + 1):
        vals = list(range(p ** level))
        rows = []
        for prev in table:
            shifted = [p * t for t in prev]
            for rot in rots:
                rows.append([vals[s + c] for s in shifted for c in rot])
        table = rows
    return table


def _chunked_adder(p, d, table):
    """Addition on packed indices of F_p^d, odd p: mod p in a prime field,
    one lookup in the full digit-add table (p^d rows), two or three in the
    table of width c = d // 2 (chunks of c digits, with one middle digit when
    d is odd: a row's first p entries add single digits), and digit by
    digit when table is None."""
    P = p ** (d // 2)
    if d == 1:
        def add(a, b):
            return (a + b) % p
    elif table is None:
        def add(a, b):
            out, unit = 0, 1
            while a or b:   # (a + b) % p is the low digit of the sum
                out, a, b, unit = out + (a + b) % p * unit, a // p, b // p, unit * p
            return out
    elif len(table) == p ** d:
        def add(a, b):
            return table[a][b]
    elif d % 2 == 0:
        def add(a, b):
            return table[a % P][b % P] + P * table[a // P][b // P]
    else:
        def add(a, b):
            ah, bh = a // P, b // P
            return table[a % P][b % P] + P * (
                table[ah % p][bh % p] + p * table[ah // p][bh // p])
    return add


# -- packed arithmetic: products, inverses and negation on packed indices --

def _power(mul, a, k):
    """a^k for k >= 0 by square-and-multiply over mul, with no product by
    the initial 1 and no squaring past the top bit of k."""
    r = None
    while True:
        if k & 1:
            r = a if r is None else mul(r, a)
        k >>= 1
        if not k:
            return 1 if r is None else r
        a = mul(a, a)


def _chunk(p, d):
    """(c, p^c) for the chunk tables of F_p^d: the most digits c <= d with
    p^c <= 256, or c = 1 (a table of p entries) when p > 256."""
    c = 1
    while c < d and p ** (c + 1) <= 256:
        c += 1
    return c, p ** c


def _slot_width(p, rem):
    """The bits of a Kronecker slot for F_p[x]/(x^d - rem(x)), d = len(rem):
    every slot sum is a polynomial with nonnegative coefficients in the
    digits and in rem, so the square of the element with all digits p - 1
    holds the largest sum of every slot after the product and after each
    fold, and rem = [p - 1] * d gives a width that fits every modulus of
    degree d."""
    d = len(rem)
    sums = [(p - 1) ** 2 * min(k + 1, 2 * d - 1 - k) for k in range(2 * d - 1)]
    widest = max(sums)
    while len(sums) > d:
        high, sums = sums[d:], sums[:d] + [0] * (len(sums) - d - 1)
        for i, h in enumerate(high):
            for j, x in enumerate(rem):
                sums[i + j] += h * x
        widest = max(widest, *_fp_trim(sums))
    return widest.bit_length()


def _packed_mul(p, modulus):
    """The product of F_p[x]/(modulus) on packed indices: ``_packed_muls``
    of its degree, at the least slot width this modulus needs."""
    d = len(modulus) - 1
    w = _slot_width(p, [-m % p for m in modulus[:-1]]) if p > 2 and d > 1 else None
    return _packed_muls(p, d, w)(modulus)


def _packed_muls(p, d, w=None):
    """modulus -> the product of F_p[x]/(modulus) on packed indices, for
    monic moduli of degree d; what depends only on p, d and w is built once.

    - d = 1: a * b mod p.
    - p = 2: the carry-less product, a shifted copy of a XORed in for each
      set bit of b; the bits from x^d up are then folded back by
      x^d = m0(x), the modulus bits below x^d, until none is left.
    - odd p, d > 1: Kronecker substitution.  Each operand's digits are
      spread into w-bit slots, c digits at a time through a table of the p^c
      chunks (``_chunk``), so one int product holds the 2d - 1 coefficient
      sums.  The slots from x^d up are folded back as integers by
      x^d = r(x), r = -m0 mod p, until none is left; w holds the largest sum
      the product and the folds can reach, so no slot carries into the
      next.  The d slots are then read mod p and repacked.  w defaults to
      the width that fits every modulus of degree d (``_slot_width``).
    """
    if d == 1:
        return lambda modulus: lambda a, b: a * b % p
    if p == 2:
        mask = (1 << d) - 1

        def for_modulus(modulus):
            taps = [j for j, m in enumerate(modulus[:-1]) if m]

            def mul(a, b):
                r = 0
                while b:
                    bit = b & -b
                    r ^= a * bit
                    b ^= bit
                while r >> d:
                    h, r = r >> d, r & mask
                    for j in taps:
                        r ^= h << j
                return r
            return mul
        return for_modulus
    if w is None:
        w = _slot_width(p, [p - 1] * d)
    c, P = _chunk(p, d)
    table = [sum(v // p ** i % p << w * i for i in range(c)) for v in range(P)]
    step, top, slot = c * w, d * w, (1 << w) - 1
    low = (1 << top) - 1
    shifts = range((d - 1) * w, -1, -w)

    def spread(a):
        s = sh = 0
        while a:
            a, v = divmod(a, P)
            s |= table[v] << sh
            sh += step
        return s

    def for_modulus(modulus):
        fold = sum(-m % p << w * j for j, m in enumerate(modulus[:-1]))

        def mul(a, b):
            r = spread(a) * spread(b)
            while r >> top:
                r = (r & low) + (r >> top) * fold
            out = 0
            for sh in shifts:
                out = out * p + (r >> sh & slot) % p
            return out
        return mul
    return for_modulus


def _packed_inv(p, modulus):
    """The inverse of a packed index of F_p[x]/(modulus), by the extended
    Euclidean algorithm in F_p[x] with one leading term cleared per step
    (Hankerson, Menezes and Vanstone, *Guide to Elliptic Curve
    Cryptography*, Algorithm 2.48): u, v start at a and the modulus with
    g1 a = u and g2 a = v (mod modulus), the one of higher degree loses its
    leading term to a shifted multiple of the other, and when u is a
    constant c, a^(-1) = g1 / c; if u reaches 0, gcd(a, modulus) = v is not
    constant and 0 is returned.  For p = 2 the polynomials are the packed
    ints and a step is two XORs; for odd p they are digit lists.  No field
    product is made; a prime field inverts by a^(p - 2) mod p.
    """
    d = len(modulus) - 1
    if d == 1:
        return lambda a: pow(a, p - 2, p)
    if p == 2:
        m = sum(bit << j for j, bit in enumerate(modulus))

        def inv(a):
            u, v, g1, g2 = a, m, 1, 0
            while u > 1:
                j = u.bit_length() - v.bit_length()
                if j < 0:
                    u, v, g1, g2, j = v, u, g2, g1, -j
                u ^= v << j
                g1 ^= g2 << j
            return g1 if u else 0
        return inv

    def inv(a):
        u, v, g1, g2 = [], list(modulus), [1], []
        while a:
            a, x = divmod(a, p)
            u.append(x)
        while len(u) > 1:
            j = len(u) - len(v)
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            c = u[-1] * pow(v[-1], p - 2, p) % p
            u = _fp_trim(u[:j] + [(x - c * y) % p for x, y in zip(u[j:], v)])
            g1 += [0] * (len(g2) + j - len(g1))
            for i, y in enumerate(g2, j):
                g1[i] = (g1[i] - c * y) % p
            _fp_trim(g1)
        if not u:
            return 0
        c = pow(u[0], p - 2, p)
        out = 0
        for x in reversed(g1):
            out = out * p + x * c % p
        return out
    return inv


def _packed_neg(p, d):
    """Negation on packed indices: the identity for p = 2, -a mod p in a
    prime field, and otherwise c digits at a time through a table of the p^c
    chunks (``_chunk``)."""
    if p == 2:
        return lambda a: a
    if d == 1:
        return lambda a: -a % p
    c, P = _chunk(p, d)
    table = [sum(-(v // p ** i) % p * p ** i for i in range(c)) for v in range(P)]

    def neg(a):
        out, unit = 0, 1
        while a:
            a, v = divmod(a, P)
            out += table[v] * unit
            unit *= P
        return out
    return neg


class _TableKernel:
    """Row operations of a field of at most 2^16 elements, in the log domain:
    c * sigma^t(x) is exp[log c + log frob_t[x]].  exp (length 2n), log and
    frob (the d Frobenius tables by shift) are the field's own lists, all
    built by FieldSpec._make_kernel, n = order - 1 and half = log(-1).
    ``add`` is the field's adder from _make_kernel; for p = 2 it is
    operator.xor, which the subclass inlines in its loops.

    The scalars c, lead, ginv, the point a and the arguments of mul, inv
    and pow are nonzero, ``pairs`` lists (j, x) with x nonzero, the power k
    is nonnegative and the Frobenius shift t is below the degree.  Each row
    operation is one call per row or polynomial.
    """

    def __init__(self, field, add):
        self.field, self.add = field, add
        self.exp, self.log, self.frob = field._exp, field._log, field._frob_tables
        self.n = field.order - 1
        self.half = self.n // 2 if field.p != 2 else 0

    def neg(self, a):
        return self.exp[self.log[a] + self.half] if a else 0

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        return self.exp[self.n - self.log[a]]

    def pow(self, a, k):
        return self.exp[self.log[a] * k % self.n]

    def frobenius(self, a, t):
        """sigma^t(a) = a^(p^t), from the table of shift t."""
        return self.frob[t][a]

    def scale(self, c, f):
        """The tuple of c * x over f."""
        exp, log = self.exp, self.log
        lc = log[c]
        return tuple(exp[lc + log[x]] if x else 0 for x in f)

    def addmul(self, out, off, c, pairs, t):
        """out[off + j] += c * sigma^t(x) for (j, x) in pairs."""
        exp, log, add = self.exp, self.log, self.add
        table = self.frob[t]
        lc = log[c]
        for j, x in pairs:
            out[off + j] = add(out[off + j], exp[lc + log[table[x]]])

    def divstep(self, r, off, lead, ginv, pairs, t):
        """One step of right division: the quotient digit
        c = lead * sigma^t(ginv), returned after r[off + j] -= c * sigma^t(x)."""
        exp, log, n, add = self.exp, self.log, self.n, self.add
        table = self.frob[t]
        lc = (log[lead] + log[table[ginv]]) % n
        ln = (lc + self.half) % n   # log of -c
        for j, x in pairs:
            r[off + j] = add(r[off + j], exp[ln + log[table[x]]])
        return exp[lc]

    def evaluate(self, f, a, e):
        """sum_i f_i N_i(a) for sigma = frob_e, N_i(a) = prod_{j<i} sigma^j(a)."""
        exp, log, n, add, frob = self.exp, self.log, self.n, self.add, self.frob
        d = self.field.degree
        acc, lcur = f[0], 0   # lcur = log N_i(a)
        for i in range(1, len(f)):
            t = e * (i - 1) % d
            lcur = (lcur + log[frob[t][a]]) % n
            if f[i]:
                acc = add(acc, exp[log[f[i]] + lcur])
        return acc

    def eliminate(self, m, r, col):
        """Scale row r of m to a unit pivot at col and clear col in every
        other row, in place."""
        exp, log, n, add = self.exp, self.log, self.n, self.add
        lc = -log[m[r][col]] % n
        if lc:
            m[r] = [exp[lc + log[v]] if v else 0 for v in m[r]]
        prow = [(k, log[v]) for k, v in enumerate(m[r]) if v]
        for i, row in enumerate(m):
            if i != r and row[col]:
                lf = (log[row[col]] + self.half) % n   # log of -row[col]
                for k, lw in prow:
                    row[k] = add(row[k], exp[lf + lw])


class _XorKernel(_TableKernel):
    """The table kernel for p = 2: addition is XOR and -1 = 1.  The row
    loops inline the XOR; ``evaluate`` is the parent's with add = xor."""

    def addmul(self, out, off, c, pairs, t):
        exp, log = self.exp, self.log
        table = self.frob[t]
        lc = log[c]
        for j, x in pairs:
            out[off + j] ^= exp[lc + log[table[x]]]

    def divstep(self, r, off, lead, ginv, pairs, t):
        exp, log = self.exp, self.log
        table = self.frob[t]
        lc = (log[lead] + log[table[ginv]]) % self.n
        for j, x in pairs:
            r[off + j] ^= exp[lc + log[table[x]]]
        return exp[lc]

    def eliminate(self, m, r, col):
        exp, log, n = self.exp, self.log, self.n
        lc = -log[m[r][col]] % n
        if lc:
            m[r] = [exp[lc + log[v]] if v else 0 for v in m[r]]
        prow = [(k, log[v]) for k, v in enumerate(m[r]) if v]
        for i, row in enumerate(m):
            if i != r and row[col]:
                lf = log[row[col]]
                for k, lw in prow:
                    row[k] ^= exp[lf + lw]


class _PolyKernel:
    """The same operations above the table limit, on packed indices and with
    no table of the field: ``mul`` is the field's packed product
    (``_packed_mul``), ``inv`` the extended Euclidean algorithm of
    ``_packed_inv``, which makes no product, and a power and
    sigma^t(a) = a^(p^t) are square-and-multiply over ``mul``.  ``neg`` is
    the identity for p = 2 (``_packed_neg``) and ``add`` the field's adder
    from _make_kernel."""

    def __init__(self, field, add):
        self.field, self.add, self.mul = field, add, field._mul
        self.inv = _packed_inv(field.p, field.modulus)
        self.neg = _packed_neg(field.p, field.degree)

    def pow(self, a, k):
        return _power(self.mul, a, k)

    def frobenius(self, a, t):
        return _power(self.mul, a, self.field.p ** t) if t and a else a

    def scale(self, c, f):
        mul = self.mul
        return tuple(mul(c, x) if x else 0 for x in f)

    def addmul(self, out, off, c, pairs, t):
        mul, add, frob = self.mul, self.add, self.frobenius
        for j, x in pairs:
            y = frob(x, t)
            out[off + j] = add(out[off + j], y if c == 1 else mul(c, y))

    def divstep(self, r, off, lead, ginv, pairs, t):
        c = self.mul(lead, self.frobenius(ginv, t))
        self.addmul(r, off, self.neg(c), pairs, t)
        return c

    def evaluate(self, f, a, e):
        mul, add, frob, d = self.mul, self.add, self.frobenius, self.field.degree
        acc, cur = f[0], 1   # cur = N_i(a)
        for i in range(1, len(f)):
            cur = mul(cur, frob(a, e * (i - 1) % d))
            if f[i]:
                acc = add(acc, mul(f[i], cur))
        return acc

    def eliminate(self, m, r, col):
        c = self.inv(m[r][col])
        if c != 1:
            m[r] = list(self.scale(c, m[r]))
        pairs = [(k, v) for k, v in enumerate(m[r]) if v]
        for i, row in enumerate(m):
            if i != r and row[col]:
                self.addmul(row, 0, self.neg(row[col]), pairs, 0)


class FieldSpec:
    """An explicit finite field F_{p^d} with a chosen defining polynomial.

    Parameters
    ----------
    p
        Prime characteristic.
    modulus
        Monic defining polynomial of degree d as ascending coefficients over
        F_p, e.g. (1, 1, 1) for x^2 + x + 1.  Checked irreducible at
        construction by Rabin's test; p^(d//2) > 2^16 is refused with
        GuardExceededError.
    primitive
        Whether the residue class of the variable generates the
        multiplicative group.  Verified at construction; a primitive field
        has at most 2^16 elements.
    name
        Optional display name.
    """

    def __init__(self, p, modulus, primitive=False, name=None):
        modulus = _check_modulus(p, modulus)
        # the packed product that Rabin's test, the table build and the
        # polynomial kernel share; a plain attribute, since a cached_property
        # writes through __dict__, which slows every later attribute load
        self._mul = _packed_mul(p, modulus)
        if not _fp_is_irreducible(p, modulus, self._mul):
            raise ValueError(f"defining polynomial {modulus} is reducible over F_{p}")
        self.p = p
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.order = p ** self.degree
        self.primitive = bool(primitive)
        self.name = name or f"F{p}^{self.degree}"
        # the variable, packed: x itself, or for d = 1 its residue -m_0
        self._x = p if self.degree > 1 else -modulus[0] % p
        if primitive:
            if self.order > _TABLE_LIMIT:
                raise GuardExceededError(
                    f"log tables limited to 2^16 elements, field has {self.order}"
                )
            if self._x == 0:   # the modulus is x
                raise ValueError(f"{self.name}: primitive flag set but the generator is 0")
            order = self._element_order_raw(self._x)
            if order != self.order - 1:
                raise ValueError(
                    f"{self.name}: primitive flag set but the generator has "
                    f"order {order}, not {self.order - 1}"
                )
        # the tables, all built by _make_kernel up to 2^16 elements
        self._lock = threading.Lock()
        self._exp = None       # antilog table, length 2*(order-1)
        self._log = None       # log table, log[0] unused
        self._gen_index = None
        self._frob_tables = [None] * self.degree
        self._add_table = None  # the digit-add table the adder reads (odd p, d > 1)
        self._kernel = None
        self._zero = FieldElement(self, 0)
        self._one = FieldElement(self, 1)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"FieldSpec({self.name}, p={self.p}, modulus={self.modulus})"

    # -- packing ------------------------------------------------------------

    def _pack(self, coeffs):
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c
        return idx

    def coeffs_of(self, index):
        out = []
        p = self.p
        for _ in range(self.degree):
            out.append(index % p)
            index //= p
        return tuple(out)

    # -- construction of elements -------------------------------------------

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    @property
    def gen(self):
        """The residue class of the variable."""
        return FieldElement(self, self._x)

    def element(self, value):
        """Build an element from an int index, coefficient iterable, or element."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(f"element of {value.field.name}, not {self.name}")
            return value
        if isinstance(value, int):
            if not 0 <= value < self.order:
                raise ValueError(f"index {value} out of range for {self.name}")
            return FieldElement(self, value)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.degree - len(coeffs))
        return FieldElement(self, self._pack(coeffs))

    def from_coeffs(self, coeffs):
        return self.element(list(coeffs))

    def elements(self):
        for i in range(self.order):
            yield FieldElement(self, i)

    # -- raw arithmetic (no tables) ------------------------------------------

    def _element_order_raw(self, a):
        n = self.order - 1
        order = n
        for q in _prime_factors(n):
            while order % q == 0 and _power(self._mul, a, order // q) == 1:
                order //= q
        return order

    def _powers(self, g, n, add):
        """[g^0, ..., g^(n-1)], stepping acc -> acc*g through a split map.

        With P = p^ceil(d/2) and acc = l + P*h, acc*g = add(lo[l], hi[h])
        where lo[l] = l*g and hi[h] = (P*h)*g: 2*p^(d/2) packed products in
        all, summed by the field's adder.
        """
        P = self.p ** ((self.degree + 1) // 2)
        mul = self._mul
        lo = [mul(a, g) for a in range(P)]
        hi = [mul(P * a, g) for a in range(self.order // P)]
        out = [0] * n
        acc = 1
        for k in range(n):
            out[k] = acc
            acc = add(lo[acc % P], hi[acc // P])
        return out

    def kernel(self):
        """The kernel, built once under the lock: a _TableKernel over the log
        and Frobenius tables up to 2^16 elements, a _PolyKernel above,
        either with the one adder _make_kernel chooses from p and d (see the
        module docstring)."""
        if self._kernel is None:
            with self._lock:
                if self._kernel is None:
                    self._kernel = self._make_kernel()
        return self._kernel

    def _make_kernel(self):
        p, d, n = self.p, self.degree, self.order - 1
        big = self.order > _TABLE_LIMIT
        if p == 2:
            add = xor
        else:   # above 2^16 elements no table: digit by digit
            if d > 1 and not big:
                width = d if self.order <= _ADD_TABLE_LIMIT else d // 2
                self._add_table = _digit_add_table(p, width)
            add = _chunked_adder(p, d, self._add_table)
        if big:
            return _PolyKernel(self, add)
        if self.primitive:   # checked at construction
            gen = self._x
        else:   # element 1 has order 1, so it is picked only in F_2
            gen = next(a for a in range(1, self.order) if self._element_order_raw(a) == n)
        seq = self._powers(gen, n, add)
        log = [0] * self.order
        for k, a in enumerate(seq):
            log[a] = k
        exp = seq + seq
        # a^p = exp[log(a) * p], and a^(p^(j+1)) = (a^(p^j))^p: every entry
        # is the exp table's own int
        ident = [exp[k] for k in log]
        step = [exp[k * p % n] for k in log]
        ident[0] = step[0] = 0
        frob = [ident]
        for _ in range(1, d):
            frob.append(list(map(step.__getitem__, frob[-1])))
        self._gen_index, self._log, self._exp, self._frob_tables = gen, log, exp, frob
        return (_XorKernel if p == 2 else _TableKernel)(self, add)

    # -- scalar arithmetic (int indices) ---------------------------------------

    def add_i(self, a, b):
        return (self._kernel or self.kernel()).add(a, b)

    def neg_i(self, a):
        return (self._kernel or self.kernel()).neg(a)

    def sub_i(self, a, b):
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a, b):
        if a == 0 or b == 0:
            return 0
        return (self._kernel or self.kernel()).mul(a, b)

    def inv_i(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        return (self._kernel or self.kernel()).inv(a)

    def div_i(self, a, b):
        return self.mul_i(a, self.inv_i(b))

    def pow_i(self, a, k):
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return (self._kernel or self.kernel()).pow(a, k % (self.order - 1))

    def frob_i(self, a, j):
        """a^(p^j); j is reduced modulo the field degree.  Above the table
        limit each call is one power and no table is built."""
        return (self._kernel or self.kernel()).frobenius(a, j % self.degree)

    def log_i(self, a):
        """Discrete log with respect to the designated primitive element."""
        if not self.primitive:
            raise ValueError(f"{self.name} has no designated primitive element")
        if a == 0:
            raise ValueError("log of zero")
        return (self._kernel or self.kernel()).log[a]

    def element_order(self, a):
        a = self.element(a)
        if a.i == 0:
            raise ValueError("zero has no multiplicative order")
        return self._element_order_raw(a.i)

    # -- formatting -----------------------------------------------------------

    def format_element(self, a, style="auto"):
        """Render an element index: 'a^k' powers when primitive, else a tuple."""
        if style == "auto":
            style = "power" if self.primitive else "tuple"
        if style == "power":
            if a == 0:
                return "0"
            k = self.log_i(a)
            if k == 0:
                return "1"
            if k == 1:
                return "a"
            return f"a^{k}"
        return ",".join(str(c) for c in self.coeffs_of(a))


class FieldElement:
    """An element of a FieldSpec; immutable, with exact operator arithmetic."""

    __slots__ = ("field", "i")

    def __init__(self, field, index):
        self.field = field
        self.i = index

    @property
    def coeffs(self):
        return self.field.coeffs_of(self.i)

    def _same(self, other):
        if other.field != self.field:
            raise FieldMismatchError(
                f"cannot mix elements of {self.field.name} and {other.field.name}"
            )
        return other

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        other = self._same(other)
        return FieldElement(self.field, self.field.add_i(self.i, other.i))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        other = self._same(other)
        return FieldElement(self.field, self.field.sub_i(self.i, other.i))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_i(self.i))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        other = self._same(other)
        return FieldElement(self.field, self.field.mul_i(self.i, other.i))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        other = self._same(other)
        return FieldElement(self.field, self.field.div_i(self.i, other.i))

    def __pow__(self, k):
        return FieldElement(self.field, self.field.pow_i(self.i, k))

    def inverse(self):
        return FieldElement(self.field, self.field.inv_i(self.i))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.i == other.i
        )

    def __hash__(self):
        return hash((self.field.p, self.field.modulus, self.i))

    def __bool__(self):
        return self.i != 0

    def __str__(self):
        return self.field.format_element(self.i)

    def __repr__(self):
        return f"<{self.field.name}: {self}>"


class FrobeniusAut:
    """The automorphism a -> a^(p^e) of a FieldSpec.

    For ring-forming automorphisms e divides d, giving q = p^e, order
    m = d/e, and fixed field F_q.  The identity is represented by e = d.
    Arbitrary exponents are accepted so that relative automorphisms of a
    field tower can be expressed; then the order is d/gcd(e, d).
    """

    def __init__(self, field, e):
        if e < 0:
            raise ValueError("Frobenius exponent must be nonnegative")
        self.field = field
        self.e = e
        d = field.degree
        j = e % d
        self.order = d // gcd(j, d) if j else 1

    @property
    def q(self):
        return self.field.p ** self.e

    @property
    def fixed_degree(self):
        """Degree over F_p of the fixed field."""
        d = self.field.degree
        j = self.e % d
        return gcd(j, d) if j else d

    def apply(self, a, j=1):
        return FieldElement(self.field, self.apply_i(self.field.element(a).i, j))

    def apply_i(self, a, j=1):
        return self.field.frob_i(a, (self.e * j) % self.field.degree)

    def fixes(self, a):
        a = self.field.element(a)
        return self.apply_i(a.i) == a.i

    def __eq__(self, other):
        return (
            isinstance(other, FrobeniusAut)
            and self.field == other.field
            and self.e % self.field.degree == other.e % other.field.degree
        )

    def __hash__(self):
        return hash((self.field, self.e % self.field.degree))

    def __repr__(self):
        return f"FrobeniusAut({self.field.name}, a -> a^{self.field.p}^{self.e})"


def frobenius_power(aut, j, a):
    """Apply sigma^j; j is reduced modulo the automorphism order."""
    return aut.apply(a, j % aut.order)


def norm_exponent(q, i):
    """The exponent (q^i - 1)/(q - 1), so that N_i(a) = a^norm_exponent(q, i)."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if i < 0:
        raise ValueError("i must be nonnegative")
    return (q ** i - 1) // (q - 1)


def norm(aut, i, a):
    """The i-th norm N_i(a) = prod_{j<i} sigma^j(a), by the recurrence."""
    field = aut.field
    a = field.element(a).i
    acc = 1
    for j in range(i):
        acc = field.mul_i(acc, aut.apply_i(a, j))
    return FieldElement(field, acc)


def norm_via_exponent(aut, i, a):
    """Closed form N_i(a) = a^((q^i - 1)/(q - 1)); must agree with norm()."""
    a = aut.field.element(a)
    return FieldElement(aut.field, aut.field.pow_i(a.i, norm_exponent(aut.q, i)))


def conjugate(aut, a, c):
    """The twisted conjugate sigma(c) * a * c^(-1) for nonzero c."""
    a = aut.field.element(a)
    c = aut.field.element(c)
    if not c:
        raise ZeroDivisionError("conjugation requires nonzero c")
    f = aut.field
    return FieldElement(f, f.mul_i(f.mul_i(aut.apply_i(c.i), a.i), f.inv_i(c.i)))


def conjugacy_class(aut, a):
    """The conjugacy class of a under c -> sigma(c) a c^(-1), as a frozenset.

    With sigma(c) = c^s, s = p^(e mod d), the conjugate is a c^(s - 1).
    """
    f = aut.field
    a = f.element(a)
    if not a:
        return frozenset([a])
    kern = f.kernel()
    mul, pow_, k = kern.mul, kern.pow, f.p ** (aut.e % f.degree) - 1
    return frozenset(FieldElement(f, i) for i in {mul(a.i, pow_(c, k)) for c in range(1, f.order)})


def conjugacy_classes(aut):
    """All conjugacy classes, the zero class first, the rest sorted."""
    f = aut.field
    seen = {0}
    out = [conjugacy_class(aut, f.zero)]
    for i in range(1, f.order):
        if i in seen:
            continue
        cls = conjugacy_class(aut, FieldElement(f, i))
        seen.update(e.i for e in cls)
        out.append(cls)
    return out


def _fp_kernel(field, cols, domain):
    """F_p-basis of the kernel of an F_p-linear map, as packed indices,
    from the images cols[t] of the basis vectors domain[t].

    A packed index is its digit vector (a bitmask for p = 2).  Each image is
    reduced by its top digit against an echelon basis of the earlier ones,
    carrying its preimage along; an image that reaches 0 leaves its
    preimage as a kernel vector.  A top digit lam is cleared by adding the
    echelon pair scaled by -lam, through the field kernel.
    """
    p = field.p
    kern = field.kernel()
    add, scale = kern.add, kern.scale
    powers = [p ** t for t in range(field.degree)]
    top = int.bit_length if p == 2 else partial(bisect_right, powers)
    echelon = {}   # 1 + top digit -> (image with top digit 1, preimage)
    kernel = []
    for v, pre in zip(cols, domain):
        while v:
            k = top(v)
            lead = v // powers[k - 1]
            if k not in echelon:
                if lead != 1:
                    v, pre = scale(pow(lead, p - 2, p), (v, pre))
                echelon[k] = v, pre
                break
            bv, bpre = echelon[k] if lead == p - 1 else scale(p - lead, echelon[k])
            v, pre = add(v, bv), add(pre, bpre)
        else:
            kernel.append(pre)
    return kernel


def _fp_span(field, basis):
    """Every F_p-combination of the packed vectors in basis, 0 first."""
    kern = field.kernel()
    add, units = kern.add, range(1, field.p)
    span = [0]
    for v in basis:
        multiples = kern.scale(v, units)
        span += [add(s, w) for s in span for w in multiples]
    return span


class FieldEmbedding:
    """An embedding F_{p^d1} -> F_{p^d2} with d1 | d2.

    The image of the source generator is the root of the source defining
    polynomial in the target with the lexicographically least coefficient
    sequence, so the embedding is deterministic.  The roots lie in the
    subfield of order p^d1, the F_p-kernel of a -> a^(p^d1) - a, and only
    its span is searched.  When source and target are the same spec the
    identity map is used.  Every element is embedded, and every candidate
    checked, by polynomial evaluation through the target's kernel.  The
    span and the inverse map have p^d1 entries each, so the source order
    is bounded; ``_embed_i`` and ``_restrict_i`` map packed indices.
    """

    _SOURCE_LIMIT = 1 << 20

    def __init__(self, source, target):
        if source.p != target.p:
            raise ValueError("embedding requires equal characteristic")
        if target.degree % source.degree != 0:
            raise ValueError(
                f"degree {source.degree} does not divide {target.degree}"
            )
        if source.order > self._SOURCE_LIMIT:
            raise GuardExceededError(
                f"embedding limited to sources of 2^20 elements, source has {source.order}"
            )
        self.source = source
        self.target = target
        if source == target:
            self.generator_image = target.gen
        else:
            self.generator_image = self._find_root()
        self._inverse = None

    def _find_root(self):
        t, mod = self.target, self.source.modulus
        kern = t.kernel()
        basis = [t.p ** i for i in range(t.degree)]
        images = [kern.add(kern.pow(b, self.source.order), kern.neg(b)) for b in basis]
        # evaluate reads a nonzero point; at 0 the value is the constant term
        roots = [a for a in _fp_span(t, _fp_kernel(t, images, basis))
                 if (kern.evaluate(mod, a, 0) if a else mod[0]) == 0]
        if not roots:
            raise ArithmeticError("no root found; defining polynomial not split")
        return FieldElement(t, min(roots, key=t.coeffs_of))

    @property
    def relative_degree(self):
        return self.target.degree // self.source.degree

    def _embed_i(self, a):
        return self.target.kernel().evaluate(self.source.coeffs_of(a), self.generator_image.i, 0)

    def _restrict_i(self, b):
        """The source index of b, or None when b is not in the subfield."""
        if self._inverse is None:   # idempotent; a benign race just rebuilds the same dict
            self._inverse = {self._embed_i(a): a for a in range(self.source.order)}
        return self._inverse.get(b)

    def embed(self, a):
        return FieldElement(self.target, self._embed_i(self.source.element(a).i))

    def restrict(self, b):
        """Invert the embedding; returns None when b is not in the subfield."""
        idx = self._restrict_i(self.target.element(b).i)
        return None if idx is None else FieldElement(self.source, idx)

    def __repr__(self):
        return f"FieldEmbedding({self.source.name} -> {self.target.name})"


def relative_automorphisms(emb):
    """The automorphisms of the target fixing the embedded source pointwise.

    Returns [tau_0, ..., tau_{s-1}] with tau_l : a -> a^(p^(d1*l)) and
    tau_0 the identity (represented with exponent d2).
    """
    d1 = emb.source.degree
    d2 = emb.target.degree
    s = d2 // d1
    out = [FrobeniusAut(emb.target, d2)]
    for level in range(1, s):
        out.append(FrobeniusAut(emb.target, d1 * level))
    return out


# -- presets ------------------------------------------------------------------

_PRESET_PARAMS = {
    # name: (p, ascending modulus coefficients, primitive)
    "F2": (2, (1, 1), True),
    "F4": (2, (1, 1, 1), True),
    "F8": (2, (1, 1, 0, 1), True),
    "F9": (3, (2, 1, 1), True),
    "F16": (2, (1, 1, 0, 0, 1), True),
    "F27": (3, (1, 2, 0, 1), True),
    "F2_6": (2, (1, 1, 0, 0, 0, 0, 1), True),
    "F2_12": (2, (1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1), True),
}

_preset_cache = {}
_preset_lock = threading.Lock()


def get_field(name):
    """Return the named preset field (cached singleton)."""
    key = name.upper().replace("^", "_")
    if key == "F64":
        key = "F2_6"
    if key not in _PRESET_PARAMS:
        raise KeyError(f"unknown field preset {name!r}; choices: {sorted(_PRESET_PARAMS)}")
    with _preset_lock:
        if key not in _preset_cache:
            p, modulus, primitive = _PRESET_PARAMS[key]
            _preset_cache[key] = FieldSpec(p, modulus, primitive=primitive, name=key)
        return _preset_cache[key]


def preset_names():
    return sorted(_PRESET_PARAMS)


def find_irreducible(p, degree):
    """Lexicographically first monic irreducible polynomial of the degree,
    by the checks FieldSpec makes.  The candidates' products share one
    ``_packed_muls``, built once for p and the degree."""
    _check_modulus(p, (0,) * degree + (1,))
    muls = _packed_muls(p, degree)
    for idx in range(p ** degree):
        cand = tuple(idx // p ** i % p for i in range(degree)) + (1,)
        if _fp_is_irreducible(p, cand, muls(cand)):
            return cand
    raise ArithmeticError("no irreducible polynomial found")
