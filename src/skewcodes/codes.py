"""Skew circulants, skew-cyclic and skew-constacyclic codes, duality,
check polynomials, divisor enumeration, and the classical circulant theory
as the sigma = id configuration.

A length-n word (c_0, ..., c_{n-1}) corresponds to the coset of the
polynomial sum c_i x^i modulo the left ideal of the modulus f; codes are the
row spaces of skew circulants, whose row i is x^i * g reduced by right
division modulo f.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import (
    GuardExceededError,
    NotARightDivisorError,
    NotConstacyclicError,
    NotTwoSidedError,
    SearchCancelledError,
)
from .fields import FieldElement
from .linalg import is_zero_matrix_i, mat_mul_i, rank_i, wrap
from .rootsets import _lift, _vandermonde_i, _wedderburn_roots_i
from .skewpoly import (
    SkewPoly,
    _mirror_ci,
    _monic_right_divisors_ci,
    _mul_ci,
    _right_divmod_ci,
    _trim,
    apply_automorphism,
    is_two_sided,
    left_reciprocal,
)


class Modulus:
    """A monic degree-n modulus f, with derived structure flags.

    ``constacyclic_constant`` is a when f = x^n - a with a nonzero, else
    None; ``two_sided`` is recomputed from f, never user-set.
    """

    def __init__(self, f):
        if not f.is_monic or f.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.ring = f.ring
        self.poly = f
        self.n = f.degree
        self.two_sided = is_two_sided(f)
        a = None
        ci = f._ci
        if ci[0] and all(c == 0 for c in ci[1:-1]):
            a = FieldElement(self.ring.field, self.ring.field.neg_i(ci[0]))
        self.constacyclic_constant = a

    @property
    def is_constacyclic(self):
        return self.constacyclic_constant is not None

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"Modulus({self.poly})"


def _as_modulus(f):
    return f if isinstance(f, Modulus) else Modulus(f)


def _circulant_rows_i(ring, f_ci, g_ci, count):
    """The first count rows v_f(x^i g) of the skew circulant of g modulo the
    monic f, as packed index lists; row 0 is g reduced mod f.  While
    i + deg g < n, row i is sigma^i(g) shifted i places.  Refuses more than
    2^20 entries."""
    n = len(f_ci) - 1
    if count * n > 1 << 20:
        raise GuardExceededError(f"code matrix of {count * n} entries exceeds 2^20", cost=count * n)
    field = ring.field
    kern = field.kernel()
    _, row = _right_divmod_ci(ring, g_ci, f_ci)
    rows = [list(row) + [0] * (n - len(row))]
    # x^n = f - sum_{j<n} f_j x^j in the coset: add top * (-f_j)
    negf = [(j, field.neg_i(fj)) for j, fj in enumerate(f_ci[:-1]) if fj]
    for _ in range(count - 1):
        nxt = [0] * (n + 1)   # x * row = sum sigma(c_j) x^(j+1)
        kern.addmul(nxt, 1, 1, [(j, c) for j, c in enumerate(rows[-1]) if c],
                    ring.e % field.degree)
        top = nxt.pop()
        if top:
            kern.addmul(nxt, 0, top, negf, 0)
        rows.append(nxt)
    return rows[:count]


def _codewords(field, rows, n, cancel=None):
    """Yield the word u * G for each message u, in lexicographic order."""
    kern = field.kernel()
    pairs = [[(j, c) for j, c in enumerate(row) if c] for row in rows]
    for msg in itertools.product(range(field.order), repeat=len(rows)):
        if cancel is not None and cancel.is_set():
            raise SearchCancelledError("distance search cancelled")
        word = [0] * n
        for u, row in zip(msg, pairs):
            if u:
                kern.addmul(word, 0, u, row, 0)
        yield word


class SkewCirculant:
    """The n x n matrix whose rows are x^i * g reduced modulo the modulus."""

    def __init__(self, mod, g):
        mod = _as_modulus(mod)
        g = mod.ring.poly(g.coefficients) if g.ring != mod.ring else g
        self.modulus = mod
        self.poly = g
        self._rows_i = _circulant_rows_i(mod.ring, mod.poly._ci, g._ci, mod.n)

    @property
    def rows(self):
        return wrap(self._rows_i, self.modulus.ring.field)

    def rank(self):
        return rank_i(self._rows_i, self.modulus.ring.field)

    def row(self, i):
        return [FieldElement(self.modulus.ring.field, c) for c in self._rows_i[i]]

    def __eq__(self, other):
        if isinstance(other, SkewCirculant):
            return (
                self.modulus.ring == other.modulus.ring
                and self._rows_i == other._rows_i
            )
        return NotImplemented

    def __repr__(self):
        return f"SkewCirculant(f={self.modulus.poly}, g={self.poly})"


def skew_circulant(mod, g):
    return SkewCirculant(mod, g)


def poly_to_word(f, n):
    """v_f: the length-n left-coefficient vector of a degree < n polynomial."""
    if f.degree >= n:
        raise ValueError("polynomial degree must be below the length")
    ci = list(f._ci) + [0] * (n - len(f._ci))
    return tuple(FieldElement(f.ring.field, c) for c in ci)


def word_to_poly(ring, word):
    """p_f: the polynomial with the word as left coefficients."""
    return ring.from_indices(ring.field.element(c).i for c in word)


def constacyclic_shift(ring, a, word):
    """(c_0, ..., c_{n-1}) -> (a sigma(c_{n-1}), sigma(c_0), ..., sigma(c_{n-2}))."""
    field = ring.field
    a = field.element(a)
    idx = [field.element(c).i for c in word]
    out = [field.mul_i(a.i, ring.sigma_i(idx[-1]))]
    out.extend(ring.sigma_i(c) for c in idx[:-1])
    return tuple(FieldElement(field, c) for c in out)


class SkewCyclicCode:
    """The code generated by a monic right divisor g of the modulus f.

    Dimension k = n - deg g; the generator matrix is the first k rows of
    the skew circulant of g, row i sigma^i of the coefficients of g shifted
    i places, built on first use.
    """

    def __init__(self, mod, g):
        mod = _as_modulus(mod)
        if not g.is_monic:
            raise ValueError("generator must be monic")
        s, r = _right_divmod_ci(mod.ring, mod.poly._ci, g._ci)
        if r:
            raise NotARightDivisorError(
                f"{g} does not right-divide {mod.poly}; remainder {SkewPoly(mod.ring, r)}",
                remainder=SkewPoly(mod.ring, r),
            )
        self.modulus = mod
        self.ring = mod.ring
        self.field = mod.ring.field
        self.generator = g
        self.cofactor = SkewPoly(mod.ring, s)          # f = cofactor * g
        self.n = mod.n
        self.k = mod.n - g.degree

    @cached_property
    def _gen_rows_i(self):
        return _circulant_rows_i(self.ring, self.modulus.poly._ci, self.generator._ci, self.k)

    @property
    def generator_matrix(self):
        return wrap(self._gen_rows_i, self.field)

    def circulant(self):
        return SkewCirculant(self.modulus, self.generator)

    def contains(self, word):
        """Membership: w is a codeword exactly when g right-divides p_f(w)."""
        idx = [self.field.element(c).i for c in word]
        if len(idx) != self.n:
            raise ValueError(f"word length {len(idx)}, expected {self.n}")
        _, r = _right_divmod_ci(self.ring, tuple(_trim(idx)), self.generator._ci)
        return not r

    __contains__ = contains

    def words(self, limit=1 << 20):
        """Iterate all codewords (message enumeration); cost-guarded."""
        count = self.field.order ** self.k
        if count > limit:
            raise GuardExceededError(f"code has {count} words", cost=count)
        for word in _codewords(self.field, self._gen_rows_i, self.n):
            yield tuple(FieldElement(self.field, c) for c in word)

    def __eq__(self, other):
        return (
            isinstance(other, SkewCyclicCode)
            and self.modulus == other.modulus
            and self.generator == other.generator
        )

    def __repr__(self):
        return (
            f"SkewCyclicCode(n={self.n}, k={self.k}, f={self.modulus.poly}, "
            f"g={self.generator})"
        )


def code_from_generator(mod, g):
    return SkewCyclicCode(mod, g)


# -- two-sided moduli ------------------------------------------------------------


def two_sided_circulant_product(mod, g, g2):
    """For a two-sided modulus, the circulant of g*g2 equals the product of
    the circulants.  Returns the common matrix; raises NotTwoSidedError for
    other moduli and ArithmeticError if the two sides differ."""
    mod = _as_modulus(mod)
    if not mod.two_sided:
        raise NotTwoSidedError(f"{mod.poly} is not two-sided")
    ring, f_ci, n = mod.ring, mod.poly._ci, mod.n
    left = _circulant_rows_i(ring, f_ci, _mul_ci(ring, g._ci, g2._ci), n)
    right = mat_mul_i(
        _circulant_rows_i(ring, f_ci, g._ci, n),
        _circulant_rows_i(ring, f_ci, g2._ci, n),
        ring.field,
    )
    if left != right:
        raise ArithmeticError("two-sided circulant multiplicativity failed; bug")
    return wrap(left, mod.ring.field)


# -- constacyclic machinery --------------------------------------------------------


def _require_constacyclic(mod):
    mod = _as_modulus(mod)
    if not mod.is_constacyclic:
        raise NotConstacyclicError(f"{mod.poly} is not of the form x^n - a")
    return mod


def cofactor_constant(mod, g):
    """For g a right divisor of x^n - a: c = sigma^n(g_0) a g_0^(-1), the
    constant with x^n - c = sigma^n(g) h for the cofactor h."""
    mod = _require_constacyclic(mod)
    ring = mod.ring
    field = ring.field
    a = mod.constacyclic_constant
    g0 = g.constant_coefficient
    if not g0:
        raise ZeroDivisionError("divisor of x^n - a has nonzero constant term")
    _, r = _right_divmod_ci(ring, mod.poly._ci, g._ci)
    if r:
        raise NotARightDivisorError(f"{g} does not right-divide {mod.poly}")
    return FieldElement(
        field,
        field.mul_i(field.mul_i(ring.sigma_i(g0.i, mod.n), a.i), field.inv_i(g0.i)),
    )


def transpose_decomposition(mod, g):
    """Decompose the transpose of the circulant of a right divisor g of
    x^n - a.

    Returns (g_sharp, g_circ, c) with c = sigma^n(g_0) a g_0^(-1),
    g_sharp = a sigma^k(rho_l(g)) x^k and g_circ = a sigma^k(rho_l(g)),
    where k = n - deg g.  The transpose is the (x^n - c^(-1))-circulant of
    g_sharp, which factors as the (x^n - sigma^k(c^(-1)))-circulant of
    g_circ times the (x^n - c^(-1))-circulant of x^k, and g_circ
    right-divides x^n - sigma^k(c^(-1)).
    """
    mod = _require_constacyclic(mod)
    c = cofactor_constant(mod, g)
    k = mod.n - g.degree
    g_circ = mod.constacyclic_constant * apply_automorphism(left_reciprocal(g), k)
    return g_circ.times_x(k), g_circ, c


class DualData:
    """The dual of a skew-constacyclic code with the raw (non-monic) dual
    generator and both parity-check matrices.

    ``primal_parity_check`` annihilates the primal codewords via H w^T = 0;
    ``dual_parity_check`` does the same for the dual code.
    """

    def __init__(self, code, raw_generator, primal_parity_check, dual_parity_check):
        self.code = code
        self.raw_generator = raw_generator
        self.primal_parity_check = primal_parity_check
        self.dual_parity_check = dual_parity_check


def dual_code(code):
    """The dual of a (sigma, x^n - a)-code, which is (sigma, x^n - a^(-1)).

    With f = h g, the dual generator is h_rec = rho_l(sigma^(-n)(h)), which
    right-divides x^n - a^(-1).  Returns the dual code (monic-normalized
    generator) together with the raw h_rec, the primal parity check (first
    n-k rows of the h_rec circulant) and the dual's parity check (first k
    rows of the g circulant).
    """
    mod = _require_constacyclic(code.modulus)
    ring = code.ring
    n = code.n
    h_rec = left_reciprocal(apply_automorphism(code.cofactor, -n))
    dual_mod = Modulus(ring.x_pow_minus(n, mod.constacyclic_constant.inverse()))
    return DualData(
        SkewCyclicCode(dual_mod, h_rec.monic()),
        h_rec,
        wrap(_circulant_rows_i(ring, dual_mod.poly._ci, h_rec._ci, n - code.k), code.field),
        wrap(code._gen_rows_i, code.field),
    )


def check_polynomial(code):
    """The check data (sigma^(-n)(h), c_tilde) of a code modulo x^n - a = h g.

    A word w lies in the code exactly when the product of its polynomial
    with sigma^(-n)(h) reduces to zero modulo x^n - c_tilde, where
    c_tilde = sigma^(-n)(c) and c = sigma^n(g_0) a g_0^(-1); that is,
    x^n - c_tilde = g * sigma^(-n)(h).
    """
    mod = _require_constacyclic(code.modulus)
    ring = code.ring
    n = code.n
    c = cofactor_constant(mod, code.generator)
    return apply_automorphism(code.cofactor, -n), ring.sigma(c, (-n) % ring.m)


def check_kernel_contains(code, check, c_tilde, word):
    """Evaluate the check map on a word: True when w * check = 0 mod
    x^n - c_tilde (the kernel is exactly the code)."""
    ring = code.ring
    idx = tuple(_trim([ring.field.element(c).i for c in word]))
    prod = _mul_ci(ring, idx, check._ci)
    mod_ct = ring.x_pow_minus(code.n, c_tilde)
    _, r = _right_divmod_ci(ring, prod, mod_ct._ci)
    return not r


def self_dual_search(ring, n, eps=1, cancel=None):
    """Self-dual (sigma, x^n - eps)-codes, eps in {1, -1}, n even.

    Finds the monic h of degree n/2 with x^n - eps = h * rho_l(sigma^(-n)(h))
    and returns the codes generated by the reciprocal factor, ordered by h.
    These are the self-dual codes whose monic cofactor h has h_0 = 1; a
    self-dual code with h_0 != 1 is not listed.

    h left-divides x^n - eps exactly when mu(h) right-divides its mirror
    image (see skewpoly), so the candidates are the mirror ring's right
    divisors, each kept when its (monic) cofactor is the reciprocal factor.
    """
    if n % 2:
        raise ValueError("self-dual skew-constacyclic codes need even length")
    if eps not in (1, -1):
        raise ValueError("eps must be 1 or -1")
    field = ring.field
    eps_el = field.one if eps == 1 else -field.one
    cost = field.order ** (n // 2)
    if cost > (1 << 20):
        raise GuardExceededError(f"self-dual search cost {cost} exceeds 2^20", cost=cost)
    target = ring.x_pow_minus(n, eps_el)
    mod = Modulus(target)
    mirror = ring._mirror
    try:
        found = list(
            _monic_right_divisors_ci(mirror, _mirror_ci(ring, target._ci), n // 2, cancel)
        )
    except SearchCancelledError:
        raise SearchCancelledError("self-dual search cancelled") from None
    out = []
    for m, s in found:
        h = SkewPoly(ring, _mirror_ci(mirror, m))
        h_rec = left_reciprocal(apply_automorphism(h, -n))
        if _mirror_ci(mirror, s) == h_rec._ci:
            out.append((h._ci, SkewCyclicCode(mod, h_rec)))
    out.sort(key=lambda pair: pair[0])
    return [code for _, code in out]


def vandermonde_parity_check(code, roots=None, emb=None):
    """The skew Vandermonde parity check of a code whose generator is a
    Wedderburn polynomial: w is a codeword iff w M = 0.

    Without arguments the roots are those of the generator in its own field
    (raising NotWedderburnError when the generator is not their minimal
    polynomial).  With an embedding, the supplied roots live in the
    extension; the annihilation of all generator rows is then asserted and
    the matrix returned.
    """
    ring, rows = code.ring, code._gen_rows_i
    if emb is not None:
        # the embedding commutes with sigma: the rows of the lifted generator
        # are the embedded generator rows
        g = _lift(code.generator, emb)
        f_ci = _lift(code.modulus.poly, emb)._ci
        ring, rows = g.ring, _circulant_rows_i(g.ring, f_ci, g._ci, code.k)
    field = ring.field
    if roots is None:
        roots = _wedderburn_roots_i(code.generator)
    else:
        roots = [field.element(rt).i for rt in roots]
    M_i = _vandermonde_i(ring, code.n, roots)
    if not is_zero_matrix_i(mat_mul_i(rows, M_i, field)):
        raise ArithmeticError("codeword fails Vandermonde annihilation; bug")
    if emb is None:
        # annihilation plus matching kernel dimension pins the kernel to the code
        if code.n - rank_i(M_i, field) != code.k:
            raise ArithmeticError("Vandermonde kernel dimension mismatch; bug")
    return wrap(M_i, field)


# -- divisor enumeration ------------------------------------------------------------

_ENUM_COST_GUARD = 1 << 25


def enumerate_right_divisors(f, degrees=None, cancel=None):
    """All monic right divisors of f, grouped by degree.

    Degrees up to n/2 are found by direct candidate enumeration with a
    right-division test; higher degrees enumerate the monic left cofactor h
    (f = h * g) and recover g as the left quotient, which is a bijection
    since quotients are unique; that search runs in the mirror ring (see
    skewpoly).  Lists are ordered lexicographically on the ascending
    coefficient sequence.  Returns {degree: [divisors]} including
    the trivial degrees 0 and n.
    """
    f = f.poly if isinstance(f, Modulus) else f
    if not f.is_monic:
        raise ValueError("divisor enumeration needs a monic modulus")
    ring = f.ring
    N = ring.field.order
    n = f.degree
    if degrees is None:
        wanted = list(range(n + 1))
    elif isinstance(degrees, int):
        wanted = [degrees]
    else:
        wanted = sorted(set(degrees))
    cost = sum(N ** min(d, n - d) for d in wanted)
    if cost > _ENUM_COST_GUARD:
        raise GuardExceededError(
            f"divisor enumeration cost {cost} exceeds 2^25", cost=cost
        )
    fci = f._ci
    out = {}
    for d in wanted:
        if d < 0 or d > n:
            continue
        if d == 0:
            out[d] = [ring.one]
            continue
        if d == n:
            out[d] = [f]
            continue
        if d <= n - d:
            divisors = _monic_right_divisors_ci(ring, fci, d, cancel)
            found = [SkewPoly(ring, g) for g, _ in divisors]
        else:
            # f = h * g with h monic of degree n - d exactly when mu(h)
            # right-divides mu(f) with quotient mu(g)
            mirror = ring._mirror
            cofactors = _monic_right_divisors_ci(mirror, _mirror_ci(ring, fci), n - d, cancel)
            found = [SkewPoly(ring, _mirror_ci(mirror, s)) for _, s in cofactors]
            found.sort(key=lambda g: g._ci)
        out[d] = found
    return out


def count_divisors(result, modulus_degree=None, nontrivial=False):
    """Total divisor count over an enumeration result.

    With nontrivial=True the unit (degree 0) and the degree-n entries are
    excluded; modulus_degree must then be given.
    """
    total = sum(len(v) for v in result.values())
    if nontrivial:
        if modulus_degree is None:
            raise ValueError("nontrivial count needs the modulus degree")
        total -= len(result.get(0, ())) + len(result.get(modulus_degree, ()))
    return total
