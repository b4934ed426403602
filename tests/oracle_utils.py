"""Independent test oracles.

``naive_mul`` multiplies field elements straight from coefficient tuples by
convolution and long reduction, never touching the log tables it checks.
``naive_add``, ``naive_neg`` and ``naive_pow`` are the matching coefficient-wise
sum, negation and square-and-multiply power, and ``naive_mat_mul`` and
``naive_rank`` the matrix product and Gaussian elimination on them.
``sweep_eval_consistency`` verifies, for every polynomial up to a degree
bound at once (vectorized), that right evaluation through the norm formula
agrees with the remainder of right division by x - a at every point a.
``split_quotient_divisor_profile`` counts monic right divisors by degree from
the simple components of a split quotient R/Rf, by Gaussian binomials alone,
and ``f2_is_irreducible`` checks the central factors that fix those
components by trial division over F_2.  ``fp_is_irreducible_by_trial_division``
is the same check over any F_p, the reference for the Rabin test that
FieldSpec runs on its modulus.  ``twisted_mul`` multiplies in
F[x; a -> a^(p^t)] for any shift t, and ``norm_eval`` evaluates through
N_i(a) = a^((q^i - 1)/(q - 1)), and ``linearized_apply_naive`` evaluates
sum f_i a^(q^i) by ``naive_pow``; all three sum with ``naive_add``, so no
oracle here shares a path with the field kernel that the ring loops bind.
``constacyclic_modulus_by_scan`` finds the constacyclic modulus of a
generator by one full division per nonzero a, ``rs1_brackets_repeat_by_scan``
checks a skew-RS length by a set of the brackets a^[i], and ``vanishing_set_by_sweep``
finds the right roots of a polynomial by evaluating it at every point.
``roots_by_all_classes`` finds them by solving one kernel in every
conjugacy class and mapping every kernel vector, without the reduced-norm
prefilter or the one-vector-per-line map, and ``charpoly_by_cofactors``
expands det(yI - M) by cofactors over F[y] on ``naive_mul``, with no
elimination.
``bch1_generator_by_fold`` folds one subfield minimal polynomial per
designed root by base-ring lclm, and ``bch2_generator_by_closure`` takes the
extension-ring lclm of x - beta^(q^t) over the coset closure and restricts
it: the two routes the skew-BCH generators had before they shared one
minimal polynomial of the automorphism-closed root set.
``mat_mul``, ``row_space_equal`` and ``in_row_space`` (with their ``_i``
forms on int grids) are the matrix product and row-space comparisons the
tests check matrices with.

The codes layer computes each answer by one route; the second routes live
here.  ``row_space_membership`` decides membership by rank, against the
right division in ``SkewCyclicCode.contains``.  ``assert_cofactor_identities``,
``assert_transpose_decomposition``, ``assert_dual``, ``assert_check_identity``
and ``assert_self_dual`` check the circulant and product identities behind
``cofactor_constant``, ``transpose_decomposition``, ``dual_code``,
``check_polynomial`` and ``self_dual_search``, and
``self_dual_generators_by_product`` redoes the self-dual search by full
products over all monic candidates.

``monic_right_divisors_by_division`` is the divisor candidate loop as it was
before the coefficient walk: one full right division per monic candidate,
in lexicographic order of its ascending coefficients, kept verbatim as the
reference for ``skewpoly._monic_right_divisors_ci`` and its three callers.

``two_sided_by_center`` decides two-sidedness by the shape c x^t g(x^m)
with g over the fixed field, scanning the coefficients, and
``two_call_search`` finds a similarity witness by a public gcrd and lclm
call per candidate: the two routes ``skewpoly.is_two_sided`` and
``skewpoly.similar_bruteforce`` had before both tested ideal membership.

``parse_poly`` is the polynomial parser as it was before the text grammar
was read by ``parse_element`` alone: a regular expression for the whole
term (``_TERM_RE``) after a depth-tracking sign splitter (``_split_terms``),
kept verbatim as the reference for the value or exception class of every
polynomial text.
"""

import itertools
import random
import re

import numpy as np

from skewcodes.bch import bch2_exponent_sets
from skewcodes.codes import Modulus, dual_code, skew_circulant
from skewcodes.errors import GuardExceededError, ParseError, _cancellable, _guard
from skewcodes.fields import (
    FieldElement,
    _fp_kernel,
    _fp_span,
    _prime_factors,
    norm_exponent,
)
from skewcodes.linalg import (
    is_zero_matrix_i,
    mat_mul_i,
    rank_i,
    rref_i,
    unwrap,
    wrap,
)
from skewcodes.rootsets import AlgebraicSet, minimal_poly_over_subfield
from skewcodes.skewpoly import (
    _eval_ci,
    _mul_ci,
    _right_divmod_ci,
    apply_automorphism,
    gcrd,
    lclm,
    left_reciprocal,
)
from skewcodes.textio import _EXPONENT_DIGITS, _EXPONENT_LIMIT, parse_element


def naive_mul(field, a, b):
    """Product of two elements by polynomial convolution and trial reduction."""
    p = field.p
    ac, bc = a.coeffs, b.coeffs
    out = [0] * (2 * field.degree - 1) if field.degree > 1 else [0]
    for i, x in enumerate(ac):
        if x:
            for j, y in enumerate(bc):
                out[i + j] = (out[i + j] + x * y) % p
    mod = field.modulus
    for top in range(len(out) - 1, field.degree - 1, -1):
        c = out[top]
        if c:
            out[top] = 0
            shift = top - field.degree
            for j, mj in enumerate(mod[:-1]):
                out[shift + j] = (out[shift + j] - c * mj) % p
    return field.from_coeffs(out[: field.degree])


def naive_add(field, a, b, sign=1):
    """a + sign * b on packed indices, coefficient by coefficient."""
    p = field.p
    return field.from_coeffs(
        [(x + sign * y) % p for x, y in zip(field.coeffs_of(a), field.coeffs_of(b))]
    ).i


def naive_neg(field, a):
    return naive_add(field, 0, a, sign=-1)


def naive_pow(field, a, k):
    """a^k for an element a and k >= 0, by square-and-multiply on naive_mul."""
    out = field.one
    while k:
        if k & 1:
            out = naive_mul(field, out, a)
        a = naive_mul(field, a, a)
        k >>= 1
    return out


def naive_mat_mul(a, b, field):
    """Product of int grids by naive_mul and naive_add."""
    out = []
    for row in a:
        orow = []
        for col in zip(*b):
            acc = 0
            for x, y in zip(row, col):
                term = naive_mul(field, FieldElement(field, x), FieldElement(field, y))
                acc = naive_add(field, acc, term.i)
            orow.append(acc)
        out.append(orow)
    return out


def naive_rank(rows, field):
    """Rank of an int grid by Gaussian elimination on naive_mul, naive_add
    and the inverse a^(order - 2) from naive_pow."""
    m = [[FieldElement(field, c) for c in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = naive_pow(field, m[rank][col], field.order - 2)
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = naive_mul(field, m[i][col], inv)
                m[i] = [FieldElement(field, naive_add(field, x.i, naive_mul(field, f, y).i,
                                                      sign=-1))
                        for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def twisted_mul(field, t, a, b):
    """Product of ascending index tuples in F[x; a -> a^(p^t)]:
    sum a_i (b_j)^(p^(t i)) x^(i+j), from naive_mul, naive_pow and
    naive_add alone (no table lookup, no ring kernel)."""
    d = field.degree
    orbits = []   # orbits[j][k] = b_j^(p^k)
    for bj in b:
        orbit = [FieldElement(field, bj)]
        for _ in range(d - 1):
            orbit.append(naive_pow(field, orbit[-1], field.p))
        orbits.append(orbit)
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, orbit in enumerate(orbits):
                term = naive_mul(field, FieldElement(field, ai), orbit[(t * i) % d])
                out[i + j] = naive_add(field, out[i + j], term.i)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def naive_poly_add(field, a, b):
    """Sum of ascending index tuples by naive_add, trimmed."""
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    out = [naive_add(field, x, y) for x, y in zip(a, b)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def norm_eval(ring, f, a):
    """Right evaluation sum_i f_i N_i(a) of a SkewPoly at an element, with
    N_i(a) = a^((q^i - 1)/(q - 1)) from FieldElement powers, products by
    naive_mul and the sum by naive_add."""
    field = ring.field
    acc = 0
    for i, c in enumerate(f.coefficients):
        term = naive_mul(field, c, a ** norm_exponent(ring.q, i))
        acc = naive_add(field, acc, term.i)
    return FieldElement(field, acc)


def linearized_apply_naive(ring, L, a):
    """The induced map sum_i f_i a^(q^i) of a LinearizedPoly at an element,
    each power by naive_pow, each product by naive_mul and the sum by
    naive_add: no skew product and no right evaluation."""
    field = ring.field
    acc = 0
    for i, c in enumerate(L.coefficients):
        term = naive_mul(field, c, naive_pow(field, a, ring.q ** i))
        acc = naive_add(field, acc, term.i)
    return FieldElement(field, acc)


def vanishing_set_by_sweep(f):
    """The right roots of f by evaluating it at every point of its field."""
    ring, field = f.ring, f.ring.field
    return AlgebraicSet(
        field, [a for a in range(field.order) if _eval_ci(ring, f._ci, a) == 0]
    )


def roots_by_all_classes(f):
    """The right roots of a nonzero f with m >= 2: for each of the q - 1
    representatives a = g^j (g of norm generating F_q^*), the conjugates
    a c^(q-1) by every nonzero c in the F_p-kernel of
    c -> sum_i f_i N_i(a) sigma^i(c), with 0 when f_0 = 0."""
    ring, field, ci = f.ring, f.ring.field, f._ci
    kern = field.kernel()
    mul, pow_, scale = kern.mul, kern.pow, kern.scale
    n, q = field.order - 1, ring.q
    primes = _prime_factors(q - 1)
    g = next(a for a in range(1, field.order) if all(pow_(a, n // r) != 1 for r in primes))
    gammas = [pow_(g, u * (n // (q - 1))) for u in range(ring.e)]
    xs = [field.p ** v for v in range(ring.m)]
    domain = [mul(gu, xv) for xv in xs for gu in gammas]
    products = [_mul_ci(ring, ci, (xv,)) for xv in xs]
    roots, a = set() if ci[0] else {0}, 1
    for _ in range(q - 1):
        cols = []
        for fx in products:
            acc = _eval_ci(ring, fx, a)
            cols += scale(acc, gammas) if acc else [0] * ring.e
        span = _fp_span(field, _fp_kernel(field, cols, domain))
        roots.update(mul(a, pow_(c, q - 1)) for c in span[1:])
        a = mul(a, g)
    return AlgebraicSet(field, roots)


def _naive_poly_mul(field, a, b):
    """Product in F[y] of ascending index tuples by naive_mul and naive_add."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                term = naive_mul(field, FieldElement(field, x), FieldElement(field, y))
                out[i + j] = naive_add(field, out[i + j], term.i)
    return naive_poly_add(field, out, ())


def charpoly_by_cofactors(field, rows):
    """det(yI - M) of a square int grid as an ascending index tuple, by
    cofactor expansion along the first row over F[y]."""
    def det(m):
        if not m:
            return (1,)
        out = ()
        for j, entry in enumerate(m[0]):
            if entry:
                term = _naive_poly_mul(field, entry, det([r[:j] + r[j + 1:] for r in m[1:]]))
                if j % 2:
                    term = tuple(naive_neg(field, c) for c in term)
                out = naive_poly_add(field, out, term)
        return out

    return det([
        [naive_poly_add(field, (naive_neg(field, c),), (0, 1) if i == j else ())
         for j, c in enumerate(row)]
        for i, row in enumerate(rows)
    ])


def constacyclic_modulus_by_scan(ring, g, n):
    """x^n - a for the first nonzero a with g a right divisor, else None."""
    for a in range(1, ring.field.order):
        f = ring.x_pow_minus(n, FieldElement(ring.field, a))
        if g.right_divides(f):
            return f
    return None


def rs1_brackets_repeat_by_scan(ring, a, n):
    """Whether a^[0], ..., a^[n-1] repeat, [i] = (q^i - 1)/(q - 1), by a set
    of the values: the length check skew_rs1 made before it shared the
    bracket scan of the first-kind BCH specs."""
    field, seen = ring.field, set()
    for i in range(n):
        v = field.pow_i(a, norm_exponent(ring.q, i))
        if v in seen:
            return True
        seen.add(v)
    return False


def bch1_generator_by_fold(spec):
    """lclm over the base ring of the subfield minimal polynomial of each
    designed root alpha^t."""
    field = spec.emb.target
    g = None
    for t in sorted(spec.designed_exponents()):
        root = FieldElement(field, field.pow_i(spec.alpha.i, t))
        m = minimal_poly_over_subfield(spec.base_ring, spec.emb, root)
        g = m if g is None else lclm(g, m)
    return g


def bch2_generator_by_closure(spec):
    """lclm(x - beta^(q^t) : t in the coset closure) in the extension ring,
    every coefficient restricted to the base field."""
    ext = spec.ext_ring
    field = ext.field
    beta = spec.beta.i
    _, closed = bch2_exponent_sets(spec)
    g = lclm(*(
        ext.x_minus(FieldElement(field, field.pow_i(beta, spec.base_ring.q ** t)))
        for t in closed
    ))
    coeffs = [spec.emb.restrict(c) for c in g.coefficients]
    assert None not in coeffs, "a closure coefficient escaped the base field"
    return spec.base_ring.poly(coeffs)


def sweep_eval_consistency(ring, max_degree):
    """Exhaustively check norm-formula evaluation against synthetic right
    division by x - a, for every coefficient vector of length max_degree + 1
    and every point a.  Returns the number of polynomials checked.

    Elements are packed indices; for characteristic 2 the packed addition is
    XOR, otherwise a small addition table is gathered.  Per-point
    multiplications by a fixed scalar are 1-d table lookups.
    """
    field = ring.field
    N = field.order
    d = field.degree
    e = ring.e
    count = N ** (max_degree + 1)
    idx = np.arange(count, dtype=np.uint32)
    coef = [((idx // N**i) % N).astype(np.uint8) for i in range(max_degree + 1)]
    char2 = field.p == 2
    if not char2:
        ADD = np.array(
            [[field.add_i(a, b) for b in range(N)] for a in range(N)], dtype=np.uint8
        )

    def mul_by_scalar(arr, s):
        table = np.array([field.mul_i(v, s) for v in range(N)], dtype=np.uint8)
        return table[arr]

    def add(x, y):
        return x ^ y if char2 else ADD[x, y]

    for a in range(N):
        norms = [1]
        for i in range(1, max_degree + 1):
            norms.append(field.mul_i(norms[-1], field.frob_i(a, (e * (i - 1)) % d)))
        ev = mul_by_scalar(coef[0], norms[0])
        for i in range(1, max_degree + 1):
            ev = add(ev, mul_by_scalar(coef[i], norms[i]))
        # synthetic division: s_{n-1} = f_n; s_{i-1} = f_i + s_i sigma^i(a);
        # remainder = f_0 + s_0 a
        s = coef[max_degree]
        for i in range(max_degree - 1, 0, -1):
            s = add(coef[i], mul_by_scalar(s, field.frob_i(a, (e * i) % d)))
        rem = add(coef[0], mul_by_scalar(s, a))
        if not np.array_equal(ev, rem):
            bad = int(np.nonzero(ev != rem)[0][0])
            raise AssertionError(
                f"evaluation mismatch at a={a}, poly index {bad} over {field.name}"
            )
    return count


def f2_is_irreducible(bits):
    """Irreducibility over F_2 of the polynomial with coefficient bit vector
    ``bits`` (bit i holds the coefficient of y^i), by trial division."""
    deg = bits.bit_length() - 1

    def rem(f, g):
        while f and f.bit_length() >= g.bit_length():
            f ^= g << (f.bit_length() - g.bit_length())
        return f

    return deg >= 1 and all(rem(bits, g) for g in range(2, 1 << (deg // 2 + 1)))


def fp_is_irreducible_by_trial_division(poly, p):
    """Irreducibility over F_p of the monic ascending coefficient list
    ``poly`` by trial division: no monic polynomial of degree 1 .. d/2
    divides it.  The reference for the Rabin test FieldSpec makes."""

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            c, shift = a[-1], len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - c * bj) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    d = len(poly) - 1
    return d >= 1 and all(
        rem(poly, [idx // p ** i % p for i in range(deg)] + [1])
        for deg in range(1, d // 2 + 1) for idx in range(p ** deg))


def gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def split_quotient_divisor_profile(components):
    """Monic right divisors of f by degree, from the structure of R/Rf alone.

    ``components`` lists the simple factors M_s(F_Q) of a quotient R/Rf that
    splits into matrix algebras, as triples (s, Q, dim) with dim the factor's
    dimension over the coefficient field of R.  A monic right divisor g of f
    corresponds to the left ideal Rg/Rf, of dimension deg f - deg g.  A left
    ideal of a product is a product of left ideals of the factors, and the
    left ideals of M_s(F_Q) are the matrices whose rows lie in a fixed
    subspace of F_Q^s: [s choose k]_Q of them for a k-dimensional subspace,
    each of dimension k * dim / s.  Returns {deg g: count}.
    """
    by_dim = {0: 1}
    for s, q, dim in components:
        if dim % s:
            raise ValueError(f"M_{s} cannot have dimension {dim}")
        step = dim // s
        nxt = {}
        for j, c in by_dim.items():
            for k in range(s + 1):
                key = j + k * step
                nxt[key] = nxt.get(key, 0) + c * gaussian_binomial(s, k, q)
        by_dim = nxt
    n = sum(dim for _, _, dim in components)
    return {n - j: c for j, c in by_dim.items()}


# -- matrix oracles over FieldElement or int grids ---------------------------------


def mat_mul(a, b, field):
    return wrap(mat_mul_i(unwrap(a), unwrap(b), field), field)


def row_space_equal_i(a, b, field):
    return rref_i(a, field)[0] == rref_i(b, field)[0]


def row_space_equal(a, b, field):
    return row_space_equal_i(unwrap(a), unwrap(b), field)


def in_row_space_i(vec, rows, field):
    return rank_i(list(rows) + [list(vec)], field) == rank_i(rows, field)


def in_row_space(vec, rows, field):
    return in_row_space_i([c.i for c in vec], unwrap(rows), field)


# -- the codes layer's second routes ----------------------------------------------


def circulant_rows(mod, g):
    """The skew circulant of g modulo mod as an int grid."""
    return unwrap(skew_circulant(mod, g).rows)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def row_space_membership(rows, field):
    """A predicate on int vectors: membership in the row space of ``rows``,
    decided by rank (a vector lies in the span when it adds no rank)."""
    basis, _ = rref_i(rows, field)
    return lambda vec: rank_i(basis + [list(vec)], field) == len(basis)


def assert_cofactor_identities(mod, g, c, trials=3, seed=0):
    """For the cofactor constant c of a right divisor g of x^n - a:
    x^n - c = sigma^n(g) h for the cofactor h, and the product law
    circulant_a(g' g) = circulant_c(g') circulant_a(g) for ``trials``
    pseudorandom g' of degree below n."""
    ring, field, n = mod.ring, mod.ring.field, mod.n
    h, r = mod.poly.right_divmod(g)
    assert r.is_zero
    mod_c = Modulus(ring.x_pow_minus(n, c))
    assert apply_automorphism(g, n) * h == mod_c.poly, "cofactor constant identity"
    g_rows = circulant_rows(mod, g)
    rng = random.Random(seed)
    for _ in range(trials):
        gp = ring.from_indices(rng.randrange(field.order) for _ in range(n))
        split = mat_mul_i(circulant_rows(mod_c, gp), g_rows, field)
        assert circulant_rows(mod, gp * g) == split, "constacyclic product law"


def assert_transpose_decomposition(mod, g, g_sharp, g_circ, c):
    """The transpose of the circulant of g modulo x^n - a equals the
    (x^n - c^(-1))-circulant of g_sharp, which is the (x^n - sigma^k(c^(-1)))-
    circulant of g_circ times the (x^n - c^(-1))-circulant of x^k, k = n -
    deg g; and g_circ right-divides x^n - sigma^k(c^(-1))."""
    ring, field, n = mod.ring, mod.ring.field, mod.n
    k = n - g.degree
    c_inv = c.inverse()
    mod_cinv = Modulus(ring.x_pow_minus(n, c_inv))
    mod_sig = Modulus(ring.x_pow_minus(n, ring.sigma(c_inv, k)))
    rhs = circulant_rows(mod_cinv, g_sharp)
    assert transpose(circulant_rows(mod, g)) == rhs, "transpose of the circulant"
    split = mat_mul_i(
        circulant_rows(mod_sig, g_circ),
        circulant_rows(mod_cinv, ring.one.times_x(k)),
        field,
    )
    assert split == rhs, "transpose factorization"
    assert g_circ.monic().right_divides(mod_sig.poly), "g_circ divides its modulus"


def assert_dual(code, data):
    """``dual_code`` data against the circulants.  The raw generator h_rec
    right-divides x^n - a^(-1); the circulant of g annihilates the transposed
    circulant of h_rec, which has rank n - k and the dual's row space; the
    parity checks are the leading n - k and k rows of those circulants."""
    field, n, k = code.field, code.n, code.k
    dual_mod = data.code.modulus
    a_inv = code.modulus.constacyclic_constant.inverse()
    assert dual_mod.poly == code.ring.x_pow_minus(n, a_inv)
    assert data.raw_generator.monic().right_divides(dual_mod.poly)
    g_rows = circulant_rows(code.modulus, code.generator)
    h_rows = circulant_rows(dual_mod, data.raw_generator)
    assert is_zero_matrix_i(mat_mul_i(g_rows, transpose(h_rows), field)), "annihilation"
    assert rank_i(h_rows, field) == n - k, "dual circulant rank"
    dual_rows = unwrap(data.code.generator_matrix)
    assert row_space_equal_i(dual_rows, h_rows, field), "dual row space"
    assert unwrap(data.primal_parity_check) == h_rows[: n - k]
    assert unwrap(data.dual_parity_check) == g_rows[:k]


def assert_check_identity(code, check, c_tilde):
    """x^n - c_tilde = g * check for the check data of a code."""
    assert code.generator * check == code.ring.x_pow_minus(code.n, c_tilde)


def assert_self_dual(code):
    """The code equals its dual: 2k = n with G G^T = 0, and its row space is
    that of ``dual_code``."""
    rows = unwrap(code.generator_matrix)
    assert 2 * code.k == code.n
    assert is_zero_matrix_i(mat_mul_i(rows, transpose(rows), code.field))
    dual_rows = unwrap(dual_code(code).code.generator_matrix)
    assert row_space_equal_i(rows, dual_rows, code.field), "self-dual row space"


def self_dual_generators_by_product(ring, n, eps):
    """Monic generators rho_l(sigma^(-n)(h)) of the self-dual
    (sigma, x^n - eps)-codes, for every monic h of degree n/2 with
    h * rho_l(sigma^(-n)(h)) = x^n - eps, in the order of h."""
    field = ring.field
    target = ring.x_pow_minus(n, field.one if eps == 1 else -field.one)
    out = []
    for h in ring.monic_polys(n // 2):
        if h.constant_coefficient:
            h_rec = left_reciprocal(apply_automorphism(h, -n))
            if h * h_rec == target:
                out.append(h_rec.monic())
    return out


# -- the polynomial parser before one text grammar -----------------------------

_TERM_RE = re.compile(
    r"^(?:(?P<coeff>0|1|a(?:\^(?P<apow>\d+))?|\((?P<tuple>\d+(?:,\d+)*)\))\*?)?"
    r"(?P<xpart>x(?:\^(?P<xpow>\d+))?)?$"
)


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


# -- the divisor candidate loop before the coefficient walk ----------------------


def monic_right_divisors_by_division(ring, f, degree, cancel=None, what="divisor"):
    """Yield (g, s) with f = s*g for every monic g of the given degree, in
    lexicographic order of the ascending coefficients of g; a set cancel
    stops the "<what> search"."""
    tails = itertools.product(range(ring.field.order), repeat=degree)
    for tail in _cancellable(tails, cancel, what):
        g = tail + (1,)
        s, r = _right_divmod_ci(ring, f, g)
        if not r:
            yield g, s


# -- two-sidedness and similarity before the ideal-membership tests --------------


def two_sided_by_center(f):
    """True when f = c x^t g with g in the center F_q[x^m]: every nonzero
    coefficient sits at t plus a multiple of m and is c times an element of
    the fixed field.  The zero polynomial is two-sided."""
    if f.is_zero:
        return True
    ring, field, ci = f.ring, f.ring.field, f._ci
    t = next(i for i, c in enumerate(ci) if c)
    inv0 = field.inv_i(ci[t])
    for i in range(t, len(ci)):
        if ci[i]:
            ratio = field.mul_i(ci[i], inv0)
            if (i - t) % ring.m or ring.sigma_i(ratio) != ratio:
                return False
    return True


def two_call_search(f, g):
    """The first h, nonzero of degree below deg f in lexicographic order of
    its ascending coefficients, with gcrd(f, h) = 1 and lclm(f, h) =
    monic(g*h), each condition one public call; None when there is none."""
    ring = f.ring
    for ci in itertools.product(range(ring.field.order), repeat=f.degree):
        h = ring.from_indices(ci)
        if not h.is_zero and gcrd(f, h) == ring.one and lclm(f, h) == (g * h).monic():
            return h
    return None
