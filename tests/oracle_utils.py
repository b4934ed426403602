"""Independent test oracles.

``naive_mul`` multiplies field elements straight from coefficient tuples by
convolution and long reduction, never touching the log tables it checks.
``sweep_eval_consistency`` verifies, for every polynomial up to a degree
bound at once (vectorized), that right evaluation through the norm formula
agrees with the remainder of right division by x - a at every point a.
``split_quotient_divisor_profile`` counts monic right divisors by degree from
the simple components of a split quotient R/Rf, by Gaussian binomials alone,
and ``f2_is_irreducible`` checks the central factors that fix those
components by trial division over F_2.  ``twisted_mul`` multiplies in
F[x; a -> a^(p^t)] from element products and powers alone, for any shift t.
"""

import numpy as np

from skewcodes.fields import FieldElement


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


def twisted_mul(field, t, a, b):
    """Product of ascending index tuples in F[x; a -> a^(p^t)]:
    sum a_i (b_j)^(p^(t i)) x^(i+j), with no Frobenius table or ring kernel."""
    out = [field.zero] * max(0, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        twist = field.p ** ((t * i) % field.degree)
        for j, bj in enumerate(b):
            out[i + j] += FieldElement(field, ai) * FieldElement(field, bj) ** twist
    while out and not out[-1]:
        out.pop()
    return tuple(c.i for c in out)


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
