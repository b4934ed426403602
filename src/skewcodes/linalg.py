"""Exact dense linear algebra over a FieldSpec.

Matrices are lists of rows.  The routines work on int grids of packed
indices; ``wrap`` boxes a grid once, where a public function returns it,
and ``unwrap`` (so ``matrix_rank``) also takes FieldElement grids.
Elimination, the characteristic polynomial (``charpoly_i``, by Hessenberg
reduction) and the matrix product bind the field's kernel
(FieldSpec.kernel) once per call and make one row operation per row: a
pivot step, or a scaled row added.
"""

from __future__ import annotations

from .fields import FieldElement


def unwrap(rows):
    """FieldElement grid -> int grid (idempotent on int grids)."""
    return [
        [c.i if isinstance(c, FieldElement) else c for c in row] for row in rows
    ]


def wrap(rows, field):
    return [[FieldElement(field, c) for c in row] for row in rows]


def rref_i(rows, field):
    """Reduced row echelon form of an int grid; returns (rref, pivot_cols)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    kern = field.kernel()
    pivots = []
    r = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        kern.eliminate(m, r, col)
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank_i(rows, field):
    return len(rref_i(rows, field)[0])


def matrix_rank(rows, field):
    return rank_i(unwrap(rows), field)


def right_kernel_i(rows, field, ncols=None):
    """Basis of {x : A x = 0} (column vectors, returned as rows)."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols needed for an empty matrix")
    red, pivots = rref_i(rows, field)
    free = [j for j in range(ncols) if j not in pivots]
    neg = field.neg_i
    basis = []
    for j in free:
        vec = [0] * ncols
        vec[j] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = neg(red[r][j])
        basis.append(vec)
    return basis


def charpoly_i(rows, field):
    """det(yI - M) of a square int grid, as ascending coefficients.

    M is brought to upper Hessenberg form H by one similarity per column j:
    rows i > j + 1 lose u_i times row j + 1, then column j + 1 gains u_i
    times column i.  The characteristic polynomials p_k of the leading
    k x k blocks of H follow from p_0 = 1 and
    p_(k+1) = (y - h_kk) p_k - sum_(i<k) h_ik h_(i+1,i) ... h_(k,k-1) p_i.
    """
    kern = field.kernel()
    mul, add, neg = kern.mul, kern.add, kern.neg
    h = [list(r) for r in rows]
    n = len(h)
    for j in range(n - 2):
        k = j + 1
        piv = next((i for i in range(k, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != k:
            h[piv], h[k] = h[k], h[piv]
            for row in h:
                row[piv], row[k] = row[k], row[piv]
        inv = kern.inv(h[k][j])
        pivot = [(c, v) for c, v in enumerate(h[k]) if v]
        us = [(i, mul(h[i][j], inv)) for i in range(k + 1, n) if h[i][j]]
        for i, u in us:
            kern.addmul(h[i], 0, neg(u), pivot, 0)
        for row in h:
            for i, u in us:
                if row[i]:
                    row[k] = add(row[k], mul(u, row[i]))
    polys = [[1]]
    for k in range(n):
        p = [0] + polys[-1]   # y p_k
        terms, t = [(k, 1)], 1   # (i, h_(i+1,i) ... h_(k,k-1)), i = k first
        for i in range(k - 1, -1, -1):
            if not h[i + 1][i]:
                break
            t = mul(t, h[i + 1][i])
            terms.append((i, t))
        for i, t in terms:
            if h[i][k]:
                c = neg(mul(h[i][k], t))
                kern.addmul(p, 0, c, [(j, v) for j, v in enumerate(polys[i]) if v], 0)
        polys.append(p)
    return tuple(polys[-1])


def mat_mul_i(a, b, field):
    if not a or not b:
        return []
    kern = field.kernel()
    brows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        orow = [0] * len(b[0])
        for x, pairs in zip(row, brows):
            if x:
                kern.addmul(orow, 0, x, pairs, 0)
        out.append(orow)
    return out


def is_zero_matrix_i(rows):
    return all(not c for row in rows for c in row)
