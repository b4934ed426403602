"""Exact dense linear algebra over a FieldSpec.

Matrices are lists of rows.  Public helpers accept FieldElement grids and
unwrap to packed indices; the elimination kernels work on int rows so that
the distance oracle and rank sweeps stay fast.  Elimination and the matrix
product bind the field's flat kernel once per call and multiply in the log
domain; fields above the 2^16 table limit take a per-call branch.
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
    ncols = len(m[0])
    kern = field.kernel()
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if kern is None:   # above the table limit: one field call per step
            _eliminate_slow(m, r, col, field)
        else:
            _eliminate(m, r, col, kern)
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _eliminate(m, r, col, kern):
    """Scale row r to a unit pivot at col and clear col in every other row,
    in place, in the log domain."""
    exp, log, n, half, _, add = kern
    lc = -log[m[r][col]] % n
    if lc:
        m[r] = [exp[lc + log[v]] if v else 0 for v in m[r]]
    prow = [(k, log[v]) for k, v in enumerate(m[r]) if v]
    for i, row in enumerate(m):
        if i != r and row[col]:
            lf = (log[row[col]] + half) % n   # log of -row[col]
            if add is None:
                for k, lw in prow:
                    row[k] ^= exp[lf + lw]
            else:
                for k, lw in prow:
                    row[k] = add(row[k], exp[lf + lw])


def _eliminate_slow(m, r, col, field):
    mul, sub = field.mul_i, field.sub_i
    c = field.inv_i(m[r][col])
    if c != 1:
        m[r] = [mul(c, v) for v in m[r]]
    for i in range(len(m)):
        if i != r and m[i][col]:
            factor = m[i][col]
            m[i] = [sub(v, mul(factor, w)) for v, w in zip(m[i], m[r])]


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


def mat_mul_i(a, b, field):
    if not a or not b:
        return []
    kern = field.kernel()
    bt = list(zip(*b))
    out = []
    if kern is None:   # above the table limit: one field call per step
        mul, add = field.mul_i, field.add_i
        for row in a:
            orow = []
            for col in bt:
                acc = 0
                for x, y in zip(row, col):
                    if x and y:
                        acc = add(acc, mul(x, y))
                orow.append(acc)
            out.append(orow)
        return out
    exp, log, _, _, _, add = kern
    lbt = [[log[y] if y else None for y in col] for col in bt]
    for row in a:
        lrow = [(k, log[x]) for k, x in enumerate(row[:len(b)]) if x]
        orow = []
        for lcol in lbt:
            acc = 0
            for k, lx in lrow:
                ly = lcol[k]
                if ly is not None:
                    v = exp[lx + ly]
                    acc = acc ^ v if add is None else add(acc, v)
            orow.append(acc)
        out.append(orow)
    return out


def is_zero_matrix_i(rows):
    return all(not c for row in rows for c in row)
