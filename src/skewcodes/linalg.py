"""Exact dense linear algebra over a FieldSpec.

Matrices are lists of rows.  The routines work on int grids of packed
indices; ``wrap`` boxes a grid once, where a public function returns it,
and ``unwrap`` (so ``matrix_rank``) also takes FieldElement grids.
Elimination (``rref_i``, behind the rank and the right kernel) and the
matrix product bind the field's kernel (FieldSpec.kernel) once per call and
make one row operation per row: a pivot step, or a scaled row added.
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


def right_kernel_i(rows, field):
    """Basis of {x : A x = 0} (column vectors, returned as rows) of a
    nonempty int grid A: one vector per non-pivot column of its RREF."""
    ncols = len(rows[0])
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
