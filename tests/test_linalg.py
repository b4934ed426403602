"""The int-grid linear algebra of ``linalg`` against the naive arithmetic of
``oracle_utils``: Gaussian elimination and products on ``naive_mul`` and
``naive_add``, which never touch the field kernel that ``rref_i``,
``right_kernel_i`` and ``mat_mul_i`` bind.  The fields cover XOR tables
(F4, F16), odd tables (F9, F27) and the polynomial kernel above the table
limit (F_2^17)."""

import random

import pytest

from skewcodes.linalg import mat_mul_i, matrix_rank, rank_i, right_kernel_i, rref_i, wrap
from oracle_utils import naive_mat_mul, naive_rank

FIELDS = ["F4", "F9", "F16", "F27", "F2_17"]
SHAPES = [(1, 4), (2, 2), (3, 3), (3, 5), (4, 2), (4, 6)]


def _grids(F, seed):
    """Seeded grids of every shape, each also with a row that is a
    combination of the others, so that every shape has rank deficits."""
    rng = random.Random(seed)
    for rows_n, cols_n in SHAPES:
        for _ in range(3):
            rows = [[rng.randrange(F.order) if rng.random() < 0.7 else 0
                     for _ in range(cols_n)] for _ in range(rows_n)]
            yield rows
            yield rows + naive_mat_mul([[rng.randrange(F.order) for _ in rows]], rows, F)


def _is_zero(column):
    return all(c == [0] for c in column)


@pytest.mark.parametrize("name", FIELDS)
def test_rref_and_rank_against_naive_elimination(name, field_named):
    """rref_i is reduced echelon (unit pivots in increasing columns, each
    pivot column zero off its pivot) and spans the input's row space."""
    F = field_named(name)
    for rows in _grids(F, name):
        rank = naive_rank(rows, F)
        red, pivots = rref_i(rows, F)
        assert rank_i(rows, F) == matrix_rank(wrap(rows, F), F) == len(red) == rank
        assert pivots == sorted(set(pivots)) and len(pivots) == rank
        for r, pc in enumerate(pivots):
            assert [row[pc] for row in red] == [int(i == r) for i in range(rank)]
            assert all(not c for c in red[r][:pc])
        assert naive_rank(rows + red, F) == rank and naive_rank(red, F) == rank


@pytest.mark.parametrize("name", FIELDS)
def test_right_kernel_is_an_annihilated_basis(name, field_named):
    """Every basis vector v has A v = 0, and the basis holds ncols - rank
    independent vectors."""
    F = field_named(name)
    for rows in _grids(F, name):
        basis = right_kernel_i(rows, F)
        assert len(basis) == len(rows[0]) - naive_rank(rows, F)
        assert naive_rank(basis, F) == len(basis)
        for v in basis:
            assert _is_zero(naive_mat_mul(rows, [[x] for x in v], F))


@pytest.mark.parametrize("name", FIELDS)
def test_mat_mul_against_naive_products(name, field_named):
    F = field_named(name)
    rng = random.Random(name)
    for rows in _grids(F, name):
        other = [[rng.randrange(F.order) for _ in range(3)] for _ in rows[0]]
        assert mat_mul_i(rows, other, F) == naive_mat_mul(rows, other, F)
    assert mat_mul_i([], [[1]], F) == mat_mul_i([[1]], [], F) == []
