import random
from fractions import Fraction

import pytest

from helpers import random_matrix
from mgimplicit import QMatrix, det_rational, nullspace_basis, rank
from oracles import det_cofactor, nullspace_oracle, rank_oracle


def test_rank_identity():
    assert rank(QMatrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(QMatrix.zeros(2, 3)) == 0


def test_rank_proportional_rows():
    assert rank(QMatrix([[1, 2], [2, 4]])) == 1


def test_rank_fractional_entries():
    m = QMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]])
    assert rank(m) == 2
    assert rank(QMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])) == 1


def test_nullspace_injective():
    assert nullspace_basis(QMatrix.identity(2)) == []


def test_nullspace_symmetric_difference():
    assert nullspace_basis(QMatrix([[1, -1]])) == [[1, 1]]


def test_nullspace_rank24_matrix_against_oracle():
    # random 24x32 matrix: full row rank (generic), kernel of dimension 8
    rng = random.Random(2024)
    data = random_matrix(24, 32, rng)
    m = QMatrix(data)
    assert rank(m) == 24 == rank_oracle(data)
    basis = nullspace_basis(m)
    assert len(basis) == 8
    assert basis == nullspace_oracle(data, 32)
    for v in basis:
        assert all(x == 0 for x in m.mul_vec(v))


def test_nullspace_of_zero_row_matrix():
    m = QMatrix([], cols=3)
    assert nullspace_basis(m) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_det_identity():
    assert det_rational(QMatrix.identity(4)) == 1


def test_det_transposition_sign():
    assert det_rational(QMatrix([[0, 1], [1, 0]])) == -1


def test_det_duplicate_row_is_zero():
    rng = random.Random(7)
    row = [rng.randint(-9, 9) for _ in range(5)]
    data = [row[:] for _ in range(2)] + random_matrix(3, 5, rng)
    assert det_rational(QMatrix(data)) == 0


def test_det_requires_square():
    with pytest.raises(ValueError):
        det_rational(QMatrix.zeros(2, 3))


@pytest.mark.parametrize("size", [5, 12, 25, 40])
def test_rank_equals_rank_of_transpose(size):
    rng = random.Random(size)
    data = random_matrix(size, size - rng.randint(0, 3), rng)
    m = QMatrix(data)
    assert rank(m) == rank(m.transpose())


@pytest.mark.parametrize("rows,cols", [(4, 7), (7, 4), (10, 10), (6, 13)])
def test_rank_nullity(rows, cols):
    rng = random.Random(rows * 100 + cols)
    for trial in range(5):
        m = QMatrix(random_matrix(rows, cols, rng, lo=-3, hi=3, fractions=trial % 2 == 1))
        basis = nullspace_basis(m)
        assert cols == rank(m) + len(basis)
        for v in basis:
            assert all(x == 0 for x in m.mul_vec(v))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_matches_cofactor_expansion(n):
    rng = random.Random(n)
    for _ in range(30):
        data = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        assert det_rational(QMatrix(data)) == det_cofactor(data)


def test_nullspace_matches_oracle_on_random_matrices():
    rng = random.Random(99)
    for _ in range(50):
        rows = rng.randint(1, 9)
        cols = rng.randint(1, 9)
        data = random_matrix(rows, cols, rng, lo=-4, hi=4)
        assert nullspace_basis(QMatrix(data)) == nullspace_oracle(data, cols)
