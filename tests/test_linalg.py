import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import over, random_matrix
from mgimplicit import QMatrix, nullspace_basis, rank
from mgimplicit.linalg import _P, _bareiss, _full_rank_mod_p, _integer_rows
from oracles import det_cofactor, nullspace_oracle, rank_oracle


def bareiss_det(data):
    """Determinant of a square integer matrix: ``sign`` times the last
    pivot of :func:`_bareiss`, or 0 when a pivot is missing."""
    n = len(data)
    work = [row[:] for row in data]
    pivots, sign = _bareiss(work, n)
    return sign * work[-1][-1] if len(pivots) == n else 0


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


def test_rank_strips_a_column_factor_of_the_prime():
    assert rank(QMatrix([[_P, 0], [0, 1]])) == 2


@pytest.mark.parametrize(
    "data",
    [
        [[_P, 0], [1, 1]],
        [[1, 1], [1, 1 + _P]],
        [[1, 2, 3], [1 + _P, 2, 3 + _P]],
    ],
)
def test_rank_full_over_q_but_not_modulo_the_prime(data):
    # column-primitive and singular modulo _P, so Bareiss decides
    assert not _full_rank_mod_p(data, len(data[0]))
    assert rank(QMatrix(data)) == 2


@st.composite
def rank_inputs(draw):
    """Matrices of five kinds: big integers, columns with large common
    factors, fractions, rank-deficient products of thin matrices, and
    those products plus ``_P`` times a matrix (deficient modulo ``_P``,
    usually not over Q)."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["big", "content", "fraction", "thin", "thin_plus_p"]))

    def matrix(r, c, entries):
        return draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))

    small = st.integers(-9, 9)
    if kind == "big":
        return matrix(rows, cols, st.integers(-(2**250), 2**250))
    if kind == "content":
        base = matrix(rows, cols, small)
        factors = draw(st.lists(st.integers(1, 2**200) | st.just(_P), min_size=cols, max_size=cols))
        return [[x * g for x, g in zip(row, factors)] for row in base]
    if kind == "fraction":
        return matrix(rows, cols, st.fractions(max_denominator=2**40))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    left = matrix(rows, inner, small)
    right = matrix(inner, cols, small)
    columns = list(zip(*right)) if inner else [()] * cols
    data = [[sum(map(mul, row, col)) for col in columns] for row in left]
    if kind == "thin_plus_p":
        noise = matrix(rows, cols, small)
        data = [[x + _P * y for x, y in zip(row, nrow)] for row, nrow in zip(data, noise)]
    return data


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rank_inputs())
def test_rank_matches_oracle_and_plain_bareiss(data):
    cols = len(data[0])
    m = QMatrix(data)
    cleared = _integer_rows(m)
    assert rank(m) == rank_oracle(data) == len(_bareiss(cleared, cols)[0])


def test_nullspace_injective():
    assert nullspace_basis(QMatrix.identity(2)) == (1, [])


def test_nullspace_symmetric_difference():
    assert nullspace_basis(QMatrix([[1, -1]])) == (1, [[1, 1]])


def test_nullspace_clears_denominators_once():
    # the canonical basis [-1/2, 1, 0], [-1/3, 0, 1] over its lcd 6
    assert nullspace_basis(QMatrix([[6, 3, 2]])) == (6, [[-3, 6, 0], [-2, 0, 6]])


def test_nullspace_rank24_matrix_against_oracle():
    # random 24x32 matrix: full row rank (generic), kernel of dimension 8
    rng = random.Random(2024)
    data = random_matrix(24, 32, rng)
    m = QMatrix(data)
    assert rank(m) == 24 == rank_oracle(data)
    den, basis = nullspace_basis(m)
    assert len(basis) == 8
    assert over(den, basis) == nullspace_oracle(data, 32)
    for v in basis:
        assert all(x == 0 for x in m.mul_vec(v))


def test_nullspace_of_zero_row_matrix():
    m = QMatrix([], cols=3)
    assert nullspace_basis(m) == (1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_det_identity():
    assert bareiss_det(QMatrix.identity(4).data) == 1


def test_det_transposition_sign():
    assert bareiss_det([[0, 1], [1, 0]]) == -1


def test_det_duplicate_row_is_zero():
    rng = random.Random(7)
    row = [rng.randint(-9, 9) for _ in range(5)]
    data = [row[:] for _ in range(2)] + random_matrix(3, 5, rng)
    assert bareiss_det(data) == 0


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
        den, basis = nullspace_basis(m)
        assert cols == rank(m) + len(basis)
        assert den > 0 and gcd(den, *(x for v in basis for x in v)) == 1
        for v in basis:
            assert all(x == 0 for x in m.mul_vec(v))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_matches_cofactor_expansion(n):
    rng = random.Random(n)
    for _ in range(30):
        data = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(data) == det_cofactor(data)


def test_nullspace_matches_oracle_on_random_matrices():
    rng = random.Random(99)
    for _ in range(50):
        rows = rng.randint(1, 9)
        cols = rng.randint(1, 9)
        data = random_matrix(rows, cols, rng, lo=-4, hi=4)
        den, basis = nullspace_basis(QMatrix(data))
        assert over(den, basis) == nullspace_oracle(data, cols)
        # den is the least common denominator of the canonical basis
        assert den > 0 and gcd(den, *(x for v in basis for x in v)) == 1
        # clearing above the pivots changes neither the pivots nor the sign
        echelon = [row[:] for row in data]
        reduced = [row[:] for row in data]
        assert _bareiss(reduced, cols, reduce=True) == _bareiss(echelon, cols)
