import ast
import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import golden_instance, identity, mat_vec, over, random_matrix, random_p1p1_instance
from mgimplicit import QMatrix, eval_at, nullspace_basis, rank, representation_matrix, suggest_nu
from mgimplicit import linalg
from mgimplicit.implicitize import sample_parameter_point
from mgimplicit.linalg import _P, _Q, _bareiss, _echelon_mod, _kernel_certified
from oracles import det_cofactor, nullspace_oracle, rank_oracle

# the largest numerator and denominator that rational reconstruction
# modulo _Q recovers
BOUND = isqrt(_Q // 2)


def modular_rank(data, p):
    """Rank of the integer matrix ``data`` modulo the prime ``p``."""
    return len(_echelon_mod([[x % p for x in row] for row in data], len(data[0]), p))


def bareiss_det(data):
    """Determinant of a square integer matrix: ``sign`` times the last
    pivot of :func:`_bareiss`, or 0 when a pivot is missing."""
    n = len(data)
    work = [row[:] for row in data]
    pivots, sign = _bareiss(work, n)
    return sign * work[-1][-1] if len(pivots) == n else 0


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(QMatrix([[0] * 3] * 2)) == 0


def test_rank_proportional_rows():
    assert rank(QMatrix([[1, 2], [2, 4]])) == 1


def test_rank_fractional_entries():
    # the eliminations divide with //, which is wrong on Fractions
    with pytest.raises(TypeError, match=r"entry \(1, 0\) is Fraction\(1, 5\), not an int"):
        QMatrix([[2, 3], [Fraction(1, 5), 1]])


def test_linalg_is_an_integer_leaf_module():
    # denominators are cleared before a matrix is built, so linalg needs
    # neither fractions nor anything else of the package
    tree = ast.parse(Path(linalg.__file__).read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = {a.name for n in imports if isinstance(n, ast.Import) for a in n.names}
    names |= {n.module for n in imports if isinstance(n, ast.ImportFrom)}
    assert "fractions" not in names
    assert all(n.level == 0 for n in imports if isinstance(n, ast.ImportFrom))


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
    # column-primitive and singular modulo _P, so the pass modulo _P does
    # not decide
    assert modular_rank(data, _P) < 2
    assert rank(QMatrix(data)) == 2


def test_rank_singular_modulo_both_primes_fails_the_exact_check():
    # column-primitive with determinant _P * _Q, and symmetric, so its own
    # short side: the kernel vector (-1, 1) of its first row modulo _Q
    # reconstructs, but it does not annihilate that row over Z
    data = [[_P * _Q + 1, 1], [1, 1]]
    assert modular_rank(data, _P) == modular_rank(data, _Q) == 1
    assert not _kernel_certified(data, data[:1], 2)
    assert rank(QMatrix(data)) == 2


@pytest.mark.parametrize("k,certified", [(BOUND, True), (BOUND + 1, False)])
def test_rank_kernel_entry_at_the_reconstruction_bound(k, certified):
    # the third row is k times the first plus the second, so the left
    # kernel is spanned by (-k, -1, 1)
    data = [[1, 0, 1], [0, 1, 1], [k, 1, k + 1]]
    assert modular_rank(data, _P) == 2
    with mock.patch.object(linalg, "_bareiss", wraps=_bareiss) as spy:
        assert rank(QMatrix(data)) == 2
    assert spy.called is not certified


def _short_side_kernel_matrix(draw, big):
    """A square, wide or tall integer matrix of rank ``short - 1`` whose
    short side ``B`` (the transpose unless the matrix is tall) has the
    kernel ``x + [1]``: small entries, or with ``big`` a first entry beyond
    the reconstruction bound.  ``B`` holds the rows ``[e_j, -x_j]`` and
    random rows, shuffled; with ``big`` one ``x_j`` is ``1``, so that every
    column of ``B`` stays primitive and no content divides the big entry
    away."""
    shape = draw(st.sampled_from(["square", "wide", "tall"]))
    short = draw(st.integers(3 if big else 2, 5))
    long = short if shape == "square" else draw(st.integers(short + 1, 7))
    small = st.integers(-9, 9)
    x = draw(st.lists(small, min_size=short - 1, max_size=short - 1))
    if big:
        x[0] = draw(st.sampled_from([-1, 1])) * (BOUND + draw(st.integers(1, 2**60)))
        x[1] = 1
    rows = [[int(i == j) for i in range(short - 1)] for j in range(short - 1)]
    extra = long - short + 1
    rows += draw(st.lists(st.lists(small, min_size=short - 1, max_size=short - 1), min_size=extra, max_size=extra))
    b = draw(st.permutations([row + [-sum(map(mul, x, row))] for row in rows]))
    return b if shape == "tall" else [list(col) for col in zip(*b)]


@st.composite
def rank_inputs(draw):
    """Matrices of seven kinds: big integers, columns with large common
    factors, rational rows times the lcm of their denominators,
    rank-deficient products of thin matrices, those products plus ``_P``
    times a matrix (deficient modulo ``_P``, usually not over Q), and
    rank-deficient square, wide and tall matrices whose short-side kernel
    is a small integer vector (the kernel certificate decides) or has an
    entry beyond its reconstruction bound (it falls back to Bareiss)."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    kinds = ["big", "content", "fraction", "thin", "thin_plus_p", "small_kernel", "big_kernel"]
    kind = draw(st.sampled_from(kinds))
    if kind.endswith("_kernel"):
        return _short_side_kernel_matrix(draw, kind == "big_kernel")

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
        data = matrix(rows, cols, st.fractions(max_denominator=2**40))
        mults = [lcm(*(x.denominator for x in row)) for row in data]
        return [[int(x * k) for x in row] for row, k in zip(data, mults)]
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
    assert rank(m) == rank_oracle(data) == len(_bareiss([row[:] for row in m.data], cols)[0])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data(), st.booleans())
def test_kernel_certificate_decides_exactly_the_small_kernels(data, big):
    m = QMatrix(_short_side_kernel_matrix(data.draw, big))
    with mock.patch.object(linalg, "_bareiss", wraps=_bareiss) as spy:
        assert rank(m) == rank_oracle(m.data) == min(m.rows, m.cols) - 1
    assert spy.called is big


def _on_surface_matrices(inst, nu, count, seed):
    """``M_nu`` specialized at ``T = f(p)`` for ``count`` seeded points ``p``."""
    m = representation_matrix(inst, nu)
    rng = random.Random(seed)
    points = [sample_parameter_point(inst.ring, rng) for _ in range(count)]
    return [m.specialize([eval_at(f, p) for f in inst.f]) for p in points]


@pytest.mark.parametrize(
    "make,nu,shape",
    [
        (golden_instance, (3, 1), (8, 8)),
        (lambda: random_p1p1_instance(3, 3, random.Random(33)), None, (18, 18)),
    ],
    ids=["golden_3_1", "p1p1_3_3"],
)
def test_on_surface_ranks_never_reach_bareiss(make, nu, shape, monkeypatch):
    # the strand monomials at p are a small left-kernel vector of M_nu(f(p)),
    # so the kernel certificate decides these ranks
    inst = make()
    nu = nu or suggest_nu(inst.blocks, inst.gamma)
    mats = _on_surface_matrices(inst, nu, 3, seed=1)
    expected = [rank_oracle(m.data) for m in mats]
    assert (mats[0].rows, mats[0].cols) == shape and all(r < shape[0] for r in expected)

    def no_bareiss(*args, **kwargs):
        raise AssertionError("fell back to Bareiss")

    monkeypatch.setattr(linalg, "_bareiss", no_bareiss)
    assert [rank(m) for m in mats] == expected


def test_nullspace_injective():
    assert nullspace_basis(identity(2)) == (1, [])


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
        assert not any(mat_vec(m, v))


def test_nullspace_of_zero_row_matrix():
    m = QMatrix([], cols=3)
    assert nullspace_basis(m) == (1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_det_identity():
    assert bareiss_det(identity(4).data) == 1


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
    assert rank(m) == rank(QMatrix(list(zip(*data))))


@pytest.mark.parametrize("rows,cols", [(4, 7), (7, 4), (10, 10), (6, 13)])
def test_rank_nullity(rows, cols):
    rng = random.Random(rows * 100 + cols)
    for _ in range(5):
        m = QMatrix(random_matrix(rows, cols, rng, lo=-3, hi=3))
        den, basis = nullspace_basis(m)
        assert cols == rank(m) + len(basis)
        assert den > 0 and gcd(den, *(x for v in basis for x in v)) == 1
        for v in basis:
            assert not any(mat_vec(m, v))


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
