import ast
import random
import re
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    cayley_instances,
    differentials,
    golden_instance,
    identity,
    mat_vec,
    over,
    random_instance,
    random_matrix,
    random_p1p1_instance,
)
from mgimplicit import QMatrix, eval_at, nullspace_basis, rank, representation_matrix, strand_determinant, suggest_nu
from mgimplicit import implicitize, linalg
from mgimplicit.complexes import LinearFormMatrix, koszul_differential_strand
from mgimplicit.implicitize import _parameter_points, sample_parameter_point
from mgimplicit.linalg import _P, _Q, Slices, _bareiss, _echelon_mod, _lifted_kernel, _pack, _unpack
from oracles import (
    bareiss_gauss_jordan,
    det_cofactor,
    echelon_mod_oracle,
    lll_saturation_violation,
    nullspace_gauss_jordan,
    nullspace_oracle,
    rank_oracle,
)

# the largest numerator and denominator that rational reconstruction
# modulo _Q recovers
BOUND = isqrt(_Q // 2)


def modular_rank(data, p):
    """Rank of the integer matrix ``data`` modulo the Mersenne prime ``p``."""
    return len(_echelon_mod(_pack(data, p), len(data[0]), p)[0])


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


def _is_dot_product(node):
    """Whether ``node`` is ``sum(map(mul, a, b))``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name)
        and node.args[0].func.id == "map"
        and bool(node.args[0].args)
        and isinstance(node.args[0].args[0], ast.Name)
        and node.args[0].args[0].id == "mul"
    )


def test_modular_kernels_are_lifted_and_checked_in_one_place():
    # a kernel modulo a prime is trusted only through _lifted_kernel, and a
    # plain exact annihilation test (any or all over dot products) is
    # written once, in _annihilated; Slices.annihilates, the packed check
    # of a specialization, tests one integer and no dot product
    callers = {"_kernel_mod": set(), "_lift": set()}
    loops = set()
    for module in (linalg, implicitize):
        tree = ast.parse(Path(module.__file__).read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                if node.func.id in callers:
                    callers[node.func.id].add(fn.name)
                if node.func.id in ("any", "all") and any(map(_is_dot_product, ast.walk(node))):
                    loops.add(fn.name)
    assert callers == {"_kernel_mod": {"_lifted_kernel"}, "_lift": {"_lifted_kernel"}}
    assert loops == {"_annihilated"}


def packed_echelon(rows, cols, p):
    """:func:`_echelon_mod` with its pivot rows unpacked, reduced modulo
    ``p`` and indexed by column (zero left of each pivot)."""
    pivots, echelon = _echelon_mod(_pack(rows, p), cols, p)
    return pivots, [[0] * pc + [x % p for x in row] for row, pc in zip(_unpack(pivots, echelon, cols, p), pivots)]


def modular_kernel(pivots, echelon, cols, p):
    """The kernel modulo ``p`` of the echelon rows ``echelon`` (row ``i``
    read from column ``pivots[i]`` on), one vector per free column, 1 there
    and 0 at the other free columns."""
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[fc] = 1
        for row, pc in reversed(list(zip(echelon, pivots))):
            if pc < fc:
                v[pc] = -sum(row[j] * v[j] for j in range(pc + 1, fc + 1)) * pow(row[pc], -1, p) % p
        basis.append(v)
    return basis


@st.composite
def modular_inputs(draw):
    """A Mersenne prime ``p`` (``_P`` or ``_Q``), integer rows and their
    width: entries up to ``2**200`` in size, exact multiples of ``p``,
    entries congruent to ``-1`` and small ones; dense, made of residues
    ``-1``, ``0`` and ``1`` only (pivots and heads of ``-1`` drive the
    slots to their fold bound), rank-deficient modulo ``p`` (a product
    through a thinner inner dimension plus multiples of ``p``), with no
    rows or no columns, or at least 200 columns wide."""
    p = draw(st.sampled_from([_P, _Q]))
    kind = draw(st.sampled_from(["dense", "units", "deficient", "no_rows", "no_cols", "wide"]))
    multiples = st.integers(-3, 3).map(lambda c: c * p)
    entries = st.integers(-(2**200), 2**200) | st.integers(-9, 9) | multiples | multiples.map(lambda x: x - 1)
    if kind == "units":
        entries = st.builds(lambda x, d: x + d, multiples, st.sampled_from([-1, 0, 1]))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def matrix(r, c, elements):
        return draw(st.lists(st.lists(elements, min_size=c, max_size=c), min_size=r, max_size=r))

    if kind == "no_rows":
        return p, [], cols
    if kind == "no_cols":
        return p, [[]] * rows, 0
    if kind == "wide":
        # drawing hundreds of entries one by one is slow; pick them from a
        # drawn pool with a drawn generator instead
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(200, 230))
        pool = draw(st.lists(entries, min_size=1, max_size=12))
        rng = draw(st.randoms(use_true_random=False))
        return p, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)], cols
    if kind in ("dense", "units"):
        return p, matrix(rows, cols, entries), cols
    inner = draw(st.integers(0, min(rows, cols) - 1))
    small = st.integers(-9, 9) | st.just(p - 1)
    left, right = matrix(rows, inner, small), matrix(inner, cols, small)
    columns = list(zip(*right)) if inner else [()] * cols
    noise = matrix(rows, cols, multiples)
    return p, [[sum(map(mul, row, col)) + y for col, y in zip(columns, nrow)] for row, nrow in zip(left, noise)], cols


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(modular_inputs())
def test_packed_echelon_matches_the_list_elimination(case):
    p, rows, cols = case
    before = [row[:] for row in rows]
    pivots, echelon = packed_echelon(rows, cols, p)
    assert rows == before
    expected_pivots, expected = echelon_mod_oracle(rows, cols, p)
    assert pivots == expected_pivots
    kernel = modular_kernel(pivots, echelon, cols, p)
    assert kernel == modular_kernel(expected_pivots, expected, cols, p)
    assert all(sum(map(mul, row, v)) % p == 0 for row in rows for v in kernel)


@pytest.mark.parametrize("p", [1073741789, 2**31, 10])
def test_echelon_mod_refuses_a_modulus_not_of_the_form_2k_minus_1(p):
    # the folds reduce modulo 2**k - 1 and nothing else
    with pytest.raises(ValueError, match="Mersenne"):
        _echelon_mod(_pack([[1, 2]], p), 2, p)


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


@pytest.mark.parametrize("p", [_P, _Q], ids=["P", "Q"])
def test_rank_singular_modulo_both_primes_fails_the_exact_check(p):
    # column-primitive with determinant _P * _Q, and symmetric, so its own
    # short side: the kernel vector (-1, 1) of its first row modulo either
    # prime reconstructs, but it does not annihilate that row over Z
    data = [[_P * _Q + 1, 1], [1, 1]]
    assert modular_rank(data, _P) == modular_rank(data, _Q) == 1
    assert _lifted_kernel(_pack(data[:1], p), 2, p, lambda v: not any(sum(map(mul, row, v)) for row in data)) is None
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
    column of ``B`` is primitive and no scaling of a column could divide
    the big entry away."""
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
    points = [dict(zip(inst.ring.names, sample_parameter_point(inst.ring, rng))) for _ in range(count)]
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
        assert bareiss_gauss_jordan(reduced, cols) == _bareiss(echelon, cols)


@st.composite
def kernel_matrices(draw):
    """Square, wide, tall or rank-deficient (a product through a thinner
    inner dimension) integer matrices with entries up to 2**64, or a matrix
    with no rows or no columns."""
    kind = draw(st.sampled_from(["square", "wide", "tall", "deficient", "empty"]))
    short = draw(st.integers(1, 8))
    long = draw(st.integers(short + 1, 10))
    rows, cols = {"square": (short, short), "wide": (short, long), "tall": (long, short)}.get(kind, (short, long - 1))
    entries = st.integers(-(2**64), 2**64) | st.integers(-9, 9)

    def matrix(r, c):
        return draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))

    if kind == "empty":
        return draw(st.sampled_from([QMatrix([], cols=cols), QMatrix([[]] * rows)]))
    if kind != "deficient":
        return QMatrix(matrix(rows, cols))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    left = matrix(rows, inner)
    columns = list(zip(*matrix(inner, cols))) if inner else [()] * cols
    return QMatrix([[sum(map(mul, row, col)) for col in columns] for row in left])


@st.composite
def koszul_strands(draw):
    """``koszul_differential_strand(inst, q, nu + q * gamma)``, q = 1 or 2,
    at the suggested ``nu`` of a Cayley-property instance: the kernels whose
    bases are the sources of ``d_1 = M_nu`` and of ``d_2``."""
    inst = draw(cayley_instances())
    q = draw(st.sampled_from([1, 2]))
    nu = suggest_nu(inst.blocks, inst.gamma)
    return koszul_differential_strand(inst, q, [a + q * g for a, g in zip(nu, inst.gamma)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(kernel_matrices(), koszul_strands()))
def test_nullspace_back_substitution_matches_gauss_jordan(m):
    assert nullspace_basis(m) == nullspace_gauss_jordan(m)


R1, R2 = [1, 2, 3, 4], [2, 3, 5, 7]


@pytest.mark.parametrize(
    "data,eliminated",
    [
        # rank 2: the kernel of the two rows with modular pivots, lifted
        # from its residues modulo _P, is the whole kernel; nothing is
        # eliminated exactly
        ([R1, R2, [a + b for a, b in zip(R1, R2)], [a - b for a, b in zip(R1, R2)], [3 * a for a in R1]], []),
        # rank 3 over Q, but the third row is the first modulo _P: the lifted
        # kernel of the two selected rows misses the third row, so the two
        # rows are eliminated; their kernel misses it too, so all five are
        ([R1, R2, [R1[0] + _P] + R1[1:], [a + b for a, b in zip(R1, R2)], [2 * b for b in R2]], [2, 5]),
    ],
    ids=["selected_rows", "fallback"],
)
def test_tall_nullspace_eliminates_the_selected_rows_or_all(data, eliminated):
    m = QMatrix(data)
    assert modular_rank(data, _P) == 2
    with mock.patch.object(linalg, "_bareiss", wraps=_bareiss) as spy:
        assert nullspace_basis(m) == nullspace_gauss_jordan(m)
    assert [len(call.args[0]) for call in spy.call_args_list] == eliminated


# the largest numerator and denominator that rational reconstruction
# modulo _P recovers
BOUND_P = isqrt(_P // 2)


@st.composite
def tall_kernels(draw):
    """``(lifts, m)``: a tall integer matrix ``m``, and ``False`` when its
    kernel cannot be lifted from its residues modulo ``_P`` (else
    ``None``, undecided).  Either a product through a thin inner
    dimension, with entries up to 2**64; or ``[B | B c]`` with ``B`` an
    identity over random rows, whose kernel is spanned by ``(-c, 1)``
    with every ``|c_i|`` beyond ``BOUND_P**(cols + 1)``, which no lifted
    vector reaches (each entry is at most ``BOUND_P`` times the product
    of at most ``cols`` reconstructed denominators); or
    ``koszul_differential_strand(inst, q, nu + q * gamma)``, q = 2 or 3,
    at the suggested ``nu`` of a Cayley-property instance."""
    kind = draw(st.sampled_from(["thin", "unliftable", "koszul"]))
    if kind == "koszul":
        inst = draw(cayley_instances())
        q = min(draw(st.sampled_from([2, 3])), len(inst.f))
        nu = suggest_nu(inst.blocks, inst.gamma)
        return None, koszul_differential_strand(inst, q, [a + q * g for a, g in zip(nu, inst.gamma)])
    cols = draw(st.integers(1 if kind == "thin" else 2, 7))
    rows = draw(st.integers(cols + 1, 12))
    small = st.integers(-9, 9)

    def matrix(r, c, entries):
        return draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))

    if kind == "thin":
        inner = draw(st.integers(0, cols - 1))
        left = matrix(rows, inner, small | st.integers(-(2**64), 2**64))
        columns = list(zip(*matrix(inner, cols, small))) if inner else [()] * cols
        return None, QMatrix([[sum(map(mul, row, col)) for col in columns] for row in left])
    n = cols - 1
    b = [[int(i == j) for j in range(n)] for i in range(n)] + matrix(rows - n, n, small)
    top = BOUND_P ** (cols + 1)
    c = [draw(st.sampled_from([1, -1])) * draw(st.integers(top + 1, 2**64 * top)) for _ in range(n)]
    return False, QMatrix([row + [sum(map(mul, row, c))] for row in b])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tall_kernels())
def test_tall_nullspace_lifts_the_modular_kernel_or_falls_back(case):
    lifts, m = case
    assert m.rows > m.cols
    with mock.patch.object(linalg, "_bareiss", wraps=_bareiss) as spy:
        assert nullspace_basis(m) == nullspace_gauss_jordan(m)
    if lifts is False:
        assert spy.called


def test_nullspace_back_substitution_refuses_an_inexact_division(monkeypatch):
    # a correct echelon form divides exactly; one with a pivot tripled
    # behind the elimination's back does not, and must not pass silently
    def broken(work, cols):
        found = _bareiss(work, cols)
        work[0][0] *= 3
        return found

    monkeypatch.setattr(linalg, "_bareiss", broken)
    with pytest.raises(ArithmeticError, match="remainder"):
        nullspace_basis(QMatrix([[1, 0, 1], [0, 1, 1]]))


# -- ranks of specializations, on the residues of their slices -----------------

# scalars of a point: zero, units, the certificate primes and their product
# (which make every residue vanish), and one beyond any exact slot
SCALARS = [0, 1, -1, 2, -7, _P, -_P, _Q, _P * _Q, 2**300 + 1]
POINT_VALUES = (
    st.sampled_from(SCALARS)
    | st.integers(-9, 9)
    | st.integers(-(2**64), 2**64)
    | st.builds(mul, st.sampled_from([_P, _Q, _P * _Q]), st.integers(-3, 3))
)


def _targets(n):
    return tuple(f"T_{t}" for t in range(n))


@st.composite
def specializations(draw):
    """``(m, values)``: a matrix of linear forms in up to ten targets (more
    than seven fold a residue midway) and an integer point.  Its slices are
    random, with entries up to ``2**200`` in size, multiples of the primes
    or residues ``-1``; or products ``A B_t`` through a thin ``A``, so
    that every specialization is rank-deficient; or ``M_nu`` of a
    Cayley-property instance at an image point ``f(p)``, where its rank
    drops, times a scalar that may be a multiple of the primes or beyond
    the exact slots.  Shapes are wide, tall or square, with no rows or no
    columns among them."""
    kind = draw(st.sampled_from(["random", "thin", "surface"]))
    if kind == "surface":
        inst = draw(cayley_instances())
        m = representation_matrix(inst, suggest_nu(inst.blocks, inst.gamma), warn_region=False)
        values = next(v for _, v in _parameter_points(inst, draw(st.integers(0, 99))) if any(v))
        scale = draw(st.sampled_from(SCALARS[1:]))
        return m, [scale * v for v in values]
    rows, cols, n = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 10))
    multiples = st.builds(mul, st.sampled_from([_P, _Q]), st.integers(-3, 3))
    entries = (
        st.integers(-9, 9)
        | st.integers(-(2**200), 2**200)
        | multiples
        | multiples.map(lambda x: x - 1)
    )

    def matrix(r, c, elements=entries):
        return draw(st.lists(st.lists(elements, min_size=c, max_size=c), min_size=r, max_size=r))

    if kind == "random" or min(rows, cols) == 0:
        slices = [matrix(rows, cols) for _ in range(n)]
    else:
        # M_t = A B_t with A thin: every M(y) has rank <= inner
        inner = draw(st.integers(0, min(rows, cols) - 1))
        thin = matrix(rows, inner, st.integers(-9, 9))
        slices = []
        for _ in range(n):
            b = matrix(inner, cols, st.integers(-9, 9) | st.integers(-(2**70), 2**70))
            columns = list(zip(*b)) if inner else [()] * cols
            slices.append([[sum(map(mul, row, col)) for col in columns] for row in thin])
    values = draw(st.lists(POINT_VALUES, min_size=n, max_size=n))
    return LinearFormMatrix(rows, cols, _targets(n), slices, den=1), values


def _slots(x, count, p):
    w = 2 * p.bit_length() + 3
    return [x >> (w * j) & ((1 << w) - 1) for j in range(count)]


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(specializations())
def test_specialized_rank_matches_the_plain_matrix(case):
    m, values = case
    spec = m.specialize(values)
    found = rank(spec)
    data = spec.data
    assert found == rank(QMatrix(data, cols=m.cols)) == rank_oracle(data)
    assert found == len(_bareiss([row[:] for row in data], m.cols)[0])
    # the residues are those of the entries, in slots that _echelon_mod
    # takes; the columns modulo _Q are read only when there are rows
    wide = data if m.rows <= m.cols else [list(col) for col in zip(*data)]
    residues = [(_P, m.residues(values, _P), wide)]
    if wide:
        residues.append((_Q, m.residues(values, _Q, range(m.long)), list(zip(*wide))))
    for p, packed, vectors in residues:
        assert len(packed) == len(vectors)
        for x, vector in zip(packed, vectors):
            slots = _slots(x, len(vector), p)
            assert all(a < 2 ** (p.bit_length() + 1) for a in slots)
            assert [a % p for a in slots] == [a % p for a in vector]
            assert x >> (len(vector) * (2 * p.bit_length() + 3)) == 0


def test_residues_of_extreme_slots_are_folded():
    # residues -1 times values -1, in ten slices: each product slot is
    # (p - 1)**2, the largest there is, and seven of them need both folds
    for p in (_P, _Q):
        for n in (1, 7, 8, 10):
            (x,) = Slices([[[p - 1]]] * n, 1, 1).residues([-1] * n, p, range(1))
            assert x < 2 ** (p.bit_length() + 1) and x % p == n % p


def _golden_m():
    inst = golden_instance()
    return inst, representation_matrix(inst, (3, 1))


def test_full_rank_and_on_surface_queries_never_build_entries():
    inst, m = _golden_m()
    off = m.specialize([1, 2, 3, 5])
    on = m.specialize(next(v for _, v in _parameter_points(inst, 1) if any(v)))
    with mock.patch.object(linalg, "_bareiss", wraps=_bareiss) as spy:
        assert rank(off) == 8
        assert rank(on) == 7
    assert not spy.called
    assert off._data is None and on._data is None


def test_oversize_point_falls_back_to_bareiss(monkeypatch):
    # the same projective point times 2**300: its kernel vector is the
    # same, but sum |y| leaves no room in the exact slots, so every check
    # refuses, the strand monomials lifted modulo _P as well as the
    # kernel modulo _Q, and Bareiss decides once
    inst, m = _golden_m()
    values = next(v for _, v in _parameter_points(inst, 1) if any(v))
    spec = m.specialize([2**300 * v for v in values])
    results = []
    check = Slices.annihilates
    monkeypatch.setattr(Slices, "annihilates", lambda *args: results.append(check(*args)) or results[-1])
    with mock.patch.object(linalg, "_bareiss", wraps=_bareiss) as spy:
        assert rank(spec) == 7
    assert results == [False, False]
    assert spy.call_count == 1


# a 4x5 matrix of linear forms with slices A B_t through the 4x2 A: every
# specialization has rank at most 2, and THIN_KERNEL^T A = 0
THIN = [[1, 0], [0, 1], [1, 1], [1, -1]]
THIN_KERNEL = [1, 1, -1, 0]


def _thin_m():
    b = [[[3, 1, 4, 1, 5], [9, 2, 6, 5, 3]], [[5, 8, 9, 7, 9], [3, 2, 3, 8, 4]]]
    slices = [[[sum(map(mul, row, col)) for col in zip(*b_t)] for row in THIN] for b_t in b]
    return LinearFormMatrix(4, 5, ("T_0", "T_1"), slices, den=1)


@pytest.mark.parametrize("case", ["monomials", "wrong", "zero", "drop_by_two"])
def test_kernel_candidate_never_changes_the_rank(case):
    # the strand monomials at p are a left kernel vector of M_nu(f(p)) and
    # prove its rank drop by one with no kernel modulo _Q; any other
    # candidate leaves the rank to the certificate modulo _Q
    if case == "drop_by_two":
        spec, kernel, expected = _thin_m().specialize([2, -3]), THIN_KERNEL, 2
    else:
        inst, m = _golden_m()
        point, values = next(pv for pv in _parameter_points(inst, 1) if any(pv[1]))
        kernel = [prod(map(pow, point, u)) for u in m.row_monomials]
        spec, expected = m.specialize(values), 7
        kernel = {"monomials": kernel, "wrong": [kernel[0] + 1] + kernel[1:], "zero": [0] * 8}[case]
    with mock.patch.object(linalg, "_lifted_kernel", wraps=_lifted_kernel) as spy:
        assert rank(spec, kernel) == expected
    assert spy.called == (case != "monomials")
    assert rank(spec) == rank(QMatrix(spec.data), kernel) == expected
    with pytest.raises(ValueError, match="entries"):
        rank(spec, kernel + [0])


def test_specialize_refuses_a_non_integer_value_before_building_entries(monkeypatch):
    m = LinearFormMatrix(2, 2, ("T_0", "T_1"), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], den=1)

    def no_entries(*args):
        raise AssertionError("built the entries")

    monkeypatch.setattr(Slices, "evaluate", no_entries)
    with pytest.raises(TypeError, match=re.escape("Fraction(1, 2)")):
        m.specialize([1, Fraction(1, 2)])


def _quadric_net_m():
    """``M_2`` of four ternary quadrics, ``6 x 9``: wide."""
    inst = random_instance([["x", "y", "z"]], (2,), 4, random.Random(3))
    m = representation_matrix(inst, (2,), warn_region=False)
    assert (m.rows, m.cols) == (6, 9)
    return m


def test_ranks_at_two_points_pack_the_slices_once():
    # the columns of each slice modulo _P, packed once and kept on m; a
    # square matrix eliminates all of them, and a wide one the columns
    # that its rows modulo _P, also packed once, pick at a fixed point
    for m, images in [(_golden_m()[1], ["_columns_mod_p"]), (_quadric_net_m(), ["_columns_mod_p", "_rows_mod_p"])]:
        with mock.patch.object(linalg, "_pack", wraps=_pack) as spy:
            assert rank(m.specialize([1, 2, 3, 5])) == rank(m.specialize([2, 3, 5, 7])) == m.rows
        assert [call.args[1] for call in spy.call_args_list] == [_P] * len(images) * len(m.slices)
        assert sorted(k for k in ("_rows_mod_p", "_columns_mod_p", "_columns_mod_q") if k in vars(m)) == images


def test_on_surface_query_eliminates_once_modulo_p():
    # the left kernel modulo _P of the square elimination, lifted through
    # the strand monomials, proves the drop: no kernel modulo _Q
    inst, m = _golden_m()
    point, values = next(pv for pv in _parameter_points(inst, 1) if any(pv[1]))
    lifts = []
    lift = LinearFormMatrix._monomial_lift
    with (
        mock.patch.object(linalg, "_echelon_mod", wraps=_echelon_mod) as echelon,
        mock.patch.object(linalg, "_bareiss", wraps=_bareiss) as bareiss,
        mock.patch.object(LinearFormMatrix, "_monomial_lift", lambda *a: lifts.append(lift(*a)) or lifts[-1]),
    ):
        assert rank(m.specialize(values)) == 7
    assert echelon.call_count == 1 and not bareiss.called
    assert "_columns_mod_q" not in vars(m)
    # the lift is the strand monomials at the point, up to scale
    monomials = [prod(map(pow, point, u)) for u in m.row_monomials]
    (lifted,) = lifts
    assert [x * monomials[0] for x in lifted] == [x * lifted[0] for x in monomials]


def test_off_surface_query_on_a_wide_matrix_eliminates_a_square():
    m = _quadric_net_m()
    assert len(m._generic_columns) == 6
    with mock.patch.object(linalg, "_echelon_mod", wraps=_echelon_mod) as spy:
        for values in ([3, -7, 11, 5], [-2, 9, 4, 13]):
            assert rank(m.specialize(values)) == 6
    # one elimination of 6 packed columns of 6 slots per query
    assert [(len(call.args[0]), call.args[1]) for call in spy.call_args_list] == [(6, 6)] * 2


def test_square_matrix_runs_no_column_search():
    _, m = _golden_m()
    with mock.patch.object(linalg, "_echelon_mod", wraps=_echelon_mod) as spy:
        assert rank(m.specialize([1, 2, 3, 5])) == 8
    assert [(len(call.args[0]), call.args[1]) for call in spy.call_args_list] == [(8, 8)]
    assert m._generic_columns == range(8) and "_rows_mod_p" not in vars(m)


@st.composite
def membership_queries(draw):
    """``(m, values, on)``: ``M_nu`` of a Cayley-property instance at its
    suggested ``nu`` at ``y = lambda f(p)``, ``lambda`` 1 or -3 and ``p``
    with zero coordinates allowed (``on``), or at a random ``y``; a tall
    ``M_nu``, one below the suggested ``nu`` in one block, at either; or
    the ``THIN`` matrix, whose rank drops by two, at a random ``y``."""
    kind = draw(st.sampled_from(["surface", "random", "tall", "thin"]))
    if kind == "thin":
        return _thin_m(), draw(st.lists(st.integers(-99, 99), min_size=2, max_size=2)), False
    inst = draw(cayley_instances())
    nu = suggest_nu(inst.blocks, inst.gamma)
    if kind == "tall":
        lowered = (nu[:b] + (nu[b] - 1,) + nu[b + 1 :] for b in range(len(nu)) if nu[b])
        talls = [m for m in (representation_matrix(inst, d, warn_region=False) for d in lowered) if m.rows > m.cols > 0]
        assume(talls)
        m = talls[0]
    else:
        m = representation_matrix(inst, nu, warn_region=False)
    if kind == "random" or kind == "tall" and draw(st.booleans()):
        return m, draw(st.lists(st.integers(-(10**6), 10**6), min_size=len(inst.f), max_size=len(inst.f))), False
    point = []
    for start, stop in inst.ring.block_slices:
        coords = st.lists(st.just(0) | st.integers(-99, 99), min_size=stop - start, max_size=stop - start)
        point += draw(coords.filter(any))
    scale = draw(st.sampled_from([1, -3]))
    values = [scale * eval_at(f, dict(zip(inst.ring.names, point))) for f in inst.integer_forms]
    return m, values, kind == "surface"


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(membership_queries())
def test_membership_rank_matches_bareiss(case):
    # on-surface hits, where the rank drops by one, are decided modulo
    # the primes: the strand monomials lifted from the square elimination,
    # or the kernel modulo _Q when that elimination drops further
    m, values, on = case
    with mock.patch.object(linalg, "_bareiss", wraps=_bareiss) as spy:
        found = rank(m.specialize(values))
    assert found == len(_bareiss(m.evaluate(values), m.cols)[0])
    if on and found == m.rows - 1:
        assert not spy.called


@pytest.mark.parametrize("scale", [_P, _Q * _P, -_P])
def test_failed_certificate_reaches_bareiss(scale):
    # every entry is 0 modulo _P, so the pass modulo _P finds no pivot; the
    # unit vectors it offers as a kernel annihilate nothing over Z
    m = LinearFormMatrix(2, 3, ("T_0", "T_1"), [[[1, 0, 2], [0, 1, 3]], [[0, 0, 0], [5, 0, 0]]], den=1)
    with mock.patch.object(linalg, "_bareiss", wraps=_bareiss) as spy:
        assert rank(m.specialize([scale, 0])) == 2
    assert spy.call_count == 1


TOP = 200


def _slot_margin():
    """``E - max|M_t|`` bits: the room of the exact slots for ``sum|y|``
    and ``sum|v|`` together."""
    width, top, _ = Slices([[[2 ** (TOP - 1)]]], 1, 1)._exact_rows
    return width - top


def test_exact_check_refuses_a_point_one_bit_beyond_its_slots():
    # y = (1, Y) and v = (1, V) with v^T M(y) = (2**E, -1), E the slot
    # width, which is not zero, though its packed integer 2**E - 2**E is;
    # the bit lengths of sum|y|, sum|v| and max|M_t| add up to E + 1
    margin = _slot_margin()
    a = (margin + 1) // 2
    y, v = 2**a - 2, 2 ** (margin + 1 - a) - 2
    big = 2 ** (TOP + margin)
    m = big // (y * v)
    alpha, gamma = divmod(big - y * v * m, y)
    assert m.bit_length() == TOP and alpha.bit_length() < TOP and gamma.bit_length() < TOP
    images = Slices([[[gamma, -1], [0, 0]], [[alpha, 0], [m, 0]]], 2, 2)
    assert [sum(map(mul, col, [1, v])) for col in zip(*images.evaluate([1, y]))] == [big, -1]
    assert sum(t * sum(map(mul, [1, v], rows)) for t, rows in zip([1, y], images._exact_rows[2])) == 0
    assert images.annihilates([1, y], [1, v]) is False


def test_exact_check_decides_at_its_slot_width():
    # sum|y| and sum|v| take the whole margin: the slots still decide
    margin = _slot_margin()
    a = margin // 2
    y, v = 2**a - 1, 2 ** (margin - a - 1) - 1
    images = Slices([[[2 ** (TOP - 1), 1], [2 ** (TOP - 1), 1]]], 2, 2)
    assert images.annihilates([y], [v, -v]) is True
    assert images.annihilates([y], [2 * v + 1, 0]) is False
    assert images.annihilates([y], [2 * v + 2, 0]) is False


# -- saturated, LLL-reduced lattice bases ----------------------------------------


@st.composite
def lattice_inputs(draw):
    """``k`` integer vectors of length ``m >= k``, ``1 <= k <= 4``: random
    ones (whose integer span is rarely saturated), ones with a vector that
    is an integer combination of the others or zero, and canonical ones,
    each the only one nonzero at a coordinate of its own, as the columns of
    a first differential are."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k, 8))
    entries = st.lists(st.integers(-60, 60), min_size=m, max_size=m)
    vectors = [draw(entries) for _ in range(k)]
    kind = draw(st.sampled_from(["random", "dependent", "zero", "canonical", "scaled"]))
    if kind == "dependent":
        weights = draw(st.lists(st.integers(-4, 4), min_size=k - 1, max_size=k - 1))
        vectors[-1] = [sum(w * v[j] for w, v in zip(weights, vectors)) for j in range(m)]
    elif kind == "zero":
        vectors[draw(st.integers(0, k - 1))] = [0] * m
    elif kind == "canonical":
        coords = draw(st.permutations(range(m)))[:k]
        scale = draw(st.integers(1, 10**6))
        for i, v in enumerate(vectors):
            for j, c in enumerate(coords):
                v[c] = scale if i == j else 0
    elif kind == "scaled":
        # an integer basis of a sublattice of large index: the vectors
        # times a matrix of determinant other than +-1
        mix = [[draw(st.integers(-9, 9)) for _ in range(k)] for _ in range(k)]
        vectors = [[sum(mix[i][l] * vectors[l][j] for l in range(k)) for j in range(m)] for i in range(k)]
    return vectors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lattice_inputs())
def test_saturated_basis_is_an_lll_reduced_basis_of_the_saturation(vectors):
    before = [v[:] for v in vectors]
    found = linalg.saturated_basis(vectors)
    assert vectors == before
    assert lll_saturation_violation(vectors, found) is None
    # a function of the input alone
    assert linalg.saturated_basis(before) == found


def test_saturated_basis_of_a_single_vector_is_its_primitive_multiple():
    basis, coords = linalg.saturated_basis([[0, 6, -4, 10]])
    assert coords == [1]
    assert basis == [[0, 3, -2, 5]]
    assert linalg.saturated_basis([[0, 0, 0]]) is None
    assert linalg.saturated_basis([]) == ([], [])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cayley_instances())
def test_saturated_basis_on_the_stacked_columns_of_every_chain_minor(inst):
    # the inputs the determinants pass: the columns of each minor of
    # d_1, d_2, .. with the slices' entries stacked form-major
    calls = []

    def recording(vectors):
        found = linalg.saturated_basis(vectors)
        calls.append((vectors, found))
        return found

    with mock.patch.object(implicitize, "saturated_basis", recording):
        strand_determinant(differentials(inst, suggest_nu(inst.blocks, inst.gamma)))
    assert calls
    for vectors, found in calls:
        assert lll_saturation_violation(vectors, found) is None
