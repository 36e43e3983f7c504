import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import add
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    GOLDEN_COEFFS,
    base_locus_probably_empty,
    cayley_instances,
    differentials,
    golden_instance,
    random_instance,
    random_p1p1_instance,
    strand_dims,
)
from mgimplicit import (
    MultiPoly,
    PipelineError,
    ProblemInstance,
    StrandComplex,
    expected_degree_p1p1,
    generic_rank,
    normalize_poly,
    parameter_ring,
    parse_poly,
    rank_drop_check,
    representation_matrix,
    run_pipeline,
    strand_basis,
    strand_determinant,
    suggest_nu,
    target_ring,
    verify_implicit,
)
from mgimplicit import complexes, implicitize, linalg
from mgimplicit.cli import main
from mgimplicit.complexes import LinearFormMatrix
from mgimplicit.multipoly import exact_div
from mgimplicit.problem import load_problem
from mgimplicit.regions import BlockStructure
from oracles import (
    det_cofactor_poly,
    det_on_columns_canonical,
    gcd_poly,
    interpolate_simplex_oracle,
    slices_of,
    substitute_targets,
    symbolic_rank_oracle,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def linear_matrix(rows, names=("T_0", "T_1", "T_2")):
    """Helper: build a LinearFormMatrix from per-entry rational coefficient
    vectors, cleared of denominators into ``den``."""
    den = lcm(*(Fraction(c).denominator for row in rows for cell in row for c in cell))
    return LinearFormMatrix(
        rows=len(rows),
        cols=len(rows[0]) if rows else 0,
        target_names=tuple(names),
        slices=slices_of([[[int(c * den) for c in cell] for cell in row] for row in rows], len(names)),
        den=den,
    )


def test_linear_form_matrix_rejects_non_integer_coefficients():
    with pytest.raises(TypeError, match=r"coefficient 1 of entry \(0, 1\)"):
        LinearFormMatrix(1, 2, ("T_0", "T_1"), [[[1, 0]], [[0, Fraction(1, 2)]]], den=1)
    with pytest.raises(TypeError, match="den"):
        LinearFormMatrix(1, 1, ("T_0", "T_1"), [[[1]], [[0]]], den=0)


def test_linear_form_matrix_rejects_slices_of_the_wrong_shape():
    names = ("T_0", "T_1")
    two_by_two = [[0, 0], [0, 0]]
    for rows, cols, slices in [
        (3, 2, [[[1, 0], [2]]]),  # one slice (and a short row) for two targets
        (2, 2, [two_by_two]),  # one slice for two targets
        (2, 2, [two_by_two, two_by_two, two_by_two]),  # three slices
        (2, 2, [two_by_two, [[0, 0], [0]]]),  # a ragged slice
        (3, 2, [two_by_two, two_by_two]),  # 2 rows, not 3
        (2, 3, [two_by_two, two_by_two]),  # 2 columns, not 3
        (2, 2, [two_by_two, [[0, 0, 0], [0, 0, 0]]]),  # one slice 2x3
    ]:
        with pytest.raises(ValueError):
            LinearFormMatrix(rows, cols, names, slices, den=1)
    assert LinearFormMatrix(2, 2, names, [two_by_two, two_by_two], den=1).specialize([1, 5]).rows == 2


# -- generic rank -----------------------------------------------------------------

def test_generic_rank_golden(golden_matrix):
    assert generic_rank(golden_matrix) == 8


def test_generic_rank_zero_matrix():
    z = linear_matrix([[(0, 0, 0), (0, 0, 0)], [(0, 0, 0), (0, 0, 0)]])
    assert generic_rank(z) == 0


def test_generic_rank_identical_columns_vs_symbolic_oracle():
    rng = random.Random(3)
    ring = target_ring(["T_0", "T_1", "T_2"])
    for _ in range(10):
        col = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        other = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        m = linear_matrix([[col[i], col[i], other[i]] for i in range(3)])
        g = generic_rank(m)
        assert g <= 2
        assert g == symbolic_rank_oracle(m, ring)


def test_generic_rank_random_vs_symbolic_oracle():
    rng = random.Random(13)
    ring = target_ring(["T_0", "T_1", "T_2"])
    for _ in range(10):
        m = linear_matrix(
            [[tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)] for _ in range(3)]
        )
        assert generic_rank(m) == symbolic_rank_oracle(m, ring)


def _diagonal_t1_t2():
    """``diag(T_1, T_2)``, which is zero at the first grid point ``(1, 0, 0)``."""
    return linear_matrix([[(0, 1, 0), (0, 0, 0)], [(0, 0, 0), (0, 0, 1)]])


def test_generic_rank_beyond_the_first_grid_point():
    assert generic_rank(_diagonal_t1_t2()) == 2


def test_generic_rank_of_a_wide_matrix_is_its_column_search():
    # the 6 pivots modulo _P that pick the generic columns of a fresh 6x9
    # quadric-net M_nu prove rank 6: one elimination, no grid point
    inst = random_instance([["x", "y", "z"]], (2,), 4, random.Random(3))
    m = representation_matrix(inst, (2,), warn_region=False)
    assert (m.rows, m.cols) == (6, 9)
    with mock.patch.object(linalg, "_echelon_mod", wraps=linalg._echelon_mod) as spy:
        assert generic_rank(m) == 6
    assert spy.call_count == 1


def test_strand_determinant_beyond_the_first_grid_point():
    ring = target_ring(["T_0", "T_1", "T_2"])
    assert strand_determinant([_diagonal_t1_t2()]) == normalize_poly(parse_poly("T_1*T_2", ring))


def test_strand_determinant_reports_the_exact_generic_rank():
    # the third row is the sum of the first two, so the generic rank is 2,
    # while the matrix is zero at (1, 0, 0); the whole degree-3 grid is scanned
    first = [(0, 1, 0), (0, 0, 0), (0, 0, 1)]
    second = [(0, 0, 0), (0, 0, 1), (0, 1, 0)]
    third = [tuple(map(add, a, b)) for a, b in zip(first, second)]
    m = linear_matrix([first, second, third])
    assert generic_rank(m) == 2
    with pytest.raises(PipelineError, match="generic rank 2 < 3 rows"):
        strand_determinant([m])


@st.composite
def t0_free_linear_matrices(draw):
    """A linear-form matrix of 1-3 rows and columns in ``T_0, T_1, T_2``
    with no ``T_0`` terms, so that it is zero at the first grid point."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    form = st.tuples(st.just(0), st.integers(-2, 2), st.integers(-2, 2))
    row = st.lists(form, min_size=cols, max_size=cols)
    return linear_matrix(draw(st.lists(row, min_size=rows, max_size=rows)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(t0_free_linear_matrices())
def test_generic_rank_matches_symbolic_oracle(m):
    assert generic_rank(m) == symbolic_rank_oracle(m, target_ring(["T_0", "T_1", "T_2"]))


# -- rank drop ---------------------------------------------------------------------

def test_rank_drop_golden(golden, golden_matrix):
    generic = generic_rank(golden_matrix)
    report = rank_drop_check(golden_matrix, golden, points=20, seed=0, generic=generic)
    assert report.generic_rank == 8
    assert len(report.point_ranks) >= 15
    assert all(r == 7 for r in report.point_ranks)
    assert report.passed and not report.inconclusive


def test_rank_drop_on_small_regular_instance():
    rng = random.Random(21)
    inst = random_p1p1_instance(1, 1, rng)
    m = representation_matrix(inst, (1, 0), warn_region=False)
    report = rank_drop_check(m, inst, points=15, seed=2, generic=generic_rank(m))
    assert report.passed
    assert all(r <= report.generic_rank - 1 for r in report.point_ranks)


def test_rank_drop_degenerate_equal_generators():
    ring = parameter_ring([["s", "u"], ["t", "v"]])
    f = parse_poly("s*t + u*v", ring)
    inst = ProblemInstance.from_polys([f, f, f, f])
    m = representation_matrix(inst, (1, 0), warn_region=False)
    report = rank_drop_check(m, inst, points=10, seed=3, generic=generic_rank(m))
    # columns collapse under T_i = T_j: every specialized rank drops
    assert report.passed


# -- determinants -------------------------------------------------------------------

def test_det_1x1_normalizes():
    m = linear_matrix([[(2, 0, 0)]])
    ring = target_ring(["T_0", "T_1", "T_2"])
    assert strand_determinant([m]) == parse_poly("T_0", ring)


def test_det_diagonal():
    m = linear_matrix([[(1, 0, 0), (0, 0, 0)], [(0, 0, 0), (0, 1, 0)]])
    ring = target_ring(["T_0", "T_1", "T_2"])
    assert strand_determinant([m]) == parse_poly("T_0*T_1", ring)


def test_det_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        implicitize._det_on_columns(linear_matrix([[(1, 0, 0), (0, 1, 0)]]), range(2), range(1))


def test_det_golden_equation(golden_delta):
    assert golden_delta.total_degree() == 8
    got = [golden_delta.coeff((8 - k, k, 0, 0)) for k in range(7)]
    # exact proportionality against the published coefficient run
    assert all(
        got[i] * GOLDEN_COEFFS[0] == got[0] * GOLDEN_COEFFS[i] for i in range(7)
    )
    # and the normalization pins them exactly
    assert got == GOLDEN_COEFFS


def test_det_zero_column_is_zero():
    z = (0, 0, 0)
    m = linear_matrix([[z, (1, 0, 0)], [z, (0, 1, 0)]])
    assert implicitize._det_on_columns(m, range(2), range(2)).is_zero()
    with pytest.raises(PipelineError, match="not exact"):
        strand_determinant([m])


def test_det_interpolation_is_checked_off_the_grid(golden_matrix, monkeypatch):
    interpolate = implicitize._interpolate_simplex

    def corrupted(values, nvars, top):
        coeffs = interpolate(values, nvars, top)
        corner = (top,) + (0,) * (nvars - 1)  # T_0^top
        coeffs[corner] = coeffs.get(corner, 0) + 1
        return coeffs

    monkeypatch.setattr(implicitize, "_interpolate_simplex", corrupted)
    with pytest.raises(ArithmeticError):
        strand_determinant([golden_matrix])


COEFF = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def square_linear_matrices(draw):
    """``(matrix, deficient)``: a square linear-form matrix of size 1-4 in
    3-4 target variables, with integer and Fraction coefficients and about a
    third of the entries zero (so that pivot rows get swapped); when
    ``deficient`` its last column is a rational combination of the others."""
    size = draw(st.integers(1, 4))
    nvars = draw(st.integers(3, 4))
    nonzero = st.lists(COEFF, min_size=nvars, max_size=nvars)
    form = st.one_of(st.just([0] * nvars), nonzero, nonzero)
    cols = [draw(st.lists(form, min_size=size, max_size=size)) for _ in range(size)]
    deficient = draw(st.booleans())
    if deficient:
        weights = draw(st.lists(COEFF, min_size=size - 1, max_size=size - 1))
        cols[-1] = [
            [sum(w * cols[k][i][t] for k, w in enumerate(weights)) for t in range(nvars)]
            for i in range(size)
        ]
    rows = [[cols[j][i] for j in range(size)] for i in range(size)]
    return linear_matrix(rows, names=[f"T_{t}" for t in range(nvars)]), deficient


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(square_linear_matrices())
def test_det_matches_cofactor_oracle(case):
    m, deficient = case
    ring = target_ring(m.target_names)
    entries = [[m.entry_poly(i, j, ring) for j in range(m.cols)] for i in range(m.rows)]
    expected = det_cofactor_poly(entries)
    # the raw determinant of den * m, sign included, before normalization hides it
    assert implicitize._det_on_columns(m, range(m.cols), range(m.rows)) == expected.scale(m.den**m.rows)
    if deficient:
        assert expected.is_zero()
    if expected:
        assert strand_determinant([m]) == normalize_poly(expected)
    else:
        with pytest.raises(PipelineError, match="not exact"):
            strand_determinant([m])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(square_linear_matrices())
def test_dependent_columns_give_zero_without_the_grid(case):
    # a constant relation among the columns proves the minor zero: one
    # elimination for the canonical form, and no determinant on the grid
    m, deficient = case
    assume(deficient)
    with (
        mock.patch.object(implicitize, "_bareiss", wraps=implicitize._bareiss) as grid,
        mock.patch.object(linalg, "_bareiss", wraps=linalg._bareiss) as canonical,
    ):
        assert implicitize._det_on_columns(m, range(m.cols), range(m.rows)).is_zero()
    assert grid.call_count == 0
    assert canonical.call_count == 1


@st.composite
def plane_quadric_nets(draw):
    """Four ternary quadrics with nonzero coefficients in [-9, 9]: at ``nu =
    2`` the strand complex is [6, 9, 4, 1], so Cayley's chain has minors of
    ``d_1``, ``d_2`` and ``d_3``."""
    ring = parameter_ring([["x", "y", "z"]])
    mons = strand_basis(BlockStructure((2,)), (2,))
    nonzero = st.integers(-9, 9).filter(bool)
    return ProblemInstance.from_polys([MultiPoly(ring, {e: draw(nonzero) for e in mons}) for _ in range(4)])


def _check_chain_minors(inst):
    """Each minor of the Cayley chain at the suggested degree equals
    :func:`det_on_columns_canonical`."""
    calls = []
    intact = implicitize._det_on_columns

    def recording(m, cols, rows):
        minor = intact(m, cols, rows)
        calls.append((m, list(cols), list(rows), minor))
        return minor

    with mock.patch.object(implicitize, "_det_on_columns", recording):
        strand_determinant(differentials(inst, suggest_nu(inst.blocks, inst.gamma)))
    assert calls
    for m, cols, rows, minor in calls:
        assert minor == det_on_columns_canonical(m, cols, rows)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cayley_instances())
def test_det_on_columns_matches_the_canonical_route(inst):
    # every minor of the chain, d_2 of the wide instances included, equals
    # the interpolation on the canonical columns
    _check_chain_minors(inst)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(plane_quadric_nets())
def test_det_on_columns_matches_the_canonical_route_through_d3(inst):
    _check_chain_minors(inst)


@st.composite
def integer_pencils(draw):
    """``(pencil, singular)``: a square pencil ``sum_t T_t M_t`` of size
    0-7 in 2-5 target variables with entries in [-3, 3], some with one
    slice all zero; ``singular`` when it is identically singular, by a
    zero row or by skew-symmetric slices of odd size."""
    nvars = draw(st.integers(2, 5))
    size = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["dense", "zero slice", "zero row", "skew"]))
    slices = [[[draw(st.integers(-3, 3)) for _ in range(size)] for _ in range(size)] for _ in range(nvars)]
    if kind == "zero slice":
        slices[draw(st.integers(0, nvars - 1))] = [[0] * size for _ in range(size)]
    elif kind == "zero row" and size:
        row = draw(st.integers(0, size - 1))
        for s in slices:
            s[row] = [0] * size
    elif kind == "skew":
        slices = [[[s[i][j] - s[j][i] for j in range(size)] for i in range(size)] for s in slices]
    m = LinearFormMatrix(size, size, tuple(f"T_{t}" for t in range(nvars)), slices, den=1)
    return m, (kind == "zero row" and size > 0) or (kind == "skew" and size % 2 == 1)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(integer_pencils())
def test_walked_grid_matches_the_oracle_route(case):
    # the walk adds one slice per point, and the interpolation reads its
    # lines as positions; the oracle evaluates every point from all the
    # slices and keys its lines by exponent tuples
    m, singular = case
    size, nvars = m.rows, len(m.slices)
    minor = implicitize._det_on_columns(m, range(size), range(size))
    assert minor == det_on_columns_canonical(m, range(size), range(size))
    if singular:
        assert minor.is_zero()
    if not size:
        return
    exps = implicitize._simplex(nvars, size)[0]
    assert sorted(exps) == sorted(strand_basis(target_ring(m.target_names).blocks, (size,)))
    walked = list(implicitize._walk([list(row) for row in m.slices[0]], m.slices, nvars - 1, size))
    assert walked == [implicitize._det(m.evaluate((1,) + e[1:]), size) for e in exps]
    keyed = dict(zip(exps, walked))
    assert implicitize._interpolate_simplex(walked, nvars, size) == interpolate_simplex_oracle(keyed, size)


def test_golden_minor_walks_its_grid_without_evaluating_it(golden):
    # the 165 grid points of the golden 8x8 d_1 minor, det(S_I), det(B_I)
    # and the off-grid check are one elimination each, and only the check
    # evaluates the slices
    m = StrandComplex(golden, (1, 3)).differential(1)
    assert (m.rows, m.cols) == (8, 8)
    assert implicitize.evaluation_points(golden, (1, 3))["determinant"] == 165
    evaluate = linalg.Slices.evaluate
    with (
        mock.patch.object(implicitize, "_bareiss", wraps=implicitize._bareiss) as eliminations,
        mock.patch.object(linalg.Slices, "evaluate", autospec=True, side_effect=evaluate) as evaluations,
    ):
        minor = implicitize._det_on_columns(m, range(8), range(8))
    assert not minor.is_zero()
    assert eliminations.call_count == 165 + 3
    assert evaluations.call_count == 1


@pytest.mark.parametrize("name", sorted(p.name for p in PROBLEMS.glob("*.json")))
def test_first_minor_is_interpolated_on_small_entries(name):
    # a fall-back to the canonical columns (25 to 72 bits on these files)
    # would fail: the reduced d_1 pencil has at most 8 bits on the golden
    # surface and at most 16 on every problem file
    bound = 8 if name == "bigraded_22.json" else 16
    pencils = []
    intact = implicitize.saturated_basis

    def recording(vectors):
        found = intact(vectors)
        pencils.append(found[0])
        return found

    inst = load_problem(PROBLEMS / name).instance()
    with mock.patch.object(implicitize, "saturated_basis", recording):
        run_pipeline(inst)
    bits = max(abs(x).bit_length() for b in pencils[0] for x in b)
    assert bits <= bound


# -- strand determinant ---------------------------------------------------------------

def test_strand_determinant_square_equals_det(golden_matrix, golden_delta):
    assert golden_delta == normalize_poly(implicitize._det_on_columns(golden_matrix, range(8), range(8)))


def test_strand_determinant_other_corner_vanishes(golden):
    delta = strand_determinant(differentials(golden, (1, 3)))
    assert substitute_targets(delta, golden.f).is_zero()


def test_strand_determinant_all_zero_row_raises():
    z = (0, 0, 0)
    m = linear_matrix([[z, z, z]])
    with pytest.raises(PipelineError, match="not exact"):
        strand_determinant([m])


def test_strand_determinant_non_exact_complex_raises():
    # a 1x2 d_1 with coprime entries and no d_2: one column is left over
    m = linear_matrix([[(1, 0, 0), (0, 1, 0)]])
    with pytest.raises(PipelineError, match="not exact"):
        strand_determinant([m])
    # the same d_1 = [T_0, T_1] followed by a zero 2x1 d_2, which has rank
    # 0 on the row that d_1 leaves
    z = (0, 0, 0)
    with pytest.raises(PipelineError, match="not exact: differential 2 has generic rank 0 < 1"):
        strand_determinant([m, linear_matrix([[z], [z]])])


def test_cayley_quotient_divides_primitive_parts_in_integers():
    # d_1 = [T_0, T_1], then d_2 = (-2 T_1, 2 T_0)^T: the minors are T_0 and
    # 2 T_0, whose own quotient is the Fraction 1/2; that of their
    # primitive parts is the integer 1
    d1 = linear_matrix([[(1, 0, 0), (0, 1, 0)]])
    d2 = linear_matrix([[(0, -2, 0)], [(2, 0, 0)]])
    calls = []

    def spy(p, q):
        calls.append((p, q, exact_div(p, q)))
        return calls[-1][2]

    with mock.patch.object(implicitize, "exact_div", spy):
        delta = strand_determinant([d1, d2])
    assert delta == MultiPoly.constant(delta.ring, 1)
    ((p, q, quotient),) = calls
    assert normalize_poly(p) == p and normalize_poly(q) == q
    assert quotient.terms and all(type(c) is int for c in quotient.terms.values())


def _reversed_basis(diffs, q):
    """The strand complex with the basis of its q-th term in reverse order:
    the columns of ``d_q`` and the rows of ``d_(q+1)`` are reversed."""
    out = [LinearFormMatrix(d.rows, d.cols, d.target_names, list(d.slices), d.den) for d in diffs]
    out[q - 1].slices = [[row[::-1] for row in s] for s in out[q - 1].slices]
    if q < len(out):
        out[q].slices = [s[::-1] for s in out[q].slices]
    return out


def test_strand_determinant_does_not_depend_on_the_choice():
    # a net of plane quadrics: the strand complex at nu = 2 is [6, 9, 4, 1],
    # so the formula divides by a minor of d_2 and multiplies by one of d_3
    inst = random_instance([["x", "y", "z"]], (2,), 4, random.Random(2))
    diffs = list(differentials(inst, (2,)))
    assert strand_dims(diffs) == [6, 9, 4, 1]
    delta = strand_determinant(diffs)
    assert delta.total_degree() == 6 - 3 + 1
    assert verify_implicit(delta, inst)
    # reordering a basis changes which minors are chosen, not the result
    for q in (1, 2, 3):
        assert strand_determinant(_reversed_basis(diffs, q)) == delta


@pytest.mark.parametrize(
    "make",
    [
        lambda: golden_instance(),
        lambda: random_p1p1_instance(1, 2, random.Random(1)),
        lambda: random_p1p1_instance(2, 2, random.Random(1)),
        lambda: random_p1p1_instance(3, 1, random.Random(1)),
        lambda: random_instance([["x", "y", "z"], ["s", "t"]], (1, 1), 5, random.Random(1)),
        lambda: random_instance([["a", "b"], ["c", "d"], ["e", "f"]], (1, 1, 1), 5, random.Random(1)),
    ],
    ids=["golden", "p1p1-1-2", "p1p1-2-2", "p1p1-3-1", "p2p1-1-1", "p1p1p1-1-1-1"],
)
def test_square_strands_end_after_the_first_differential(make):
    # strand_determinant stops after a square d_1 of full rank and never
    # builds the later terms; at the suggested nu they are all zero
    inst = make()
    dims = strand_dims(list(differentials(inst, suggest_nu(inst.blocks, inst.gamma))))
    n = dims[0]
    assert n > 0 and dims == [n, n] + [0] * (inst.n - 1)


@pytest.mark.parametrize(
    "name, divisions",
    [("bigraded_22.json", 0), ("p1p1_22_basepoint.json", 1)],
    ids=["golden-square", "basepoint-wide"],
)
def test_strand_determinant_divides_only_by_even_minors(monkeypatch, name, divisions):
    # Cayley's formula has a denominator only when the chain reaches d_2:
    # the square golden M_nu is its own determinant, the 8x9 one is divided once
    inst = load_problem(PROBLEMS / name).instance()
    divisors = []

    def counting_div(p, q):
        divisors.append(q)
        return exact_div(p, q)

    monkeypatch.setattr(implicitize, "exact_div", counting_div)
    delta = strand_determinant(differentials(inst, suggest_nu(inst.blocks, inst.gamma)))
    assert len(divisors) == divisions
    assert verify_implicit(delta, inst)


@pytest.mark.parametrize(
    "make, nu, built",
    [
        (lambda: random_p1p1_instance(2, 2, random.Random(0)), (3, 1), [0, 1]),
        (lambda: _forced_base_point_instance(random.Random(15)), (3, 1), [0, 1, 2]),
    ],
    ids=["square", "wide"],
)
def test_pipeline_builds_each_cycle_basis_once(monkeypatch, make, nu, built):
    # a square M_nu of full rank needs no q >= 2 cycle basis; the wide
    # [8, 9, 1] strand needs the 2-cycles but not the 3-cycles
    inst = make()
    intact = StrandComplex._cycles
    calls = []

    def counting(cx, q):
        calls.append(q)
        return intact(cx, q)

    monkeypatch.setattr(StrandComplex, "_cycles", counting)
    assert run_pipeline(inst, nu).verified
    assert sorted(calls) == built


@pytest.mark.parametrize(
    "name, nu, qs",
    [
        ("bigraded_22.json", None, [1]),
        ("p1p1_22_basepoint.json", None, [1, 2]),
        ("p1p1_22_basepoint.json", (3, 1), [1, 2]),
    ],
    ids=["golden-square", "basepoint-wide", "basepoint-wide-homology"],
)
def test_pipeline_builds_and_kernels_each_koszul_strand_once(monkeypatch, name, nu, qs):
    # M_nu, the Cayley chain and the certificate read one StrandComplex:
    # each strand (q, nu + q*gamma) is built once and its kernel taken
    # once.  The strands of homology_dim, for the expected degree, have a
    # degree of their own, except at nu = (2a-1, b-1), where its K_2 at
    # (4a-1, 3b-1) = nu + 2*gamma is the complex's own and is read from it
    inst = load_problem(PROBLEMS / name).instance()
    strand_nu = suggest_nu(inst.blocks, inst.gamma) if nu is None else nu

    def degree(q):
        return tuple(a + q * g for a, g in zip(strand_nu, inst.gamma))

    build, kernel = complexes.koszul_differential_strand, complexes.nullspace_basis
    built, kerneled = [], []

    def counting_build(inst, q, d):
        m = build(inst, q, d)
        built.append((m, (q, tuple(d))))
        return m

    def counting_kernel(m):
        kerneled.append(next((key for k, key in built if k is m), None))
        return kernel(m)

    # under every name the package binds them to
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "mgimplicit"]:
        for attr, wrapper in (("koszul_differential_strand", counting_build), ("nullspace_basis", counting_kernel)):
            if attr in vars(module):
                monkeypatch.setattr(module, attr, wrapper)
    assert run_pipeline(inst, nu).verified
    strands = [(q, degree(q)) for q in qs]
    assert sorted(key for _, key in built if key[1] == degree(key[0])) == strands
    assert sorted(kerneled) == strands


def _forced_base_point_instance(rng):
    """Four bidegree-(2, 2) forms without u^2 v^2: one base point at s = t = 0."""
    from helpers import random_poly

    ring = parameter_ring([["s", "u"], ["t", "v"]])
    polys = []
    for _ in range(4):
        p = random_poly(ring, BlockStructure((1, 1)), (2, 2), rng)
        terms = dict(p.terms)
        terms.pop((0, 2, 0, 2), None)
        polys.append(MultiPoly(ring, terms))
    return ProblemInstance.from_polys(polys)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cayley_instances())
def test_strand_determinant_is_the_gcd_of_all_maximal_minors(inst):
    # for an exact strand complex, Cayley's determinant is the MacRae
    # invariant of H_0, the gcd of all maximal minors of d_1 (Northcott,
    # Finite Free Resolutions, ch. 3)
    nu = suggest_nu(inst.blocks, inst.gamma)
    m = representation_matrix(inst, nu, warn_region=False)
    expected = MultiPoly.zero(inst.target)
    for cols in combinations(range(m.cols), m.rows):
        expected = gcd_poly(expected, implicitize._det_on_columns(m, cols, range(m.rows)))
    assert strand_determinant(differentials(inst, nu)) == expected


# -- verification --------------------------------------------------------------------

def test_verify_golden(golden, golden_delta):
    assert verify_implicit(golden_delta, golden)


def test_verify_rejects_plane(golden):
    assert not verify_implicit(parse_poly("X_0", golden.target), golden)


def test_verify_multiple_of_delta(golden, golden_delta):
    multiple = golden_delta * parse_poly("X_0 + 2*X_1", golden.target)
    assert verify_implicit(multiple, golden)


def test_verify_zero_rejected(golden):
    with pytest.raises(ValueError):
        verify_implicit(MultiPoly.zero(golden.target), golden)


# block dimensions r of the parameter spaces the verification property draws from
VERIFY_BLOCKS = [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1)]
# small instances whose pipeline delta the property multiplies: (blocks, degree, forms, seed)
CERTIFIED = [
    ([["s", "u"]], (2,), 3, 1),
    ([["s", "u"]], (3,), 3, 2),
    ([["s", "u"], ["t", "v"]], (1, 1), 4, 3),
]


@lru_cache(maxsize=None)
def certified_case(index):
    """A small instance and its pipeline-certified delta."""
    blocks, degree, forms, seed = CERTIFIED[index]
    inst = random_instance(blocks, degree, forms, random.Random(seed))
    return inst, run_pipeline(inst).delta


@st.composite
def rational_form(draw, ring, degree):
    """A form of multidegree ``degree`` in ``ring`` with integer and Fraction
    coefficients, possibly zero."""
    mons = strand_basis(ring.blocks, degree)
    coeffs = draw(st.lists(st.one_of(st.just(0), COEFF), min_size=len(mons), max_size=len(mons)))
    return MultiPoly.from_terms(ring, zip(mons, coeffs))


@st.composite
def mixed_form(draw, ring):
    """A sum of target forms of one to three distinct degrees in 0..2."""
    degrees = draw(st.sets(st.integers(0, 2), min_size=1, max_size=3))
    return sum((draw(rational_form(ring, (d,))) for d in sorted(degrees)), MultiPoly.zero(ring))


def grid_names(r):
    return [[f"x{i}_{j}" for j in range(ri + 1)] for i, ri in enumerate(r)]


@st.composite
def verification_cases(draw):
    """``(delta, inst)`` pairs where ``delta`` vanishes on the image, or
    misses it narrowly.  Kinds:

    * ``certified``: a multiple (by a mixed-degree form) of a pipeline delta,
      or that multiple plus a perturbation;
    * ``relation``: the last form is a rational combination of the others,
      and ``delta`` is the linear relation times a mixed-degree form;
    * ``random``: a random mixed-degree ``delta``;
    * ``unit``: ``f_0`` is the product of the first variables of the blocks,
      which is 1 on the grid, and ``delta = g*T_0 - g`` mixes two degrees
      that cancel there;
    * ``tight``: ``delta = T_0 * .. * T_n`` and the forms are products of
      ``x - c*x_0`` over one free variable per block, with the roots ``c``
      covering every grid value but the last.
    """
    kind = draw(st.sampled_from(["certified", "relation", "random", "unit", "tight"]))
    if kind == "certified":
        inst, delta = certified_case(draw(st.integers(0, len(CERTIFIED) - 1)))
        delta = delta * draw(mixed_form(inst.target).filter(bool))
        if draw(st.booleans()):
            delta = delta + draw(mixed_form(inst.target))
        assume(delta)
        return delta, inst
    r = draw(st.sampled_from(VERIFY_BLOCKS))
    ring = parameter_ring(grid_names(r))
    gamma = tuple(draw(st.integers(1, 2)) for _ in r)
    npolys = draw(st.integers(2, 4))
    if kind == "tight":
        forms = []
        for m in range(npolys):
            factors = MultiPoly.constant(ring, draw(COEFF.filter(bool)))
            for (start, stop), g in zip(ring.block_slices, gamma):
                x0 = MultiPoly.monomial(ring, [int(v == start) for v in range(ring.nvars)])
                free = draw(st.integers(start + 1, stop - 1))
                x = MultiPoly.monomial(ring, [int(v == free) for v in range(ring.nvars)])
                for c in range(m * g, (m + 1) * g):
                    factors = factors * (x - x0 * c)
            forms.append(factors)
        inst = ProblemInstance.from_polys(forms)
        delta = MultiPoly.monomial(inst.target, [1] * npolys)
        return delta, inst
    forms = [draw(rational_form(ring, gamma).filter(bool)) for _ in range(npolys)]
    if kind == "unit":
        forms[0] = _first_variables_power(ring, gamma)
    if kind == "relation":
        weights = draw(st.lists(COEFF, min_size=npolys - 1, max_size=npolys - 1))
        last = sum((f * w for f, w in zip(forms, weights)), MultiPoly.zero(ring))
        if last:
            forms[-1] = last
    inst = ProblemInstance.from_polys(forms)
    target = inst.target
    variables = [parse_poly(name, target) for name in target.names]
    if kind == "relation":
        relation = variables[-1] - sum(
            (v * w for v, w in zip(variables, weights)), MultiPoly.zero(target)
        )
        delta = relation * draw(mixed_form(target).filter(bool))
    elif kind == "unit":
        g = draw(mixed_form(target).filter(bool))
        delta = g * variables[0] - g
    else:
        delta = draw(mixed_form(target))
    assume(delta)
    return delta, inst


def _first_variables_power(ring, gamma):
    """The product of the first variable of each block to the power gamma_i."""
    exps = [0] * ring.nvars
    for (start, _), g in zip(ring.block_slices, gamma):
        exps[start] = g
    return MultiPoly.monomial(ring, exps)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(verification_cases())
def test_verify_matches_substitution_oracle(case):
    delta, inst = case
    assert verify_implicit(delta, inst) == substitute_targets(delta, inst.f).is_zero()


def test_verification_grid_is_the_strand_basis(monkeypatch):
    # P^2 x P^1 at gamma (1, 2): the degree-6 delta is tested at the
    # 28 * 13 monomials of multidegree (6, 12), where a box of side 7 in
    # each P^2 coordinate would take 7^2 * 13 = 637 points
    inst = load_problem(PROBLEMS / "p2p1_12.json").instance()
    result = run_pipeline(inst)
    assert result.square and result.degree == 6
    points = []
    evaluate = implicitize._eval_terms

    def counted(terms, values):
        points.append(tuple(values))
        return evaluate(terms, values)

    monkeypatch.setattr(implicitize, "_eval_terms", counted)
    assert verify_implicit(result.delta, inst)
    expected = implicitize.evaluation_points(inst, result.nu)["verification"]
    assert expected == 364
    assert len(points) == len(inst.f) * expected
    assert len(set(points)) == expected


def test_pipeline_p1p1_2_3_12x12():
    # a 12x12 strand matrix: the determinant and the grid certificate at a
    # size where symbolic elimination took about a minute
    inst = random_p1p1_instance(2, 3, random.Random(5))
    result = run_pipeline(inst)
    assert (result.matrix_rows, result.matrix_cols) == (12, 12)
    assert result.verified
    assert result.degree == 12


# -- the pipeline's structural certificate ------------------------------------------

# P^2 x P^1 forms, which CAYLEY_SPACES leaves out only for the sake of its gcd oracle
P2P1_INSTANCES = st.builds(
    lambda gamma, seed: random_instance([["x", "y", "z"], ["s", "t"]], gamma, 5, random.Random(seed)),
    st.sampled_from([(1, 1), (1, 2)]),
    st.integers(0, 2**32),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(cayley_instances(), P2P1_INSTANCES))
def test_structural_certificate_agrees_with_the_grid(inst):
    # the pipeline proves delta(f) = 0 from the syzygy columns of M_nu (and,
    # for a wide M_nu, one nonzero value of the even minors); the grid of
    # verify_implicit decides the same question by evaluation.  Equal forms
    # map onto a point, not a hypersurface: their delta is the constant 1,
    # which vanishes nowhere, and both routes must say so
    result = run_pipeline(inst)
    assert result.verified == verify_implicit(result.delta, inst)
    assert result.verified == (result.degree > 0)


def _counting_verify(monkeypatch):
    calls = []
    intact = implicitize.verify_implicit

    def counting(delta, inst):
        calls.append(delta)
        return intact(delta, inst)

    monkeypatch.setattr(implicitize, "verify_implicit", counting)
    return calls


@pytest.mark.parametrize(
    "name", ["bigraded_22.json", "p1p1_22_basepoint.json"], ids=["golden-square", "basepoint-wide"]
)
def test_pipeline_certifies_without_the_grid(monkeypatch, name):
    inst = load_problem(PROBLEMS / name).instance()
    calls = _counting_verify(monkeypatch)
    assert run_pipeline(inst).verified
    assert calls == []


def test_certificate_rejects_a_column_that_is_not_a_syzygy(golden, golden_delta, monkeypatch):
    nu = (3, 1)
    intact = representation_matrix(golden, nu)
    slices = [[list(row) for row in s] for s in intact.slices]
    slices[1][2][5] += 1
    corrupted = LinearFormMatrix(intact.rows, intact.cols, intact.target_names, slices, intact.den)
    cx = StrandComplex(golden, nu)
    assert implicitize._columns_are_syzygies(intact, cx.koszul(1))
    assert not implicitize._columns_are_syzygies(corrupted, cx.koszul(1))
    # with the true delta every other check passes, so only the columns reject
    assert implicitize._certify(intact, cx, golden_delta, [], 0)
    assert not implicitize._certify(corrupted, cx, golden_delta, [], 0)
    differential = StrandComplex._differential
    monkeypatch.setattr(StrandComplex, "_differential", lambda cx, q: corrupted if q == 1 else differential(cx, q))
    calls = _counting_verify(monkeypatch)
    assert not run_pipeline(golden, nu).verified
    assert calls == []


@pytest.mark.parametrize(
    "name", ["bigraded_22.json", "p1p1_22_basepoint.json"], ids=["golden-square", "basepoint-wide"]
)
def test_certificate_rejects_a_corrupted_delta(monkeypatch, capsys, name):
    # one coefficient of delta changed: the syzygy columns still hold, but
    # delta no longer vanishes at f(p0), and the CLI exits 2
    intact = implicitize._strand_determinant

    def corrupted(diffs):
        delta, even = intact(diffs)
        return delta + MultiPoly.monomial(delta.ring, delta.leading()[0]), even

    monkeypatch.setattr(implicitize, "_strand_determinant", corrupted)
    calls = _counting_verify(monkeypatch)
    assert not run_pipeline(load_problem(PROBLEMS / name).instance()).verified
    assert main(["implicitize", str(PROBLEMS / name)]) == 2
    assert json.loads(capsys.readouterr().out)["verified"] is False
    assert calls == []


def test_vanishing_even_minor_falls_back_to_the_grid(monkeypatch):
    # an even minor that vanishes at f(p0) proves nothing, so the grid decides
    inst = load_problem(PROBLEMS / "p1p1_22_basepoint.json").instance()
    values = next(v for _, v in implicitize._parameter_points(inst, 0) if any(v))
    line = MultiPoly.from_terms(inst.target, [((1, 0, 0, 0), values[1]), ((0, 1, 0, 0), -values[0])])
    assert line and implicitize._eval_terms(line.terms, values) == 0
    intact = implicitize._strand_determinant

    def vanishing_at_p0(diffs):
        delta, even = intact(diffs)
        assert even
        return delta, [even[0] * line] + even[1:]

    monkeypatch.setattr(implicitize, "_strand_determinant", vanishing_at_p0)
    calls = _counting_verify(monkeypatch)
    result = run_pipeline(inst)
    assert result.verified
    assert calls == [result.delta]


# -- degree accounting ----------------------------------------------------------------

def test_expected_degree_golden(golden):
    assert expected_degree_p1p1(golden, (3, 1)) == 8


def test_expected_degree_preconditions(golden):
    with pytest.raises(ValueError):
        expected_degree_p1p1(golden, (2, 2))


def test_expected_degree_random_bilinear():
    rng = random.Random(6)
    for _ in range(5):
        inst = random_p1p1_instance(1, 1, rng)
        nu = (1, 0)
        result = run_pipeline(inst, nu, seed=1)
        assert result.degree == expected_degree_p1p1(inst, nu)


def test_degree_matches_prediction_random():
    rng = random.Random(14)
    for _ in range(6):
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        inst = random_p1p1_instance(a, b, rng)
        nu = (2 * a - 1, b - 1)
        result = run_pipeline(inst, nu, seed=2)
        assert result.degree == expected_degree_p1p1(inst, nu)
        if base_locus_probably_empty(inst, rng, samples=200):
            assert result.degree == 2 * a * b


# -- the pipeline -----------------------------------------------------------------------

def test_pipeline_golden(golden, golden_delta):
    result = run_pipeline(golden, (3, 1), seed=0)
    assert result.verified and result.square
    assert result.generic_rank == 8
    assert result.expected_degree == 8
    assert result.delta == golden_delta
    payload = result.to_json_dict()
    assert payload["matrix"] == {"rows": 8, "cols": 8}
    assert payload["verified"] is True


def test_pipeline_takes_one_rank_per_rank_drop_point(golden, monkeypatch):
    # full row rank is proved by the determinant's own elimination, so the
    # only ranks the pipeline takes are the rank-drop check's, one per point,
    # each given the strand monomials at its point as a kernel candidate
    intact = implicitize.rank
    calls = []

    def counting(m, kernel=None):
        calls.append((m.rows, m.cols, len(kernel)))
        return intact(m, kernel)

    monkeypatch.setattr(implicitize, "rank", counting)
    result = run_pipeline(golden, (3, 1), points=20, seed=0)
    assert result.verified and result.generic_rank == 8
    assert calls == [(8, 8, 8)] * 20


def test_pipeline_auto_nu(golden):
    result = run_pipeline(golden, seed=0)
    assert result.nu == (1, 3)
    assert result.verified


def test_pipeline_base_point_instance_non_square():
    # four bidegree-(2,2) forms all vanishing at ((0:1),(0:1)): one base point,
    # a nonzero second-homology strand, a wide matrix and a degree drop
    from mgimplicit import homology_dim

    inst = _forced_base_point_instance(random.Random(15))
    h2 = homology_dim(inst, 2, (7, 5))
    assert h2 == 1
    m = representation_matrix(inst, (3, 1))
    assert (m.rows, m.cols) == (8, 8 + h2)
    result = run_pipeline(inst, (3, 1), seed=0)
    assert not result.square
    assert result.verified
    assert result.degree == 8 - h2 == result.expected_degree


# the scale of f_j in problems/bigraded_22_rational.json
RATIONAL_SCALE = (Fraction(1, 2), Fraction(2, 3), 5, Fraction(-3, 7))


@pytest.mark.parametrize("name", ["bigraded_22.json", "p1p1_22_basepoint.json"], ids=["square", "wide"])
def test_pipeline_on_rational_forms(name):
    # the Fraction coefficients of f are cleared once, in integer_forms,
    # before any matrix is built; scaling f_j by c_j substitutes T_j / c_j
    # into the strand determinant
    inst = load_problem(PROBLEMS / name).instance()
    scaled = [f * c for f, c in zip(inst.f, RATIONAL_SCALE)]
    if name == "bigraded_22.json":
        assert load_problem(PROBLEMS / "bigraded_22_rational.json").instance().f == tuple(scaled)
    result = run_pipeline(ProblemInstance.from_polys(scaled, target_names=inst.target.names))
    assert result.verified
    t = [parse_poly(v, inst.target) for v in inst.target.names]
    back = [tj * (1 / Fraction(c)) for tj, c in zip(t, RATIONAL_SCALE)]
    assert result.delta == normalize_poly(substitute_targets(run_pipeline(inst).delta, back))


def test_integer_forms_clear_the_denominators_once():
    inst = load_problem(PROBLEMS / "bigraded_22_rational.json").instance()
    mult = lcm(*(c.denominator for f in inst.f for c in f.terms.values()))
    assert mult > 1
    for f, g in zip(inst.f, inst.integer_forms, strict=True):
        assert all(type(c) is int for c in g.terms.values())
        assert g == f.scale(mult)


def test_matrix_square_iff_h2_vanishes():
    # on generic equal-bidegree instances the matrix is square of size
    # 2ab exactly when the second-homology strand vanishes
    from mgimplicit import homology_dim

    rng = random.Random(19)
    for a in (1, 2):
        inst = random_p1p1_instance(a, a, rng)
        nu = (2 * a - 1, a - 1)
        h2 = homology_dim(inst, 2, (4 * a - 1, 3 * a - 1))
        m = representation_matrix(inst, nu, warn_region=False)
        assert m.rows == 2 * a * a
        assert (m.rows == m.cols) == (h2 == 0)


def test_pipeline_fails_informatively_in_region(golden):
    # (2, 2) lies inside the unreliable region: the strand matrix there is
    # 9 x 11 of generic rank 8, so no maximal minor carries the equation
    with pytest.raises(PipelineError, match="generic rank 8 < 9"):
        run_pipeline(golden, (2, 2), seed=0)


def test_pipeline_rejects_tall_matrix(golden):
    # the strand matrix at (1, 2) is 6 x 4, so its generic rank is below its row count
    with pytest.raises(PipelineError, match="generic rank 4 < 6 rows"):
        run_pipeline(golden, (1, 2), seed=0)


@pytest.mark.parametrize("nu", [(3,), (3, 1, 0)], ids=["short", "long"])
def test_wrong_length_nu_raises(golden, nu):
    with pytest.raises(ValueError, match="nu needs 2 components"):
        representation_matrix(golden, nu)
    with pytest.raises(ValueError, match="nu needs 2 components"):
        run_pipeline(golden, nu)


def test_pipeline_rejects_empty_strand(golden):
    with pytest.raises(PipelineError):
        run_pipeline(golden, (0, 0), seed=0)


# -- the package surface ------------------------------------------------------------------

@pytest.mark.parametrize(
    "name",
    [
        "det_linear_matrix",
        "z_complex_strand",
        "ZComplexStrand",
        "substitute_targets",
        "divides",
        "corners_closed_form_2blocks",
        "try_exact_div",
        "cycle_basis",
        "CycleBasis",
        "strand_differentials",
    ],
)
def test_test_only_helpers_are_not_exported(name):
    # the symbolic reference code lives in tests/oracles.py, and the
    # entry points that StrandComplex replaced keep no alias; the package
    # ships only what the pipeline, the command line and the benchmark call
    import mgimplicit

    assert not hasattr(mgimplicit, name)
    for module in (complexes, implicitize, mgimplicit.multipoly, mgimplicit.linalg, mgimplicit.regions):
        assert not hasattr(module, name)
