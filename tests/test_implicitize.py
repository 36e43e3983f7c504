import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOLDEN_COEFFS, base_locus_probably_empty, random_p1p1_instance
from mgimplicit import (
    MinorsRankError,
    MultiPoly,
    PipelineError,
    ProblemInstance,
    det_linear_matrix,
    expected_degree_p1p1,
    generic_rank,
    minors_gcd,
    normalize_poly,
    parameter_ring,
    parse_poly,
    rank_drop_check,
    representation_matrix,
    run_pipeline,
    substitute_targets,
    target_ring,
    verify_implicit,
)
from mgimplicit.complexes import LinearFormMatrix
from mgimplicit.implicitize import _det_poly
from oracles import det_cofactor_poly, symbolic_rank_oracle


def linear_matrix(rows, names=("T_0", "T_1", "T_2")):
    """Helper: build a LinearFormMatrix from per-entry coefficient vectors."""
    return LinearFormMatrix(
        rows=len(rows),
        cols=len(rows[0]) if rows else 0,
        target_names=tuple(names),
        coeffs=[[list(cell) for cell in row] for row in rows],
    )


# -- generic rank -----------------------------------------------------------------

def test_generic_rank_golden(golden_matrix):
    assert generic_rank(golden_matrix, trials=4, seed=0) == 8


def test_generic_rank_zero_matrix():
    z = linear_matrix([[(0, 0, 0), (0, 0, 0)], [(0, 0, 0), (0, 0, 0)]])
    assert generic_rank(z, trials=2, seed=1) == 0


def test_generic_rank_identical_columns_vs_symbolic_oracle():
    rng = random.Random(3)
    ring = target_ring(["T_0", "T_1", "T_2"])
    for _ in range(10):
        col = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        other = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        m = linear_matrix([[col[i], col[i], other[i]] for i in range(3)])
        g = generic_rank(m, trials=3, seed=7)
        assert g <= 2
        assert g == symbolic_rank_oracle(m, ring)


def test_generic_rank_random_vs_symbolic_oracle():
    rng = random.Random(13)
    ring = target_ring(["T_0", "T_1", "T_2"])
    for _ in range(10):
        m = linear_matrix(
            [[tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)] for _ in range(3)]
        )
        assert generic_rank(m, trials=4, seed=5) == symbolic_rank_oracle(m, ring)


def test_generic_rank_monotone_and_seed_stable(golden_matrix):
    ranks = [generic_rank(golden_matrix, trials=t, seed=0) for t in (1, 2, 4)]
    assert ranks == sorted(ranks)
    assert {generic_rank(golden_matrix, trials=4, seed=s) for s in range(5)} == {8}


# -- rank drop ---------------------------------------------------------------------

def test_rank_drop_golden(golden, golden_matrix):
    report = rank_drop_check(golden_matrix, golden, points=20, seed=0)
    assert report.generic_rank == 8
    assert len(report.point_ranks) >= 15
    assert all(r == 7 for r in report.point_ranks)
    assert report.passed and not report.inconclusive


def test_rank_drop_on_small_regular_instance():
    rng = random.Random(21)
    inst = random_p1p1_instance(1, 1, rng)
    m = representation_matrix(inst, (1, 0), warn_region=False)
    report = rank_drop_check(m, inst, points=15, seed=2)
    assert report.passed
    assert all(r <= report.generic_rank - 1 for r in report.point_ranks)


def test_rank_drop_degenerate_equal_generators():
    ring = parameter_ring([["s", "u"], ["t", "v"]])
    f = parse_poly("s*t + u*v", ring)
    inst = ProblemInstance.from_polys([f, f, f, f])
    m = representation_matrix(inst, (1, 0), warn_region=False)
    report = rank_drop_check(m, inst, points=10, seed=3)
    # columns collapse under T_i = T_j: every specialized rank drops
    assert report.passed


# -- determinants -------------------------------------------------------------------

def test_det_1x1_normalizes():
    m = linear_matrix([[(2, 0, 0)]])
    ring = target_ring(["T_0", "T_1", "T_2"])
    assert det_linear_matrix(m) == parse_poly("T_0", ring)


def test_det_diagonal():
    m = linear_matrix([[(1, 0, 0), (0, 0, 0)], [(0, 0, 0), (0, 1, 0)]])
    ring = target_ring(["T_0", "T_1", "T_2"])
    assert det_linear_matrix(m) == parse_poly("T_0*T_1", ring)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_linear_matrix(linear_matrix([[(1, 0, 0), (0, 1, 0)]]))


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
    assert det_linear_matrix(m).is_zero()


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
    # the raw determinant, sign included, before normalization hides it
    assert _det_poly(entries, ring) == expected
    delta = det_linear_matrix(m)
    assert delta == normalize_poly(expected)
    if deficient:
        assert delta.is_zero()


# -- minors gcd ---------------------------------------------------------------------

def test_minors_gcd_square_equals_det(golden_matrix, golden_delta):
    assert minors_gcd(golden_matrix, samples=1, seed=0) == golden_delta


def test_minors_gcd_coprime_entries():
    m = linear_matrix([[(1, 0, 0), (0, 1, 0)]])
    g = minors_gcd(m, samples=3, seed=0)
    assert g == 1


def test_minors_gcd_all_zero_raises():
    z = (0, 0, 0)
    m = linear_matrix([[z, z, z]])
    with pytest.raises(MinorsRankError):
        minors_gcd(m, samples=3, seed=0)


def test_minors_gcd_other_corner_vanishes(golden):
    m = representation_matrix(golden, (1, 3))
    g = minors_gcd(m, samples=3, seed=0)
    assert substitute_targets(g, golden.f).is_zero()


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


def test_pipeline_auto_nu(golden):
    result = run_pipeline(golden, seed=0)
    assert result.nu == (1, 3)
    assert result.verified


def test_pipeline_base_point_instance_non_square():
    # four bidegree-(2,2) forms all vanishing at ((0:1),(0:1)): one base point,
    # a nonzero second-homology strand, a wide matrix and a degree drop
    from helpers import random_poly
    from mgimplicit import homology_dim
    from mgimplicit.regions import BlockStructure

    ring = parameter_ring([["s", "u"], ["t", "v"]])
    blocks = BlockStructure((1, 1))
    rng = random.Random(15)
    polys = []
    for _ in range(4):
        p = random_poly(ring, blocks, (2, 2), rng)
        terms = dict(p.terms)
        terms.pop((0, 2, 0, 2), None)
        polys.append(MultiPoly(ring, terms))
    inst = ProblemInstance.from_polys(polys)
    h2 = homology_dim(inst, 2, (7, 5))
    assert h2 == 1
    m = representation_matrix(inst, (3, 1))
    assert (m.rows, m.cols) == (8, 8 + h2)
    result = run_pipeline(inst, (3, 1), seed=0, samples=6)
    assert not result.square
    assert result.verified
    assert result.degree == 8 - h2 == result.expected_degree


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
