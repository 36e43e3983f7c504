import random
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    cayley_instances,
    differentials,
    golden_instance,
    mat_mul,
    over,
    random_instance,
    random_p1p1_instance,
    random_poly,
    strand_dims,
)
from mgimplicit import (
    InRegionWarning,
    ProblemInstance,
    StrandAssemblyError,
    StrandComplex,
    homology_dim,
    koszul_differential_strand,
    parameter_ring,
    parse_poly,
    rank,
    representation_matrix,
    strand_dim,
    suggest_nu,
)
from mgimplicit.complexes import LinearFormMatrix
from mgimplicit.implicitize import evaluation_points
from mgimplicit.multipoly import MultiPoly, eval_at
from mgimplicit.regions import BlockStructure, strand_basis
from oracles import (
    cells,
    compositions_vanish,
    cycle_differentials_oracle,
    cycle_polys,
    koszul_matrix_oracle,
    rank_oracle,
    specialize_cells,
)


@pytest.mark.parametrize("d", [(3,), (5,), (3, 1, 5)], ids=["short", "short-5", "long"])
@pytest.mark.parametrize(
    "call",
    [
        lambda inst, d: StrandComplex(inst, d).cycles(0),
        lambda inst, d: StrandComplex(inst, d).cycles(1),
        lambda inst, d: koszul_differential_strand(inst, 1, d),
        lambda inst, d: koszul_differential_strand(inst, 2, d),
        lambda inst, d: homology_dim(inst, 0, d),
        lambda inst, d: homology_dim(inst, 1, d),
        lambda inst, d: StrandComplex(inst, d).differential(1),
        lambda inst, d: representation_matrix(inst, d, warn_region=False),
        lambda inst, d: evaluation_points(inst, d),
    ],
    ids=[
        "cycle_basis-0",
        "cycle_basis-1",
        "koszul-1",
        "koszul-2",
        "homology-0",
        "homology-1",
        "strand_differentials",
        "representation_matrix",
        "evaluation_points",
    ],
)
def test_strand_degree_needs_one_component_per_block(call, d):
    # golden has two blocks; a degree of another length used to be cut or
    # padded by zip (the 1-cycles of golden at (3,) were 10 vectors)
    with pytest.raises(ValueError, match="needs 2 components"):
        call(golden_instance(), d)


@pytest.fixture(scope="module")
def p1_pair():
    """f = (x, y) on P^1: the regular-sequence reference instance."""
    ring = parameter_ring([["x", "y"]])
    return ProblemInstance.from_polys([parse_poly("x", ring), parse_poly("y", ring)])


@pytest.mark.parametrize(
    "second, message",
    [
        ("0", "polynomial #1: zero polynomial has no multidegree"),
        ("s*t + s^2", r"polynomial #1: terms of different block degrees: \(1, 1\), \(2, 0\)"),
        ("s^2*t", r"do not share one multidegree \(#0: \(1, 1\), #1: \(2, 1\)\)"),
    ],
    ids=["zero", "mixed-degree", "other-degree"],
)
def test_from_polys_names_the_bad_polynomial(second, message):
    ring = parameter_ring([["s", "u"], ["t", "v"]])
    with pytest.raises(ValueError, match=message):
        ProblemInstance.from_polys([parse_poly("s*t", ring), parse_poly(second, ring)])


# -- Koszul strand matrices -----------------------------------------------------

def test_koszul_syzygy_on_p1(p1_pair):
    cx = StrandComplex(p1_pair, (1,))
    assert len(cx.cycles(1)[1]) == 1
    g0, g1 = cycle_polys(cx, 1)[0]
    x = parse_poly("x", p1_pair.ring)
    y = parse_poly("y", p1_pair.ring)
    # the kernel is spanned by the Koszul relation (y, -x), up to sign
    assert (g0, g1) in (((y), (-x)), ((-y), (x)))
    assert (g0 * x + g1 * y).is_zero()


def test_koszul_strand_is_complex():
    rng = random.Random(4)
    for _ in range(5):
        inst = random_p1p1_instance(rng.randint(1, 2), rng.randint(1, 2), rng)
        d = (rng.randint(2, 5), rng.randint(2, 5))
        for q in range(1, len(inst.f)):
            d1 = koszul_differential_strand(inst, q, d)
            d2 = koszul_differential_strand(inst, q + 1, d)
            assert not any(map(any, mat_mul(d1, d2))), f"d^2 != 0 at q={q}, d={d}"


def test_koszul_strand_golden_dimensions(golden):
    m = koszul_differential_strand(golden, 1, (5, 3))
    assert (m.rows, m.cols) == (24, 32)
    assert rank(m) == 24


def test_koszul_empty_strand_short_circuits(golden):
    m = koszul_differential_strand(golden, 1, (1, 0))
    # source monomials would need degree (-1, -2): empty
    assert m.cols == 0


# -- cycle bases ------------------------------------------------------------------

def test_cycle_basis_golden_count(golden):
    _, vectors = StrandComplex(golden, (3, 1)).cycles(1)
    assert len(vectors) == 8


def test_cycle_basis_empty_strand(golden):
    assert len(StrandComplex(golden, (-1, 2)).cycles(1)[1]) == 0


def test_cycle_basis_p1_degrees(p1_pair):
    assert len(StrandComplex(p1_pair, (0,)).cycles(1)[1]) == 0
    assert len(StrandComplex(p1_pair, (1,)).cycles(1)[1]) == 1


def test_cycles_are_syzygies(golden):
    for cyc in cycle_polys(StrandComplex(golden, (3, 1)), 1):
        acc = MultiPoly.zero(golden.ring)
        for gj, fj in zip(cyc, golden.f):
            acc = acc + gj * fj
        assert acc.is_zero()


def test_cycle_count_rank_nullity(golden):
    # |cycles| = (n+1) * dim R_nu - rank(d_1 strand), and the rank agrees
    # with the independent oracle
    nu = (3, 1)
    m = koszul_differential_strand(golden, 1, (5, 3))
    r = rank(m)
    assert r == rank_oracle(m.data)
    assert len(StrandComplex(golden, nu).cycles(1)[1]) == 4 * strand_dim(golden.blocks, nu) - r


# -- the representation matrix ------------------------------------------------------

def test_representation_matrix_golden_shape(golden_matrix):
    assert (golden_matrix.rows, golden_matrix.cols) == (8, 8)
    assert golden_matrix.row_labels[0] == "s^3*t"


def test_representation_matrix_warns_in_region(golden):
    with pytest.warns(InRegionWarning):
        representation_matrix(golden, (2, 2))


@pytest.mark.parametrize(
    "make",
    [
        lambda: (golden_instance(), (3, 1)),
        lambda: (random_instance([["x", "y", "z"], ["s", "t"]], (1, 1), 5, random.Random(21)), (1, 1)),
        lambda: (random_instance([["a", "b"], ["c", "d"], ["e", "f"]], (1, 1, 1), 5, random.Random(22)), (1, 1, 0)),
    ],
    ids=["golden", "p2p1", "p1p1p1"],
)
def test_representation_matrix_entries_match_cycles(make):
    inst, nu = make()
    m = representation_matrix(inst, nu, warn_region=False)
    cx = StrandComplex(inst, nu)
    mons = strand_basis(inst.blocks, nu)
    assert (m.rows, m.cols) == (len(mons), len(cx.cycles(1)[1])) and m.cols > 0
    for c, cyc in enumerate(cycle_polys(cx, 1)):
        for i, mon in enumerate(mons):
            assert over(m.den, cells(m)[i])[c] == [g.coeff(mon) for g in cyc]


def test_equal_monomial_generators_give_difference_columns():
    # all four generators equal to one monomial: every syzygy column is a
    # multiple of T_j - T_0 concentrated in a single row
    ring = parameter_ring([["s", "u"], ["t", "v"]])
    m = parse_poly("s*t", ring)
    inst = ProblemInstance.from_polys([m, m, m, m])
    mat = representation_matrix(inst, (1, 0), warn_region=False)
    assert mat.cols == 3 * mat.rows
    ring_t = None
    for c in range(mat.cols):
        nonzero_rows = [i for i in range(mat.rows) if any(cells(mat)[i][c])]
        assert len(nonzero_rows) == 1
        coeffs = cells(mat)[nonzero_rows[0]][c]
        js = [j for j, v in enumerate(coeffs) if v]
        assert len(js) == 2 and 0 in js
        assert coeffs[js[0]] == -coeffs[js[1]]


def test_left_kernel_law(golden, golden_matrix):
    # the monomial row vector at p is a left kernel vector of M(T = f(p))
    rng = random.Random(12)
    mons = strand_basis(golden.blocks, (3, 1))
    from mgimplicit.implicitize import sample_parameter_point

    names = golden.ring.names
    for _ in range(25):
        point = dict(zip(names, sample_parameter_point(golden.ring, rng)))
        values = [eval_at(fj, point) for fj in golden.f]
        if all(v == 0 for v in values):
            continue
        spec = golden_matrix.specialize(values)
        row = [
            eval_at(MultiPoly.monomial(golden.ring, m), point) for m in mons
        ]
        product = [
            sum(row[i] * spec.data[i][j] for i in range(spec.rows))
            for j in range(spec.cols)
        ]
        assert all(x == 0 for x in product)


def test_generic_bilinear_matrix_is_2x2():
    rng = random.Random(77)
    inst = random_p1p1_instance(1, 1, rng)
    mat = representation_matrix(inst, (1, 0), warn_region=False)
    assert (mat.rows, mat.cols) == (2, 2)


# -- the full strand complex ---------------------------------------------------------

def test_z_strand_golden(golden):
    diffs = list(differentials(golden, (3, 1)))
    assert strand_dims(diffs) == [8, 8, 0, 0]
    assert compositions_vanish(diffs)
    # the first differential is the representation matrix
    m = representation_matrix(golden, (3, 1))
    assert diffs[0].slices == m.slices


def test_z_strand_compositions_random():
    rng = random.Random(5)
    for _ in range(4):
        inst = random_p1p1_instance(1, 1, rng)
        assert compositions_vanish(list(differentials(inst, (1, 0))))


def single_block_instance():
    """Three random binary cubics on P^1 and the classical corner
    ``nu = 2(d - 1)`` for n = 2."""
    rng = random.Random(9)
    ring = parameter_ring([["x", "y"]])
    blocks = BlockStructure((1,))
    polys = [random_poly(ring, blocks, (3,), rng) for _ in range(3)]
    return ProblemInstance.from_polys(polys), (4,)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cayley_instances(), st.integers(1, 3))
def test_koszul_strand_matches_its_definition(inst, q):
    # the rows of x^u * x^w are looked up once per exponent w of the forms;
    # the entries are those of the definition, one (face, u, term) at a time
    q = min(q, len(inst.f))
    nu = suggest_nu(inst.blocks, inst.gamma)
    m = koszul_differential_strand(inst, q, [a + q * g for a, g in zip(nu, inst.gamma)])
    assert (m.data, m.cols) == koszul_matrix_oracle(inst, q, nu)


def test_z_strand_single_block_dimensions():
    # three generic binary forms on P^1: strand sizes follow rank-nullity
    inst, nu = single_block_instance()
    diffs = list(differentials(inst, nu))
    assert compositions_vanish(diffs)
    for q in range(1, 3):
        strand_deg = tuple(x + q * g for x, g in zip(nu, inst.gamma))
        m = koszul_differential_strand(inst, q, strand_deg)
        assert strand_dims(diffs)[q] == m.cols - rank(m)


def p2_quadric_net():
    """Four random ternary quadrics on P^2 at ``nu = 2``."""
    return random_instance([["x", "y", "z"]], (2,), 4, random.Random(3)), (2,)


def p2p1_bilinear():
    """Four random bilinear forms on P^2 x P^1 at ``nu = (1, 1)``."""
    return random_instance([["x", "y", "z"], ["s", "t"]], (1, 1), 4, random.Random(0)), (1, 1)


@pytest.mark.parametrize(
    "make, dims",
    [(single_block_instance, [5, 7, 2]), (p2_quadric_net, [6, 9, 4, 1]), (p2p1_bilinear, [6, 6, 4, 1])],
    ids=["p1-cubics", "p2-quadrics", "p2p1"],
)
def test_z_strand_matches_gauss_jordan_oracle(make, dims):
    # every differential against contraction images solved by Gauss-Jordan
    # in a cycle basis computed from scratch
    inst, nu = make()
    diffs = list(differentials(inst, nu))
    assert strand_dims(diffs) == dims
    assert all(any(map(any, chain.from_iterable(d.slices))) for d in diffs[1:])
    mine = [[over(d.den, row) for row in cells(d)] for d in diffs]
    assert mine == cycle_differentials_oracle(inst, nu)


def test_z_strand_rejects_corrupted_cycle_basis(monkeypatch):
    # the coordinates of a contraction image are read off the canonical
    # 1-cycle basis; with one basis vector missing the exact re-expansion
    # check must refuse to assemble the second differential
    inst, nu = single_block_instance()
    assert strand_dims(list(differentials(inst, nu))) == [5, 7, 2]
    intact = StrandComplex._cycles

    def drop_last_1_cycle(cx, q):
        den, vectors = intact(cx, q)
        return den, vectors[:-1] if q == 1 else vectors

    monkeypatch.setattr(StrandComplex, "_cycles", drop_last_1_cycle)
    with pytest.raises(StrandAssemblyError, match="1-cycle basis"):
        list(differentials(inst, nu))


# -- homology dimensions ---------------------------------------------------------------

def test_homology_dim_golden_h2(golden):
    assert homology_dim(golden, 2, (7, 5)) == 0


def test_homology_dim_q0_is_coordinate_ring_strand(golden):
    nu = (3, 1)
    m = koszul_differential_strand(golden, 1, nu)
    assert homology_dim(golden, 0, nu) == strand_dim(golden.blocks, nu) - rank(m)


def test_homology_regular_sequence_vanishes(p1_pair):
    # (x, y) is regular: no first homology in any strand
    for d in range(0, 5):
        assert homology_dim(p1_pair, 1, (d,)) == 0


def test_homology_dim_out_of_range(golden):
    assert homology_dim(golden, 7, (3, 1)) == 0
    with pytest.raises(ValueError):
        homology_dim(golden, -1, (3, 1))


# -- specialization of the slices --------------------------------------------------

BIG = 2**100
HUGE = st.integers(BIG - 3, BIG + 3) | st.integers(-BIG - 3, -BIG + 3)
COEFFICIENTS = st.integers(-9, 9) | HUGE
VALUES = st.sampled_from([0, 1, -1]) | st.integers(-9, 9) | HUGE


@st.composite
def specializations(draw):
    """A linear-form matrix with 0-3 rows and columns in 1-4 target
    variables, coefficients small or about ``2**100``, and values that are
    0, 1, negative or about ``2**100``, or a point of the interpolation
    grid: ``T_0 = 1`` and the others small exponents, often 0."""
    ntargets = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(0, 3))
    slices = [[[draw(COEFFICIENTS) for _ in range(cols)] for _ in range(rows)] for _ in range(ntargets)]
    names = tuple(f"T_{t}" for t in range(ntargets))
    m = LinearFormMatrix(rows, cols, names, slices, den=draw(st.integers(1, 9)))
    if draw(st.booleans()):
        values = [1] + [draw(st.integers(0, 2)) for _ in range(ntargets - 1)]
    else:
        values = [draw(VALUES) for _ in range(ntargets)]
    return m, values


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(specializations())
@example((LinearFormMatrix(0, 2, ("T_0", "T_1"), [[], []], den=1), [1, 3]))
@example((LinearFormMatrix(2, 0, ("T_0", "T_1"), [[[], []], [[], []]], den=1), [1, 3]))
@example((LinearFormMatrix(1, 1, ("T_0", "T_1"), [[[BIG]], [[-1]]], den=1), [0, 0]))
def test_specialize_matches_the_cellwise_oracle(case):
    m, values = case
    spec = m.specialize(values)
    assert (spec.rows, spec.cols) == (m.rows, m.cols)
    assert spec.data == specialize_cells(cells(m), values)


def test_specialize_does_not_share_rows_with_the_slices():
    # at T = (1, 0) the result is M_0 itself; Bareiss eliminates in place
    m = LinearFormMatrix(2, 2, ("T_0", "T_1"), [[[1, 2], [3, 4]], [[5, 6], [7, 8]]], den=1)
    for values in ([1, 0], [0, 1], [2, 0], [1, 1], [0, 0]):
        spec = m.specialize(values)
        spec.data[0][0] += 100
        assert m.slices == [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
