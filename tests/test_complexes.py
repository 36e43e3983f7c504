import random

import pytest

from helpers import random_p1p1_instance, random_poly
import mgimplicit.complexes
from mgimplicit import (
    InRegionWarning,
    ProblemInstance,
    StrandAssemblyError,
    cycle_basis,
    homology_dim,
    koszul_differential_strand,
    parameter_ring,
    parse_poly,
    rank,
    representation_matrix,
    strand_dim,
    z_complex_strand,
)
from mgimplicit.multipoly import MultiPoly, eval_at
from mgimplicit.regions import BlockStructure, strand_basis
from oracles import rank_oracle


@pytest.fixture(scope="module")
def p1_pair():
    """f = (x, y) on P^1: the regular-sequence reference instance."""
    ring = parameter_ring([["x", "y"]])
    return ProblemInstance.from_polys([parse_poly("x", ring), parse_poly("y", ring)])


# -- Koszul strand matrices -----------------------------------------------------

def test_koszul_syzygy_on_p1(p1_pair):
    cb = cycle_basis(p1_pair, 1, (1,))
    assert len(cb) == 1
    g0, g1 = cb.cycles[0]
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
            assert d1.mul(d2).is_zero(), f"d^2 != 0 at q={q}, d={d}"


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
    cb = cycle_basis(golden, 1, (3, 1))
    assert len(cb) == 8


def test_cycle_basis_empty_strand(golden):
    assert len(cycle_basis(golden, 1, (-1, 2))) == 0


def test_cycle_basis_p1_degrees(p1_pair):
    assert len(cycle_basis(p1_pair, 1, (0,))) == 0
    assert len(cycle_basis(p1_pair, 1, (1,))) == 1


def test_cycles_are_syzygies(golden):
    cb = cycle_basis(golden, 1, (3, 1))
    for cyc in cb.cycles:
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
    assert len(cycle_basis(golden, 1, nu)) == 4 * strand_dim(golden.blocks, nu) - r


# -- the representation matrix ------------------------------------------------------

def test_representation_matrix_golden_shape(golden_matrix):
    assert (golden_matrix.rows, golden_matrix.cols) == (8, 8)
    assert golden_matrix.row_labels[0] == "s^3*t"


def test_representation_matrix_warns_in_region(golden):
    with pytest.warns(InRegionWarning):
        representation_matrix(golden, (2, 2))


def test_representation_matrix_entries_match_cycles(golden, golden_matrix):
    cb = cycle_basis(golden, 1, (3, 1))
    mons = strand_basis(golden.blocks, (3, 1))
    for c, cyc in enumerate(cb.cycles):
        for i, mon in enumerate(mons):
            assert golden_matrix.coeffs[i][c] == [g.coeff(mon) for g in cyc]


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
        nonzero_rows = [i for i in range(mat.rows) if any(mat.coeffs[i][c])]
        assert len(nonzero_rows) == 1
        coeffs = mat.coeffs[nonzero_rows[0]][c]
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
        point = sample_parameter_point(golden.ring, rng)
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
    z = z_complex_strand(golden, (3, 1))
    assert z.dims == [8, 8, 0, 0]
    assert z.check_zero_compositions()
    # the first differential is the representation matrix
    m = representation_matrix(golden, (3, 1))
    assert z.differentials[0].coeffs == m.coeffs


def test_z_strand_compositions_random():
    rng = random.Random(5)
    for _ in range(4):
        inst = random_p1p1_instance(1, 1, rng)
        z = z_complex_strand(inst, (1, 0))
        assert z.check_zero_compositions()


def single_block_instance():
    """Three random binary cubics on P^1 and the classical corner
    ``nu = 2(d - 1)`` for n = 2."""
    rng = random.Random(9)
    ring = parameter_ring([["x", "y"]])
    blocks = BlockStructure((1,))
    polys = [random_poly(ring, blocks, (3,), rng) for _ in range(3)]
    return ProblemInstance.from_polys(polys), (4,)


def test_z_strand_single_block_dimensions():
    # three generic binary forms on P^1: strand sizes follow rank-nullity
    inst, nu = single_block_instance()
    z = z_complex_strand(inst, nu)
    assert z.check_zero_compositions()
    for q in range(1, 3):
        strand_deg = tuple(x + q * g for x, g in zip(nu, inst.gamma))
        m = koszul_differential_strand(inst, q, strand_deg)
        assert z.dims[q] == m.cols - rank(m)


def test_z_strand_rejects_corrupted_cycle_basis(monkeypatch):
    # the coordinates of a contraction image are read off the canonical
    # 1-cycle basis; with one basis vector missing the exact re-expansion
    # check must refuse to assemble the second differential
    inst, nu = single_block_instance()
    assert z_complex_strand(inst, nu).dims == [5, 7, 2]
    intact = mgimplicit.complexes.cycle_basis

    def drop_last_1_cycle(inst, q, nu):
        cb = intact(inst, q, nu)
        if q == 1:
            cb.vectors = cb.vectors[:-1]
        return cb

    monkeypatch.setattr(mgimplicit.complexes, "cycle_basis", drop_last_1_cycle)
    with pytest.raises(StrandAssemblyError, match="1-cycle basis"):
        z_complex_strand(inst, nu)


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
