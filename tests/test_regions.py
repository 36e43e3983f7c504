import random
from itertools import product

import pytest

from mgimplicit import (
    BlockStructure,
    complement_corners,
    q_alpha,
    region_RB,
    region_RB_via_sigma,
    strand_basis,
    strand_dim,
    suggest_nu,
    supp_local_cohomology,
)
from mgimplicit.regions import ascii_region_plot, describe_region, svg_region_plot
from oracles import complement_corners_oracle, corners_closed_form_2blocks

P11 = BlockStructure((1, 1))


# -- strands -------------------------------------------------------------------

def test_strand_dim_golden_corner():
    assert strand_dim(P11, (3, 1)) == 8


def test_strand_dim_product_of_binomials():
    assert strand_dim(P11, (5, 3)) == 24


def test_strand_dim_negative_component():
    assert strand_dim(P11, (3, -1)) == 0
    assert strand_dim(BlockStructure((2, 1, 3)), (1, -2, 0)) == 0


@pytest.mark.parametrize("d", [(3,), (3, 1, 5)], ids=["short", "long"])
def test_strand_degree_needs_one_component_per_block(d):
    # zip would read (3,) as (3, 0) and (3, 1, 5) as (3, 1)
    with pytest.raises(ValueError, match="needs 2 components"):
        strand_dim(P11, d)
    with pytest.raises(ValueError, match="needs 2 components"):
        strand_basis(P11, d)


def test_strand_basis_single_block():
    blocks = BlockStructure((1,))
    assert strand_basis(blocks, (2,)) == [(2, 0), (1, 1), (0, 2)]


def test_strand_basis_degree_zero():
    assert strand_basis(P11, (0, 0)) == [(0, 0, 0, 0)]


def test_strand_basis_counts_match_dim():
    blocks3 = BlockStructure((1, 2, 1))
    for d in product(range(-1, 4), repeat=3):
        assert len(strand_basis(blocks3, d)) == strand_dim(blocks3, d)


# -- orthant supports ------------------------------------------------------------

def test_q_alpha_first_block():
    q = q_alpha(P11, {0})
    assert q.shift == (-2, 0)
    assert q.contains((-2, 0)) and q.contains((-5, 3))
    assert not q.contains((-1, 0)) and not q.contains((-2, -1))


def test_q_alpha_both_blocks():
    q = q_alpha(P11, {0, 1})
    assert q.shift == (-2, -2)
    assert q.contains((-2, -2)) and not q.contains((-1, -2))


def test_q_alpha_empty_subset():
    with pytest.raises(ValueError, match="nonempty"):
        q_alpha(P11, set())


def test_supp_local_cohomology_p1p1():
    supp2 = supp_local_cohomology(P11, 2)
    assert len(supp2.parts) == 2
    assert supp2.contains((-2, 5)) and supp2.contains((5, -2))
    assert not supp2.contains((-2, -2))
    supp3 = supp_local_cohomology(P11, 3)
    assert [p.shift for p in supp3.parts] == [(-2, -2)]
    assert not supp_local_cohomology(P11, 5).parts


def test_q_alpha_pairwise_disjoint():
    blocks = BlockStructure((1, 2, 1))
    subsets = []
    for size in range(1, 4):
        from itertools import combinations

        subsets.extend(combinations(range(3), size))
    regions = [q_alpha(blocks, a) for a in subsets]
    for mu in product(range(-5, 3), repeat=3):
        hits = [i for i, r in enumerate(regions) if r.contains(mu)]
        assert len(hits) <= 1, f"{mu} lies in two orthants"


# -- the region -------------------------------------------------------------------

def test_region_golden_shifts():
    region = region_RB(P11, (2, 2))
    shifts = sorted(p.shift for p in region.parts)
    assert shifts == [(0, 2), (2, 0), (2, 2)]


def test_region_membership_examples():
    region = region_RB(P11, (2, 2))
    assert region.contains((2, 2))
    assert not region.contains((3, 1))
    assert not region.contains((1, 3))


def test_region_requires_positive_gamma():
    with pytest.raises(ValueError):
        region_RB(P11, (2, 0))
    with pytest.raises(ValueError):
        complement_corners(P11, (0, 1))
    with pytest.raises(ValueError):
        suggest_nu(P11, (-1, 2))


def test_region_two_paths_agree():
    for r, s, a, b in product((1, 2), (1, 2), (1, 2, 3), (1, 2, 3)):
        blocks = BlockStructure((r, s))
        direct = region_RB(blocks, (a, b))
        via_sigma = region_RB_via_sigma(blocks, (a, b))
        for mu in product(range(-12, 13), repeat=2):
            assert direct.contains(mu) == via_sigma.contains(mu), (r, s, a, b, mu)


def test_region_is_a_down_set():
    # lowering one coordinate of a point of the region keeps it there, for
    # every s <= 3, r_i <= 2, gamma_i <= 3.  A part bounds coordinate j by
    # mu_j <= shift_j (j in alpha) or mu_j >= shift_j, so membership changes
    # along j only at the steps t = shift_j + [j in alpha]; clamping mu_j to
    # [min t - 1, max t] changes no membership, and a point with mu_j outside
    # [min t, max t] lies in the region exactly when mu - e_j does.  The box
    # of those ranges therefore holds every counterexample there could be.
    for s in (1, 2, 3):
        for r, gamma in product(product(range(3), repeat=s), product(range(1, 4), repeat=s)):
            region = region_RB(BlockStructure(r), gamma)
            steps = [[part.shift[j] + (j in part.alpha) for part in region.parts] for j in range(s)]
            box = [range(min(t) - 1, max(t) + 1) for t in steps]
            inside = {mu for mu in product(*box) if region.contains(mu)}
            for mu in inside:
                for j in range(s):
                    if mu[j] > box[j].start:
                        assert mu[:j] + (mu[j] - 1,) + mu[j + 1 :] in inside, (r, gamma, mu, j)


# -- corners and the suggestion ------------------------------------------------------

def test_corners_golden():
    assert complement_corners(P11, (2, 2)) == [(1, 3), (3, 1)]


def test_corners_gamma_31_closed_form_and_scan():
    # closed form at (r,s)=(1,1), (a,b)=(3,1): (ra-r, rb+sb-s) = (2,1),
    # (ra+sa-r, sb-s) = (5,0)
    assert corners_closed_form_2blocks(P11, (3, 1)) == [(2, 1), (5, 0)]
    assert complement_corners(P11, (3, 1)) == [(2, 1), (5, 0)]


def test_corners_match_closed_form_on_grid():
    for r, s, a, b in product((1, 2, 3), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4)):
        blocks = BlockStructure((r, s))
        assert complement_corners(blocks, (a, b)) == corners_closed_form_2blocks(
            blocks, (a, b)
        ), (r, s, a, b)


def test_corners_match_dominance_oracle():
    # every (r, gamma) with s <= 2, r_i <= 3, gamma_i <= 3, and samples of s = 3, 4
    cases = [
        (r, gamma)
        for s in (1, 2)
        for r in product(range(4), repeat=s)
        for gamma in product(range(1, 4), repeat=s)
    ]
    cases += [(r, (1, 1, 1)) for r in product(range(3), repeat=3)]
    cases += [((1, 2, 1), (2, 1, 3)), ((0, 3, 1), (3, 2, 1)), ((2, 2, 2), (2, 2, 2))]
    cases += [((1, 1, 1, 1), (1, 1, 1, 1)), ((1, 0, 1, 0), (1, 2, 1, 2))]
    for r, gamma in cases:
        blocks = BlockStructure(r)
        expected = complement_corners_oracle(blocks, gamma)
        assert complement_corners(blocks, gamma) == expected, (r, gamma)


def test_corners_of_five_blocks_with_distinct_shifts():
    # every part has its own shift in every coordinate, so a scan of the
    # candidate grid would test 17^5 points; each corner is outside the
    # region and each step down from it is inside
    blocks = BlockStructure((1, 2, 4, 8, 16))
    region = region_RB(blocks, (3, 2, 5, 1, 7))
    corners = complement_corners(blocks, (3, 2, 5, 1, 7))
    assert len(corners) == 120
    for mu in corners:
        assert not region.contains(mu)
        assert all(region.contains(mu[:j] + (mu[j] - 1,) + mu[j + 1 :]) for j in range(5) if mu[j])


def test_corner_outside_region_randomized():
    rng = random.Random(8)
    for _ in range(20):
        r = rng.randint(1, 3)
        s = rng.randint(r, 3)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        blocks = BlockStructure((r, s))
        region = region_RB(blocks, (a, b))
        corner = (r * a - r, r * b + s * b - s)
        assert not region.contains(corner), (r, s, a, b)


def test_suggest_nu_tie_breaks_lexicographically():
    assert suggest_nu(P11, (2, 2)) == (1, 3)
    assert strand_dim(P11, (1, 3)) == strand_dim(P11, (3, 1)) == 8


def test_suggest_nu_unit_degree():
    nu = suggest_nu(P11, (1, 1))
    assert strand_dim(P11, nu) == 2


def test_suggest_nu_single_block_classical_bound():
    # one block P^r, degree d: the corner is r*(d-1)
    for r in (1, 2, 3):
        for d in (1, 2, 3, 4):
            blocks = BlockStructure((r,))
            nu = suggest_nu(blocks, (d,))
            assert nu == (r * (d - 1),)
            assert not region_RB(blocks, (d,)).contains(nu)


def test_suggested_nu_never_in_region():
    for r, s, a, b in product((1, 2), (1, 2), (1, 2, 3), (1, 2, 3)):
        blocks = BlockStructure((r, s))
        assert not region_RB(blocks, (a, b)).contains(suggest_nu(blocks, (a, b)))


# -- presentation ----------------------------------------------------------------

def test_describe_region_mentions_corners():
    text = describe_region(P11, (2, 2), complement_corners(P11, (2, 2)))
    assert "$" not in text
    assert "(1, 3)" in text and "(3, 1)" in text
    assert "suggested nu" in text


def test_ascii_plot_marks_region_and_corners():
    art = ascii_region_plot(P11, (2, 2), complement_corners(P11, (2, 2)))
    assert "#" in art and "C" in art and "n" in art


def test_svg_plot_is_wellformed():
    svg = svg_region_plot(P11, (2, 2), complement_corners(P11, (2, 2)))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<rect") > 50


def test_plots_require_two_blocks():
    p111 = BlockStructure((1, 1, 1))
    with pytest.raises(ValueError):
        ascii_region_plot(p111, (1, 1, 1), complement_corners(p111, (1, 1, 1)))
    p1 = BlockStructure((1,))
    with pytest.raises(ValueError):
        svg_region_plot(p1, (2,), complement_corners(p1, (2,)))
