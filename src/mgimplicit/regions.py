"""Block grading of products of projective spaces and degree regions.

For blocks of sizes ``r_1..r_s`` the coordinate ring is graded by Z^s;
:class:`BlockStructure` is that grading for every ring of the package (the
target ring ``k[T_0..T_n]`` is the one-block case).  This module computes
strand dimensions and monomial bases, the shifted orthants ``Q_alpha``
supporting the local cohomology of the ring with respect to the irrelevant
ideal, the unreliable region ``R_B(gamma)`` of strand degrees (a down-set),
its complement corners (built part by part as minimal transversals), a
suggested strand degree ``nu`` (the corner with the smallest strand), and
:func:`check_strand_degree`, the one check of a requested ``nu``.

Index conventions: blocks are 0-based in code; human-readable output
prints them 1-based.  Degree vectors are plain int tuples of length s.

Two independent routes to the region are exposed on purpose:
:func:`region_RB` builds it directly as ``union(Q_alpha + |alpha|*gamma)``,
while :func:`region_RB_via_sigma` goes through the per-degree local
cohomology supports (:func:`supp_local_cohomology` summed into
:func:`sigma_B`, then shifted by ``-gamma``).  They must agree pointwise
for strictly positive ``gamma``; the test suite compares them on a box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb


@dataclass(frozen=True)
class BlockStructure:
    """The shape (r_1..r_s) of the block-graded ring P^{r_1} x ... x P^{r_s}."""

    r: tuple[int, ...]

    def __post_init__(self):
        if len(self.r) < 1:
            raise ValueError("need at least one block")
        if any(ri < 0 for ri in self.r):
            raise ValueError("block dimensions must be non-negative")

    @property
    def s(self):
        return len(self.r)

    @property
    def nvars(self):
        return sum(ri + 1 for ri in self.r)


@dataclass(frozen=True)
class OrthantRegion:
    """A shifted orthant of Z^s: ``mu_j <= shift_j`` for blocks in ``alpha``
    and ``mu_j >= shift_j`` otherwise."""

    alpha: frozenset[int]
    shift: tuple[int, ...]

    def contains(self, mu) -> bool:
        return all(
            (mu[j] <= self.shift[j]) if j in self.alpha else (mu[j] >= self.shift[j])
            for j in range(len(self.shift))
        )

    def translated(self, v) -> "OrthantRegion":
        return OrthantRegion(self.alpha, tuple(a + b for a, b in zip(self.shift, v)))

    def __str__(self):
        pattern = " x ".join("-N" if j in self.alpha else "N" for j in range(len(self.shift)))
        shift = ", ".join(str(x) for x in self.shift)
        return f"({pattern}) + ({shift})"


@dataclass(frozen=True)
class RegionUnion:
    """Finite union of shifted orthants; membership is the disjunction."""

    parts: tuple[OrthantRegion, ...]

    def contains(self, mu) -> bool:
        return any(part.contains(mu) for part in self.parts)

    def translated(self, v) -> "RegionUnion":
        return RegionUnion(tuple(part.translated(v) for part in self.parts))


# --------------------------------------------------------------------------
# strands

def strand_dim(blocks: BlockStructure, d) -> int:
    """Dimension of the degree-``d`` graded piece: prod_i C(d_i + r_i, r_i).
    Raises ``ValueError`` unless ``d`` has one component per block."""
    if len(d) != blocks.s:
        raise ValueError(f"degree {tuple(d)} needs {blocks.s} components, got {len(d)}")
    out = 1
    for di, ri in zip(d, blocks.r):
        if di < 0:
            return 0
        out *= comb(di + ri, ri)
    return out


@lru_cache(maxsize=None)
def _compositions_desc(total, parts):
    """Exponent tuples of length ``parts`` summing to ``total``, descending lex."""
    if parts == 1:
        return ((total,),)
    out = []
    for head in range(total, -1, -1):
        for tail in _compositions_desc(total - head, parts - 1):
            out.append((head,) + tail)
    return tuple(out)


def strand_basis(blocks: BlockStructure, d):
    """All monomials of multidegree ``d`` as flat exponent tuples, canonical
    (descending graded-lex) order; empty when some component is negative.
    Raises ``ValueError`` unless ``d`` has one component per block."""
    if len(d) != blocks.s:
        raise ValueError(f"degree {tuple(d)} needs {blocks.s} components, got {len(d)}")
    if any(di < 0 for di in d):
        return []
    per_block = [_compositions_desc(di, ri + 1) for di, ri in zip(d, blocks.r)]
    return [sum(parts, ()) for parts in product(*per_block)]


# --------------------------------------------------------------------------
# local cohomology supports and the region

def q_alpha(blocks: BlockStructure, alpha) -> OrthantRegion:
    """Support orthant of the Cech module attached to the block subset
    ``alpha`` (0-based): ``mu_j <= -(r_j + 1)`` on blocks in alpha and
    ``mu_j >= 0`` elsewhere.  Raises ``ValueError`` unless ``alpha`` is a
    nonempty subset of the block indices: the region and the local
    cohomology supports are unions over nonempty subsets only."""
    alpha = frozenset(alpha)
    if not alpha or not alpha <= set(range(blocks.s)):
        raise ValueError(f"alpha {sorted(alpha)} is not a nonempty subset of the block indices")
    shift = tuple(-(blocks.r[j] + 1) if j in alpha else 0 for j in range(blocks.s))
    return OrthantRegion(alpha, shift)


def _subsets_nonempty(blocks):
    for size in range(1, blocks.s + 1):
        yield from combinations(range(blocks.s), size)


def supp_local_cohomology(blocks: BlockStructure, ell: int) -> RegionUnion:
    """Support of the ell-th local cohomology of the ring at the irrelevant
    ideal: the union of ``Q_alpha`` over nonempty alpha with
    ``sum(r_j, j in alpha) + 1 = ell`` (empty when none qualifies)."""
    parts = tuple(
        q_alpha(blocks, alpha)
        for alpha in _subsets_nonempty(blocks)
        if sum(blocks.r[j] for j in alpha) + 1 == ell
    )
    return RegionUnion(parts)


def cohomological_dimension(blocks: BlockStructure) -> int:
    """Largest ell with nonvanishing local cohomology: sum(r_i) + 1."""
    return sum(blocks.r) + 1


def sigma_B(blocks: BlockStructure, gamma) -> RegionUnion:
    """Union over k >= 0 of the degree-k local cohomology support shifted by
    ``k * gamma`` (built strictly through :func:`supp_local_cohomology`)."""
    _check_gamma(blocks, gamma)
    parts = []
    for ell in range(cohomological_dimension(blocks) + 1):
        shift = tuple(ell * g for g in gamma)
        for part in supp_local_cohomology(blocks, ell).parts:
            parts.append(part.translated(shift))
    return RegionUnion(tuple(parts))


def _check_gamma(blocks, gamma):
    if len(gamma) != blocks.s:
        raise ValueError(f"gamma must have {blocks.s} components")
    if any(g <= 0 for g in gamma):
        raise ValueError(f"gamma must be strictly positive, got {tuple(gamma)}")


def region_RB(blocks: BlockStructure, gamma) -> RegionUnion:
    """Unreliable region of strand degrees: the union over nonempty block
    subsets alpha of ``Q_alpha + (sum of r_j over alpha) * gamma``.  Strand
    degrees must be chosen outside it."""
    _check_gamma(blocks, gamma)
    parts = []
    for alpha in _subsets_nonempty(blocks):
        weight = sum(blocks.r[j] for j in alpha)
        shift = tuple(weight * g for g in gamma)
        parts.append(q_alpha(blocks, alpha).translated(shift))
    return RegionUnion(tuple(parts))


def region_RB_via_sigma(blocks: BlockStructure, gamma) -> RegionUnion:
    """Alternate route to :func:`region_RB`: shift :func:`sigma_B` by -gamma."""
    return sigma_B(blocks, gamma).translated(tuple(-g for g in gamma))


def check_strand_degree(blocks: BlockStructure, gamma, nu) -> list:
    """Check a strand degree ``nu`` for forms of degree ``gamma``.

    Raises ``ValueError`` when ``nu`` does not have one component per
    block; returns the warnings that apply to ``nu`` (one when it lies in
    the unreliable region, else none)."""
    nu = tuple(nu)
    if len(nu) != blocks.s:
        raise ValueError(f"nu needs {blocks.s} components for this problem, got {len(nu)}")
    if region_RB(blocks, gamma).contains(nu):
        return [f"nu {nu} lies in the unreliable region: the determinant guarantee does not apply"]
    return []


# --------------------------------------------------------------------------
# complement corners and suggestion

def complement_corners(blocks: BlockStructure, gamma):
    """Componentwise-minimal points of the complement of the unreliable
    region in ``N^s``, sorted lexicographically.

    The region is a down-set.  Let ``mu'`` lie below a point of the part of
    ``alpha`` and close ``alpha`` under adding each ``j`` with ``mu'_j < w *
    gamma_j``, ``w`` the current weight (the sum of ``r_i`` over the set).
    Each added ``j`` satisfies ``mu'_j <= w * gamma_j - 1 <= (w + r_j) *
    gamma_j - r_j - 1`` because ``gamma_j >= 1``, and weights only grow, so
    the upper bounds of the closed set hold on it, as those of ``alpha``
    do; the closure stopped where every other ``mu'_j >= w * gamma_j``, so
    ``mu'`` lies in the part of the closed set.  A part's down-closure is
    its cylinder ``{mu_j <= shift_j, j in alpha}``, so the region is the
    union of the cylinders, and the complement is the intersection of their
    complements, each the points with ``mu_j > shift_j`` for some ``j`` in
    ``alpha``.  The corners are built one cylinder at a time, as minimal
    transversals: from ``{0}``, each corner still inside the cylinder is
    raised at one ``j`` in ``alpha`` to ``shift_j + 1`` in every way, and
    the raised points that another corner lies below are dropped (the
    corners outside the cylinder are an antichain that no raised point lies
    below).  A cylinder with some ``shift_j < 0`` misses ``N^s`` and
    changes nothing."""
    corners = {(0,) * blocks.s}
    for part in region_RB(blocks, gamma).parts:
        bounds = [(j, part.shift[j]) for j in part.alpha]
        inside = {mu for mu in corners if all(mu[j] <= b for j, b in bounds)}
        raised = {mu[:j] + (b + 1,) + mu[j + 1 :] for mu in inside for j, b in bounds}
        corners -= inside
        pool = corners | raised
        corners |= {
            mu for mu in raised if not any(nu != mu and all(map(int.__le__, nu, mu)) for nu in pool)
        }
    return sorted(corners)


def _smallest_strand_corner(blocks: BlockStructure, corners):
    """The corner of ``corners`` with minimal strand dimension; ties break
    to the lexicographically smallest corner."""
    return min(corners, key=lambda c: (strand_dim(blocks, c), c))


def suggest_nu(blocks: BlockStructure, gamma):
    """Complement corner with minimal strand dimension (the smallest matrix);
    ties break to the lexicographically smallest corner."""
    return _smallest_strand_corner(blocks, complement_corners(blocks, gamma))


# --------------------------------------------------------------------------
# pretty-printing and plots

def describe_region(blocks: BlockStructure, gamma, corners) -> str:
    """Multi-line human-readable listing of the region, its complement
    corners ``corners`` and the suggestion among them."""
    region = region_RB(blocks, gamma)
    lines = [f"unreliable region for gamma = {tuple(gamma)}:"]
    for part in region.parts:
        alpha_txt = "{" + ",".join(str(j + 1) for j in sorted(part.alpha)) + "}"
        lines.append(f"  Q{alpha_txt} part: {part}")
    lines.append("complement corners: " + ", ".join(str(c) for c in corners))
    nu = _smallest_strand_corner(blocks, corners)
    lines.append(f"suggested nu: {nu}  (strand dimension {strand_dim(blocks, nu)})")
    return "\n".join(lines)


def _plot_window(blocks, gamma, corners):
    """``(lo, hi, region, nu)`` of an s = 2 plot of the region with the
    complement corners ``corners``."""
    if blocks.s != 2:
        raise ValueError("plotting needs exactly two blocks")
    region = region_RB(blocks, gamma)
    shifts = [p.shift for p in region.parts]
    lo = min(min(s[j] for s in shifts) for j in range(2))
    lo = min(lo, 0) - 2
    hi = max(max(c) for c in corners) + 3
    return lo, hi, region, _smallest_strand_corner(blocks, corners)


def ascii_region_plot(blocks: BlockStructure, gamma, corners) -> str:
    """Character plot of the s = 2 region: '#' inside, '.' outside,
    'C' the complement corners ``corners``, 'n' the suggested strand degree."""
    lo, hi, region, nu = _plot_window(blocks, gamma, corners)
    marks = {c: "C" for c in corners}
    marks[nu] = "n"
    lines = [f"mu_2 from {lo} (bottom) to {hi} (top), mu_1 from {lo} to {hi}"]
    for y in range(hi, lo - 1, -1):
        row = []
        for x in range(lo, hi + 1):
            mu = (x, y)
            row.append(marks.get(mu) or ("#" if region.contains(mu) else "."))
        lines.append("".join(row))
    return "\n".join(lines)


def svg_region_plot(blocks: BlockStructure, gamma, corners) -> str:
    """Small standalone SVG of the s = 2 region (one cell per lattice point)
    with the complement corners ``corners``."""
    lo, hi, region, nu = _plot_window(blocks, gamma, corners)
    cell = 18
    n = hi - lo + 1
    width = n * cell + 40
    height = n * cell + 40
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="4" y="14" font-size="12">region for gamma={tuple(gamma)}, '
        f"blocks r={blocks.r}; x,y in [{lo},{hi}]</text>",
    ]
    for y in range(lo, hi + 1):
        for x in range(lo, hi + 1):
            mu = (x, y)
            px = 20 + (x - lo) * cell
            py = 20 + (hi - y) * cell
            if mu == nu:
                fill = "#31a354"
            elif mu in corners:
                fill = "#e34a33"
            elif region.contains(mu):
                fill = "#9ecae1"
            else:
                fill = "#ffffff"
            out.append(
                f'<rect x="{px}" y="{py}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="#bbbbbb" stroke-width="0.5"/>'
            )
    # axes through the origin
    ox = 20 + (0 - lo) * cell
    oy = 20 + (hi - 0) * cell + cell
    out.append(
        f'<line x1="{ox}" y1="20" x2="{ox}" y2="{20 + n * cell}" stroke="#333333"/>'
    )
    out.append(
        f'<line x1="20" y1="{oy}" x2="{20 + n * cell}" y2="{oy}" stroke="#333333"/>'
    )
    out.append("</svg>")
    return "\n".join(out)
