"""Extraction and verification of the implicit equation from a strand matrix.

The representation matrix ``M_nu`` has entries linear in the target
variables and drops rank exactly on the parametrized hypersurface.  For a
square matrix of full generic rank the implicit equation (to the power of
the degree of the parametrization, possibly times a relatively prime
extraneous factor) is its exact determinant; in the non-square case it
divides the gcd of the maximal minors.  Factorization into those pieces is
out of scope: the certified output is the normalized strand determinant
together with a vanishing certificate from exact back-substitution of the
parametrization.

Randomized steps (generic rank, rank-drop sampling, minor selection) take
explicit seeds and documented ranges, so results are reproducible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .complexes import (
    LinearFormMatrix,
    ProblemInstance,
    homology_dim,
    representation_matrix,
)
from .linalg import _bareiss, rank
from .multipoly import (
    MultiPoly,
    _primitive_factor,
    eval_at,
    exact_div,
    gcd_poly,
    normalize_poly,
    substitute_targets,
    target_ring,
)
from .regions import check_strand_degree, suggest_nu

# numerators of random target specializations are drawn uniformly from
# [-SPECIALIZATION_RANGE, SPECIALIZATION_RANGE] (denominator 1)
SPECIALIZATION_RANGE = 10**6
# parameter points are sampled with coordinates in [-POINT_RANGE, POINT_RANGE];
# the range is wide so that proper subvarieties (base points, singular loci of
# the image, where the specialized rank drops further) are rarely hit
POINT_RANGE = 99


class MinorsRankError(RuntimeError):
    """Every sampled maximal minor vanished: the matrix does not have the
    expected generic rank, re-check the strand degree."""


def generic_rank(m: LinearFormMatrix, trials: int = 4, seed: int = 0) -> int:
    """Rank over the function field of the target variables, estimated as the
    maximum rank over ``trials`` random integer specializations.

    Monotone non-decreasing in ``trials``; equals the true generic rank with
    probability overwhelming in the specialization range.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    best = 0
    limit = min(m.rows, m.cols)
    for _ in range(trials):
        values = [rng.randint(-SPECIALIZATION_RANGE, SPECIALIZATION_RANGE) for _ in m.target_names]
        best = max(best, rank(m.specialize(values)))
        if best == limit:
            break
    return best


def sample_parameter_point(ring, rng):
    """Random parameter point with no block identically zero, as a
    name -> value mapping."""
    point = {}
    for start, stop in ring.block_slices:
        while True:
            coords = [rng.randint(-POINT_RANGE, POINT_RANGE) for _ in range(stop - start)]
            if any(coords):
                break
        for name, v in zip(ring.names[start:stop], coords):
            point[name] = v
    return point


@dataclass
class RankDropReport:
    """Outcome of substituting the parametrization into the strand matrix at
    random parameter points."""

    generic_rank: int
    point_ranks: list
    skipped_base_locus: int

    @property
    def inconclusive(self) -> bool:
        return not self.point_ranks

    @property
    def passed(self) -> bool:
        return bool(self.point_ranks) and all(r < self.generic_rank for r in self.point_ranks)

    def to_json_dict(self):
        return {
            "generic_rank": self.generic_rank,
            "point_ranks": self.point_ranks,
            "skipped_base_locus": self.skipped_base_locus,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
        }


def rank_drop_check(
    m: LinearFormMatrix,
    inst: ProblemInstance,
    points: int = 20,
    seed: int = 0,
    generic: int | None = None,
) -> RankDropReport:
    """Specialize ``T_j = f_j(p)`` at ``points`` random parameter points and
    record the matrix rank at each; the check passes when every recorded
    rank is below the generic rank.  Points on the base locus (all f zero)
    are skipped; if every point lands there the report is inconclusive.
    """
    if points < 1:
        raise ValueError("points must be at least 1")
    if generic is None:
        generic = generic_rank(m, trials=4, seed=seed)
    rng = random.Random(seed)
    ranks = []
    skipped = 0
    for _ in range(points):
        point = sample_parameter_point(inst.ring, rng)
        values = [eval_at(fj, point) for fj in inst.f]
        if all(v == 0 for v in values):
            skipped += 1
            continue
        ranks.append(rank(m.specialize(values)))
    return RankDropReport(generic_rank=generic, point_ranks=ranks, skipped_base_locus=skipped)


# --------------------------------------------------------------------------
# determinants of linear-form matrices

def _integerize_columns(entries):
    """Scale each column to integer-primitive polynomial entries (the global
    rational factor is irrelevant: results are normalized afterwards)."""
    if not entries or not entries[0]:
        return entries
    factors = [
        _primitive_factor(c for row in entries for c in row[j].terms.values())
        for j in range(len(entries[0]))
    ]
    return [[p.scale(f) for p, f in zip(row, factors)] for row in entries]


def _det_poly(entries, ring) -> MultiPoly:
    """Exact determinant of a square matrix of polynomials, by the shared
    fraction-free elimination with exact polynomial division."""
    n = len(entries)
    one = MultiPoly.constant(ring, 1)
    if n == 0:
        return one
    work = [row[:] for row in entries]
    pivots, sign = _bareiss(work, n, exact_div, one)
    if len(pivots) < n:
        return MultiPoly.zero(ring)
    det = work[n - 1][n - 1]
    return -det if sign < 0 else det


def det_linear_matrix(m: LinearFormMatrix) -> MultiPoly:
    """Normalized exact determinant of a square linear-form matrix, as a
    target-ring polynomial (integer-primitive, positive leading coefficient)."""
    if m.rows != m.cols:
        raise ValueError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    ring = target_ring(m.target_names)
    entries = [[m.entry_poly(i, j, ring) for j in range(m.cols)] for i in range(m.rows)]
    entries = _integerize_columns(entries)
    return normalize_poly(_det_poly(entries, ring))


def minors_gcd(m: LinearFormMatrix, samples: int = 4, seed: int = 0) -> MultiPoly:
    """Normalized gcd of ``samples`` random maximal minors (identically zero
    minors are skipped).  With enough samples this is, with high
    probability, the smallest strand-determinant multiple the maximal
    minors generate.  Requires rows <= cols and full generic row rank;
    raises :class:`MinorsRankError` when every sampled minor vanishes.
    """
    if m.rows > m.cols:
        raise ValueError("minors_gcd expects rows <= cols")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    ring = target_ring(m.target_names)
    entries = [[m.entry_poly(i, j, ring) for j in range(m.cols)] for i in range(m.rows)]
    entries = _integerize_columns(entries)
    total = comb(m.cols, m.rows)
    rng = random.Random(seed)
    seen = set()
    subsets = []
    if total <= samples:
        subsets = list(combinations(range(m.cols), m.rows))
    else:
        while len(subsets) < samples:
            pick = tuple(sorted(rng.sample(range(m.cols), m.rows)))
            if pick not in seen:
                seen.add(pick)
                subsets.append(pick)
    g = MultiPoly.zero(ring)
    any_nonzero = False
    for cols in subsets:
        minor = _det_poly([[entries[i][j] for j in cols] for i in range(m.rows)], ring)
        if minor.is_zero():
            continue
        any_nonzero = True
        g = gcd_poly(g, minor)
        if g.total_degree() == 0:
            break
    if not any_nonzero:
        raise MinorsRankError(
            f"all {len(subsets)} sampled {m.rows}x{m.rows} minors vanish; "
            "the strand matrix is rank-deficient, re-check nu"
        )
    return g


def verify_implicit(delta: MultiPoly, inst: ProblemInstance) -> bool:
    """Exact vanishing certificate: substitute ``T_j = f_j`` into ``delta``
    and test for the zero polynomial."""
    if delta.is_zero():
        raise ValueError("cannot verify the zero polynomial")
    return substitute_targets(delta, inst.f).is_zero()


def expected_degree_p1p1(inst: ProblemInstance, nu) -> int:
    """Predicted strand-determinant degree for four bidegree-(a, b) forms on
    P^1 x P^1 at ``nu = (2a-1, b-1)`` or ``(a-1, 2b-1)``:
    ``2ab - dim of the 2nd Koszul homology strand at (4a-1, 3b-1)``."""
    if inst.blocks.r != (1, 1):
        raise ValueError("degree formula applies to blocks (1, 1) only")
    if len(inst.f) != 4:
        raise ValueError("degree formula applies to 4 polynomials")
    a, b = inst.gamma
    nu = tuple(nu)
    if nu not in {(2 * a - 1, b - 1), (a - 1, 2 * b - 1)}:
        raise ValueError(f"nu {nu} is not one of the formula corners for gamma {(a, b)}")
    return 2 * a * b - homology_dim(inst, 2, (4 * a - 1, 3 * b - 1))


# --------------------------------------------------------------------------
# the pipeline

class PipelineError(RuntimeError):
    """The strand matrix cannot support implicit-equation extraction."""


@dataclass
class ImplicitResult:
    """Everything the pipeline certifies about one run."""

    delta: MultiPoly
    nu: tuple[int, ...]
    matrix_rows: int
    matrix_cols: int
    generic_rank: int
    square: bool
    verified: bool
    rank_drop: RankDropReport
    expected_degree: int | None = None
    warnings: list = field(default_factory=list)

    @property
    def degree(self) -> int:
        return self.delta.total_degree()

    def to_json_dict(self) -> dict:
        return {
            "schema": "implicit-result/1",
            "nu": list(self.nu),
            "matrix": {"rows": self.matrix_rows, "cols": self.matrix_cols},
            "generic_rank": self.generic_rank,
            "square": self.square,
            "rank_drop": self.rank_drop.to_json_dict(),
            "degree": self.degree,
            "expected_degree": self.expected_degree,
            "delta": str(self.delta),
            "verified": self.verified,
            "warnings": self.warnings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def run_pipeline(
    inst: ProblemInstance,
    nu=None,
    *,
    samples: int = 4,
    trials: int = 4,
    points: int = 20,
    seed: int = 0,
) -> ImplicitResult:
    """Matrix -> ranks -> determinant (or minors gcd) -> exact verification.

    ``nu`` defaults to the suggested complement corner; a ``nu`` with the
    wrong number of components raises ``ValueError``.  Raises
    :class:`PipelineError` when the matrix shape/rank rules out extraction;
    an inconclusive rank-drop check only warns (verification is the gate).
    """
    warnings_list = []
    if nu is None:
        nu = suggest_nu(inst.blocks, inst.gamma)
        warnings_list.append(f"auto-selected nu {tuple(nu)}")
    nu = tuple(nu)
    warnings_list.extend(check_strand_degree(inst.blocks, inst.gamma, nu))
    m = representation_matrix(inst, nu, warn_region=False)
    if m.rows == 0 or m.cols == 0:
        raise PipelineError(f"empty strand at nu {nu}: matrix is {m.rows}x{m.cols}")
    grank = generic_rank(m, trials=trials, seed=seed)
    drop = rank_drop_check(m, inst, points=points, seed=seed, generic=grank)
    if drop.inconclusive:
        warnings_list.append("rank-drop check inconclusive: every sampled point was on the base locus")
    elif not drop.passed:
        warnings_list.append("rank-drop check FAILED: some specialized rank equals the generic rank")
    square = m.rows == m.cols
    if grank < m.rows:
        raise PipelineError(
            f"matrix has generic rank {grank} < {m.rows} rows; no maximal minor can "
            "carry the implicit equation, re-check nu"
        )
    if square:
        delta = det_linear_matrix(m)
    else:
        warnings_list.append(
            f"matrix is {m.rows}x{m.cols}: using gcd of {samples} sampled maximal minors"
        )
        delta = minors_gcd(m, samples=samples, seed=seed)
    if delta.is_zero():
        raise PipelineError("strand determinant vanishes identically")
    expected = None
    try:
        expected = expected_degree_p1p1(inst, nu)
    except ValueError:
        pass
    if expected is not None and delta.total_degree() != expected:
        warnings_list.append(
            f"determinant degree {delta.total_degree()} differs from the predicted {expected}"
        )
    verified = verify_implicit(delta, inst)
    return ImplicitResult(
        delta=delta,
        nu=nu,
        matrix_rows=m.rows,
        matrix_cols=m.cols,
        generic_rank=grank,
        square=square,
        verified=verified,
        rank_drop=drop,
        expected_degree=expected,
        warnings=warnings_list,
    )
