"""Extraction and verification of the implicit equation from a strand matrix.

The representation matrix ``M_nu`` has entries linear in the target
variables and drops rank exactly on the parametrized hypersurface.  It is
the first differential of the degree-``nu`` strand of the cycle complex,
and the implicit equation (to the power of the degree of the
parametrization, possibly times a relatively prime extraneous factor) is
the determinant of that whole strand, ``det((Z.)_nu)``: for a square
``M_nu`` of full rank simply ``det(M_nu)``, and for a wide one a quotient of
minors of the differentials by Cayley's formula (:func:`strand_determinant`).
Factorization into those pieces is out of scope: the certified output is
the normalized strand determinant together with an exact vanishing
certificate.

Both are computed by integer evaluation, never by eliminating polynomial
matrices, and both on the monomial basis of a strand, each monomial
evaluated at its own exponents: a minor of degree ``N`` is interpolated
from integer determinants at the degree-``N`` monomials of the target ring,
and ``delta_k(f) = 0`` is decided at the monomials of multidegree
``k*gamma`` of the parameter ring.  The degrees are known up front, so both
grids are exact, not probabilistic.

Randomized steps take explicit seeds and documented ranges, so results are
reproducible.  There are two: one integer point, at which an exact
elimination proves that ``M_nu`` has full row rank and picks the minors of
the strand determinant, and the parameter points of the rank-drop check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import chain
from math import factorial, lcm, prod
from operator import mul

from .complexes import (
    LinearFormMatrix,
    ProblemInstance,
    homology_dim,
    strand_differentials,
)
from .linalg import _bareiss, rank
from .multipoly import (
    MultiPoly,
    _eval_terms,
    eval_at,
    exact_div,
    normalize_poly,
    target_ring,
)
from .regions import check_strand_degree, strand_basis, strand_dim, suggest_nu

# numerators of random target specializations are drawn uniformly from
# [-SPECIALIZATION_RANGE, SPECIALIZATION_RANGE] (denominator 1)
SPECIALIZATION_RANGE = 10**6
# parameter points are sampled with coordinates in [-POINT_RANGE, POINT_RANGE];
# the range is wide so that proper subvarieties (base points, singular loci of
# the image, where the specialized rank drops further) are rarely hit
POINT_RANGE = 99
# random specializations taken by generic_rank
GENERIC_RANK_TRIALS = 4


def generic_rank(m: LinearFormMatrix, seed: int = 0) -> int:
    """Rank over the function field of the target variables, estimated as the
    maximum rank over ``GENERIC_RANK_TRIALS`` random integer specializations;
    equals the true generic rank with probability overwhelming in the
    specialization range.
    """
    rng = random.Random(seed)
    best = 0
    limit = min(m.rows, m.cols)
    for _ in range(GENERIC_RANK_TRIALS):
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
    *,
    generic: int,
) -> RankDropReport:
    """Specialize ``T_j = f_j(p)`` at ``points`` random parameter points and
    record the matrix rank at each; the check passes when every recorded
    rank is below ``generic``, the generic rank of ``m``.  Points on the
    base locus (all f zero) are skipped; if every point lands there the
    report is inconclusive.  ``m`` is linear, so the integer forms serve.
    """
    if points < 1:
        raise ValueError("points must be at least 1")
    rng = random.Random(seed)
    ranks = []
    skipped = 0
    for _ in range(points):
        point = sample_parameter_point(inst.ring, rng)
        values = [eval_at(fj, point) for fj in inst.integer_forms]
        if all(v == 0 for v in values):
            skipped += 1
            continue
        ranks.append(rank(m.specialize(values)))
    return RankDropReport(generic_rank=generic, point_ranks=ranks, skipped_base_locus=skipped)


# --------------------------------------------------------------------------
# determinants of linear-form matrices, by interpolation

def _stirling_first(top):
    """Signed Stirling numbers of the first kind ``s[k][j]``, ``k <= top``:
    ``x (x-1) ... (x-k+1) = sum_j s[k][j] x^j``."""
    s = [[1]]
    for k in range(top):
        prev = s[k] + [0]
        s.append([(prev[j - 1] if j else 0) - k * prev[j] for j in range(k + 2)])
    return s


def _interpolate_simplex(values, top):
    """Integer coefficients ``{e: c}`` of the form of degree ``top`` with
    integer coefficients that takes ``values[e]`` at every monomial ``e`` of
    degree ``top`` (the strand basis), each monomial evaluated at its own
    exponents with ``T_0 = 1``.

    That grid is the simplex ``|a| <= top`` of ``(T_1..T_n)``, which is
    unisolvent for polynomials of total degree ``<= top``: one that vanishes
    there is zero (restrict to ``a_1 = 0``, divide by ``x_1``, shift ``a_1``
    down by one, and induct).  A product of unisolvent sets is unisolvent
    for the tensor product, so the monomials of a multidegree ``d``, each
    evaluated at its own exponents with the first variable of every block
    set to 1, fix every form of multidegree ``d``.  Both exact grids of this
    module rest on this fact.

    Forward differences along the lines that trade ``T_0`` for one ``T_t``
    give the Newton coefficients ``Delta^b p(0)``, each divisible by ``b!``;
    dividing and expanding each ``binom(x, k) = x (x-1) ... (x-k+1) / k!``
    by Stirling numbers of the first kind gives the monomial coefficients.
    Every step is an integer pass along the lines of one variable, so it
    never leaves the grid.
    """
    vals = dict(values)
    # per t >= 1, each line from a monomial free of T_t, in increasing T_t
    lines = [
        [[(e[0] - k,) + e[1:t] + (k,) + e[t + 1:] for k in range(e[0] + 1)] for e in vals if not e[t]]
        for t in range(1, len(next(iter(vals))))
    ]
    for axis_lines in lines:
        for line in axis_lines:
            v = [vals[e] for e in line]
            for t in range(1, len(v)):
                for k in range(len(v) - 1, t - 1, -1):
                    v[k] -= v[k - 1]
            for k, e in enumerate(line):
                vals[e] = v[k] // factorial(k)
    stirling = _stirling_first(top)
    for axis_lines in lines:
        for line in axis_lines:
            v = [vals[e] for e in line]
            for j, e in enumerate(line):
                vals[e] = sum(stirling[k][j] * v[k] for k in range(j, len(v)))
    return {e: c for e, c in vals.items() if c}


def _det_on_columns(m: LinearFormMatrix, cols, rows) -> MultiPoly:
    """Exact signed determinant of the square submatrix of ``den * m`` on
    the columns ``cols`` and the rows ``rows``, as a target-ring polynomial
    with integer coefficients: ``den^N`` times the minor of ``m``, a scale
    that :func:`normalize_poly` removes.

    The determinant is zero or a form of degree ``N = len(rows)``, so it is
    fixed by its values on the ``C(N+n, n)`` monomials of degree ``N``
    (see :func:`_interpolate_simplex`), each an integer determinant on the
    integer ``coeffs``.  The result is checked against one more integer
    determinant at a fixed point off the grid.
    """
    cols = list(cols)
    rows = list(rows)
    size = len(rows)
    if len(cols) != size:
        raise ValueError(f"{len(cols)} columns do not make a square {size}-row submatrix")
    ring = target_ring(m.target_names)
    if size == 0:
        return MultiPoly.constant(ring, 1)
    entries = [[m.coeffs[r][j] for j in cols] for r in rows]

    def det_at(point):
        work = [[sum(map(mul, point, e)) for e in row] for row in entries]
        pivots, sign = _bareiss(work, size)
        return sign * work[-1][-1] if len(pivots) == size else 0

    values = {e: det_at((1,) + e[1:]) for e in strand_basis(ring.blocks, (size,))}
    terms = _interpolate_simplex(values, size)
    check = [2] + [2 * (size + t) + 1 for t in range(1, ring.nvars)]
    if _eval_terms(terms, check) != det_at(check):
        raise ArithmeticError("interpolated determinant disagrees with a direct evaluation")
    return MultiPoly(ring, terms)


def strand_determinant(diffs, seed: int = 0) -> MultiPoly:
    """Normalized determinant of the strand complex whose differentials
    ``d_1, d_2, ..`` are ``diffs`` (any iterable; it is read only as far as
    needed), by Cayley's formula.

    At one seeded integer point, ``J_1`` are the pivot columns of ``d_1``;
    the columns of ``d_q`` outside ``J_q`` become the rows ``K_q`` of
    ``d_(q+1)``, whose pivot columns on those rows are ``J_(q+1)``, until no
    rows are left.  Then ``det = prod_q det(d_q[K_(q-1), J_q])^((-1)^(q+1))``
    (Gelfand, Kapranov & Zelevinsky, *Discriminants, Resultants and
    Multidimensional Determinants*, Appendix A).  Every chosen minor is
    nonzero at the point, so none vanishes identically, and the determinant
    of an exact complex does not depend on the choice up to sign: the
    normalized result does not depend on ``seed``.  :func:`_det_on_columns`
    interpolates each minor at an integer scale that the normalization
    removes.  The chain stops at the first empty row set, so for a square
    ``d_1`` of full rank no later differential is built and the result is
    the one minor ``det(d_1)``.  The later terms are zero when the strand is
    acyclic, as it is outside the unreliable region: ``d_(q+1)`` has rank 0,
    and a map with linear entries is never onto a nonzero free module
    (graded Nakayama), so exactness at the next term makes it zero too.
    Only a chain that reaches ``d_2`` has even minors, and only then is the
    product of the odd ones divided, exactly, by the product of the even ones.

    Raises :class:`PipelineError` when a rank falls short at the point or
    rows remain after the last differential: the strand complex is not
    exact (at this point, or at all).  A shortfall in ``d_1 = M_nu`` is
    reported as its generic rank: then no maximal minor of ``M_nu`` can
    carry the implicit equation.
    """
    rng = random.Random(seed)
    minors = []
    degree = 0
    rows = None
    for q, d in enumerate(diffs, 1):
        if rows is None:
            rows = range(d.rows)
            values = [rng.randint(-SPECIALIZATION_RANGE, SPECIALIZATION_RANGE) for _ in d.target_names]
        spec = d.specialize(values).data
        pivots, _ = _bareiss([spec[i] for i in rows], d.cols)
        if len(pivots) < len(rows):
            if q == 1:
                short = (
                    f"matrix has generic rank {len(pivots)} < {len(rows)} rows; "
                    "no maximal minor can carry the implicit equation, re-check nu"
                )
            else:
                short = (
                    f"differential {q} has rank {len(pivots)} < {len(rows)} "
                    "on the rows left by the previous one"
                )
            raise PipelineError(f"the strand complex is not exact: {short}")
        minors.append(_det_on_columns(d, pivots, rows))
        degree += len(pivots) if q % 2 else -len(pivots)
        chosen = set(pivots)
        rows = [c for c in range(d.cols) if c not in chosen]
        if not rows:
            break
    if rows:
        raise PipelineError(
            f"the strand complex is not exact: {len(rows)} columns of the last "
            "differential are left over"
        )
    one = MultiPoly.constant(minors[0].ring, 1)
    delta = prod(minors[0::2], start=one)
    if len(minors) > 1:
        delta = exact_div(delta, prod(minors[1::2], start=one))
    delta = normalize_poly(delta)
    if delta.total_degree() != degree:
        raise ArithmeticError(f"strand determinant has degree {delta.total_degree()}, not {degree}")
    return delta


def _vanishes_on_grid(terms, k, inst) -> bool:
    """Whether the degree-``k`` form ``terms`` vanishes at the integer forms
    of ``inst``.  ``delta_k(f)`` has multidegree ``k*gamma``,
    so it is zero when it vanishes at every monomial of that strand, each
    evaluated at its own exponents with the first variable of every block
    set to 1 (see :func:`_interpolate_simplex`).  Stops at the first
    nonzero value."""
    mult = lcm(*(c.denominator for c in terms.values()))
    # each term as its integer coefficient and its (variable, exponent) factors
    terms = [
        (c.numerator * (mult // c.denominator), [(j, e) for j, e in enumerate(exps) if e])
        for exps, c in terms.items()
    ]
    firsts = [start for start, _ in inst.ring.block_slices]
    for mon in strand_basis(inst.blocks, tuple(k * g for g in inst.gamma)):
        point = list(mon)
        for v in firsts:
            point[v] = 1
        powers = []
        for f in inst.integer_forms:
            y = _eval_terms(f.terms, point)
            col = [1]
            for _ in range(k):
                col.append(col[-1] * y)
            powers.append(col)
        total = 0
        for c, factors in terms:
            for j, e in factors:
                c *= powers[j][e]
            total += c
        if total:
            return False
    return True


def verify_implicit(delta: MultiPoly, inst: ProblemInstance) -> bool:
    """Exact vanishing certificate: whether ``delta(f_0, .., f_n)`` is the
    zero polynomial, decided by integer evaluation on a grid.

    The homogeneous components ``delta_k`` of ``delta`` map to the distinct
    multidegrees ``k*gamma``, so ``delta(f) = 0`` exactly when every
    ``delta_k(f) = 0``; each component is tested on the monomials of the
    strand ``k*gamma`` (:func:`_vanishes_on_grid`; why they suffice is in
    :func:`_interpolate_simplex`) after one integer multiplier clears the
    denominators of ``delta_k``.  The images are the integer forms ``L * f``
    (:attr:`ProblemInstance.integer_forms`): ``delta_k(L f) = L^k
    delta_k(f)``.
    """
    if delta.is_zero():
        raise ValueError("cannot verify the zero polynomial")
    if delta.ring.nvars != len(inst.f):
        raise ValueError(
            f"arity mismatch: {delta.ring.nvars} target variables, {len(inst.f)} images"
        )
    components = {}
    for exps, c in delta.terms.items():
        components.setdefault(sum(exps), {})[exps] = c
    return all(_vanishes_on_grid(components[k], k, inst) for k in sorted(components))


def evaluation_points(inst: ProblemInstance, nu) -> dict:
    """Integer evaluations the pipeline needs at strand degree ``nu``, known
    from ``D = strand_dim(nu)`` before any elimination.  Both grids are
    monomial bases of strands (see :func:`_interpolate_simplex`): the
    degree-``D`` strand of the target ring for each maximal minor, and at
    most the strand ``D*gamma`` of the parameter ring to verify an equation
    of degree ``<= D``."""
    size = strand_dim(inst.blocks, nu)
    return {
        "determinant": strand_dim(inst.target.blocks, (size,)),
        "verification": strand_dim(inst.blocks, tuple(size * g for g in inst.gamma)),
    }


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
    # accepted and ignored, because perfbench/workloads.py passes samples=
    samples=None,
    points: int = 20,
    seed: int = 0,
) -> ImplicitResult:
    """Matrix -> strand determinant -> rank drop -> exact verification.

    ``nu`` defaults to the suggested complement corner; a ``nu`` with the
    wrong number of components raises ``ValueError``.  The determinant is
    that of the whole strand complex (:func:`strand_determinant`); for a
    square ``M_nu`` of full rank it is ``det(M_nu)``.  Its one seeded point
    both proves that ``M_nu`` has full row rank, by an exact elimination,
    and chooses the minors; the reported ``generic_rank`` is that row
    count.  Raises :class:`PipelineError` when the matrix shape/rank rules
    out extraction or the strand complex is not exact at ``nu``; an
    inconclusive rank-drop check only warns (verification is the gate).
    """
    warnings_list = []
    if nu is None:
        nu = suggest_nu(inst.blocks, inst.gamma)
        warnings_list.append(f"auto-selected nu {tuple(nu)}")
    nu = tuple(nu)
    warnings_list.extend(check_strand_degree(inst.blocks, inst.gamma, nu))
    diffs = strand_differentials(inst, nu)
    m = next(diffs)
    if m.rows == 0 or m.cols == 0:
        raise PipelineError(f"empty strand at nu {nu}: matrix is {m.rows}x{m.cols}")
    try:
        delta = strand_determinant(chain([m], diffs), seed=seed)
    except PipelineError as exc:
        raise PipelineError(f"at nu {nu}: {exc}") from exc
    # the determinant found m.rows pivots of M_nu at its seeded point, so
    # M_nu has full row rank over the function field of the targets
    drop = rank_drop_check(m, inst, points=points, seed=seed, generic=m.rows)
    if drop.inconclusive:
        warnings_list.append("rank-drop check inconclusive: every sampled point was on the base locus")
    elif not drop.passed:
        warnings_list.append("rank-drop check FAILED: some specialized rank equals the generic rank")
    square = m.rows == m.cols
    if not square:
        warnings_list.append(
            f"matrix is {m.rows}x{m.cols}: delta is the determinant of the whole strand complex"
        )
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
        generic_rank=m.rows,
        square=square,
        verified=verified,
        rank_drop=drop,
        expected_degree=expected,
        warnings=warnings_list,
    )
