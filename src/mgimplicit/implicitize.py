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

Determinants are computed by integer evaluation, never by eliminating
polynomial matrices: a minor of degree ``N`` is interpolated from integer
determinants at the degree-``N`` monomials of the target ring, each
monomial evaluated at its own exponents.  Those points are walked in
nested loops over ``T_n..T_2`` with ``T_1`` innermost (:func:`_walk`), so
each point's matrix is an earlier point's plus one slice of the pencil,
and the interpolation reads its lines as positions in that order, built
once per number of variables and degree (:func:`_simplex`).  The
pipeline's certificate is
structural (:func:`_certify`): the columns of ``M_nu`` are syzygies of f.
:func:`verify_implicit` certifies an equation with no matrix behind it
(``implicit verify``): it decides ``delta_k(f) = 0`` at the monomials of
multidegree ``k*gamma`` of the parameter ring.  The degrees are known up
front, so both grids are exact, not probabilistic.

Generic ranks are decided on the determinant grid too (:func:`_grid`):
those of :func:`generic_rank`, and the full row rank of each differential,
whose pivots pick the minors of the strand determinant.  One step is
randomized, with an explicit seed and a documented range, so results are
reproducible: the parameter points of the rank-drop check, whose first
point off the base locus the certificate evaluates at too.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, chain, combinations_with_replacement, islice, repeat
from math import factorial, prod
from operator import add, mul

from .complexes import LinearFormMatrix, ProblemInstance, StrandComplex, _homology_dim
from .linalg import Slices, _annihilated, _bareiss, rank, saturated_basis
from .multipoly import (
    MultiPoly,
    _eval_terms,
    exact_div,
    normalize_poly,
    target_ring,
)
from .regions import check_strand_degree, strand_basis, strand_dim, suggest_nu

# parameter points are sampled with coordinates in [-POINT_RANGE, POINT_RANGE];
# the range is wide so that proper subvarieties (base points, singular loci of
# the image, where the specialized rank drops further) are rarely hit
POINT_RANGE = 99


def _grid(nvars, k):
    """The monomials of degree ``k`` in ``nvars`` target variables, each at
    its own exponents with ``T_0 = 1``, one at a time and in the order of
    :func:`strand_basis`, from ``(1, 0, .., 0)`` on: the grid of
    :func:`_interpolate_simplex`, at one point of which every nonzero form
    of degree at most ``k`` is nonzero."""
    for c in combinations_with_replacement(range(nvars), k):
        yield (1,) + tuple(c.count(t) for t in range(1, nvars))


def generic_rank(m: LinearFormMatrix) -> int:
    """Rank over the function field of the target variables, exactly: the
    largest rank of ``m`` at the points of :func:`_grid` of degree ``k =
    min(rows, cols)``, which stops at the first point of rank ``k``.  A
    nonzero ``j x j`` minor is a form of degree ``j <= k``, so it is nonzero
    at one of those points.  Each point costs one rank; a rank-deficient
    ``m`` is specialized at every point, ``C(k + n, n)`` of them for
    ``n + 1`` target variables, a count known before any elimination.

    A wide or tall ``m`` whose :attr:`~mgimplicit.linalg.Slices._generic_columns`
    are found has rank ``k`` with no grid: their ``k`` pivots modulo
    :data:`~mgimplicit.linalg._P` at one fixed point are a ``k x k`` minor
    that is nonzero there, hence a nonzero polynomial.  A square ``m``
    keeps the grid, since its columns are all of them, found by no search.
    """
    limit = min(m.rows, m.cols)
    if m.short < m.long and m._generic_columns is not None:
        return limit
    best = 0
    for point in _grid(len(m.target_names), limit):
        best = max(best, rank(m.specialize(point)))
        if best == limit:
            break
    return best


def sample_parameter_point(ring, rng):
    """Random parameter point with no block identically zero, as its
    coordinates in the order of ``ring.names``."""
    point = []
    for start, stop in ring.block_slices:
        while True:
            coords = [rng.randint(-POINT_RANGE, POINT_RANGE) for _ in range(stop - start)]
            if any(coords):
                break
        point += coords
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

    When ``m`` is ``M_nu`` (it knows its row monomials) and not tall, the
    strand monomials at ``p`` go to :func:`~mgimplicit.linalg.rank` as a
    candidate left kernel vector: they are one whenever the columns are
    syzygies of f.  ``rank`` tries them right after its square elimination
    modulo the first prime, and when that leaves it one pivot short they
    prove the drop with no kernel computed: neither the one that ``M_nu``
    would lift through its monomials nor one modulo the second prime.
    The ranks are the same either way.
    """
    _check_points(points)
    monomials = m.row_monomials if m.rows <= m.cols else None
    ranks = []
    skipped = 0
    for point, values in islice(_parameter_points(inst, seed), points):
        if not any(values):
            skipped += 1
        else:
            kernel = None if monomials is None else [prod(map(pow, point, u)) for u in monomials]
            ranks.append(rank(m.specialize(values), kernel))
    return RankDropReport(generic_rank=generic, point_ranks=ranks, skipped_base_locus=skipped)


def _check_points(points):
    if points < 1:
        raise ValueError("points must be at least 1")


def _parameter_points(inst: ProblemInstance, seed: int):
    """The parameter points drawn from ``random.Random(seed)``, without
    end, each with the values of the integer forms there."""
    rng = random.Random(seed)
    while True:
        point = sample_parameter_point(inst.ring, rng)
        yield point, [_eval_terms(fj.terms, point) for fj in inst.integer_forms]


# --------------------------------------------------------------------------
# determinants of linear-form matrices, by interpolation

@cache
def _simplex(nvars, top):
    """The grid of :func:`_interpolate_simplex` for ``nvars`` target
    variables at degree ``top``, built once per pair: ``(exps, lines,
    factorials, stirling)``.

    ``exps`` lists the monomials of degree ``top`` in the order of
    :func:`_walk`, increasing in ``(e_n, .., e_1)``; ``lines`` holds the
    positions in ``exps`` of each line along ``T_1``, then ``T_2``, .., with
    more than one point, in increasing ``e_t``; ``factorials[k]`` is ``k!``;
    and
    ``stirling[j]`` holds the signed Stirling numbers of the first kind
    ``s(k, j)`` for ``k = j, .., top``, where ``x (x-1) ... (x-k+1) =
    sum_j s(k, j) x^j``.  Every caller shares the result and only reads it.
    """
    exps = sorted(((top + 1 - sum(p),) + p[1:] for p in _grid(nvars, top)), key=lambda e: e[:0:-1])
    at = {e: i for i, e in enumerate(exps)}
    lines = [
        [at[(e[0] - k,) + e[1:t] + (k,) + e[t + 1:]] for k in range(e[0] + 1)]
        for t in range(1, nvars) for e in exps if e[0] and not e[t]
    ]
    s = [[1]]
    for k in range(top):
        s.append([a - k * b for a, b in zip([0] + s[k], s[k] + [0])])
    stirling = [[row[j] for row in s[j:]] for j in range(top + 1)]
    return exps, lines, [factorial(k) for k in range(top + 1)], stirling


def _walk(rows, pencil, t, room):
    """The determinants of ``rows + sum_(u <= t) a_u pencil[u]`` over all
    ``a`` with ``|a| <= room``, increasing in ``(a_t, .., a_1)``: nested
    loops with ``a_1`` innermost, which from ``rows = pencil[0]`` and ``t =
    n`` is the order of :func:`_simplex` at degree ``room``.  Each matrix
    is an earlier one plus one slice, built before :func:`_bareiss`
    eliminates that earlier one in place; ``rows`` is consumed."""
    if not t:
        yield _det(rows, len(rows))
        return
    for left in range(room, -1, -1):
        step = [list(map(add, row, s)) for row, s in zip(rows, pencil[t])] if left else None
        yield from _walk(rows, pencil, t - 1, left)
        rows = step


def _interpolate_simplex(values, nvars, top):
    """Integer coefficients ``{e: c}`` of the form of degree ``top`` in
    ``nvars`` target variables, with integer coefficients, that takes
    ``values[i]`` at the ``i``-th monomial ``e`` of degree ``top`` in the
    walk order of :func:`_simplex`, each monomial evaluated at its own
    exponents with ``T_0 = 1``.  ``values`` is overwritten.

    That grid is the simplex ``|a| <= top`` of ``(T_1..T_n)``, which is
    unisolvent for polynomials of total degree ``<= top``: one that vanishes
    there is zero (restrict to ``a_1 = 0``, divide by ``x_1``, shift ``a_1``
    down by one, and induct).  A product of unisolvent sets is unisolvent
    for the tensor product, so the monomials of a multidegree ``d``, each
    evaluated at its own exponents with the first variable of every block
    set to 1, fix every form of multidegree ``d``.  Every exact grid of
    this module rests on this fact.

    Forward differences along the lines that trade ``T_0`` for one ``T_t``
    give the Newton coefficients ``Delta^b p(0)``, each divisible by ``b!``;
    dividing and expanding each ``binom(x, k) = x (x-1) ... (x-k+1) / k!``
    by Stirling numbers of the first kind gives the monomial coefficients.
    Every step is an integer pass along the lines of one variable, so it
    never leaves the grid.  The lines, factorials and Stirling numbers are
    those of :func:`_simplex`, built once per ``(nvars, top)``.
    """
    exps, lines, factorials, stirling = _simplex(nvars, top)
    for line in lines:
        v = [values[i] for i in line]
        for t in range(1, len(v)):
            for k in range(len(v) - 1, t - 1, -1):
                v[k] -= v[k - 1]
        for k, i in enumerate(line):
            values[i] = v[k] // factorials[k]
    for line in lines:
        v = [values[i] for i in line]
        for j, i in enumerate(line):
            values[i] = sum(map(mul, stirling[j], v[j:]))
    return {e: c for e, c in zip(exps, values) if c}


def _det(work, size):
    """The determinant of the square integer matrix ``work``, which
    :func:`_bareiss` eliminates in place."""
    pivots, sign = _bareiss(work, size)
    return sign * work[-1][-1] if len(pivots) == size else 0


def _det_on_columns(m: LinearFormMatrix, cols, rows) -> MultiPoly:
    """Exact signed determinant of the square submatrix of ``den * m`` on
    the columns ``cols`` and the rows ``rows``, as a target-ring polynomial
    with integer coefficients: ``den^N`` times the minor of ``m``, a scale
    that :func:`normalize_poly` removes.

    With ``m = sum_t T_t M_t / den``, column ``c`` of the submatrix is
    ``sum_t T_t M_t[rows, c]``, so it is fixed by the integer vector ``s_c``
    of the slices' entries on ``rows``, stacked form-major.  A Q-basis
    ``B = S X`` of the span of those vectors gives the pencil ``A_S(T) X``,
    whose determinant is ``det(A_S) det(X)``.  The basis is the LLL-reduced
    one of the saturated lattice :func:`~mgimplicit.linalg.saturated_basis`,
    whose entries are far smaller than the canonical cycle vectors', and
    ``det(X) = det(B_I) / det(S_I)`` on its coordinates ``I``.  Dependent
    vectors are a constant relation among the columns, and then the minor
    is zero without any evaluation.

    The determinant of the reduced pencil is zero or a form of degree ``N
    = len(rows)``, so it is fixed by its values on the ``C(N+n, n)``
    monomials of degree ``N`` (see :func:`_interpolate_simplex`); each is
    the integer determinant of the pencil there.  :func:`_walk` visits
    them so that each point's rows are an earlier point's plus one slice,
    built before :func:`_bareiss` eliminates the earlier rows in place:
    one ``N x N`` addition and one elimination per point, with no
    evaluation from all the slices.  Each coefficient is then multiplied
    by ``det(S_I) / det(B_I)``, exactly, and the result is checked against
    the integer determinant of the original submatrix at a fixed point off
    the grid (the one :meth:`~mgimplicit.linalg.Slices.evaluate` of the
    minor), which checks the walk, the interpolation and the change of
    basis together.
    """
    cols, rows = list(cols), list(rows)
    size = len(rows)
    if len(cols) != size:
        raise ValueError(f"{len(cols)} columns do not make a square {size}-row submatrix")
    ring = target_ring(m.target_names)
    if size == 0:
        return MultiPoly.constant(ring, 1)
    stacked = [[s[r][c] for s in m.slices for r in rows] for c in cols]
    found = saturated_basis(stacked)
    if found is None:
        return MultiPoly.zero(ring)
    basis, coords = found
    pencil = [[[b[t * size + r] for b in basis] for r in range(size)] for t in range(ring.nvars)]
    values = list(_walk(pencil[0], pencil, ring.nvars - 1, size))
    det_s = _det([[v[c] for v in stacked] for c in coords], size)
    det_b = _det([[b[c] for b in basis] for c in coords], size)
    terms = {}
    for e, c in _interpolate_simplex(values, ring.nvars, size).items():
        c, rem = divmod(c * det_s, det_b)
        if rem:
            raise ArithmeticError("the change of basis left a fraction in the determinant")
        terms[e] = c
    check = [2] + [2 * (size + t) + 1 for t in range(1, ring.nvars)]
    sub = Slices([[[s[r][c] for c in cols] for r in rows] for s in m.slices], size, size)
    if _eval_terms(terms, check) != _det(sub.evaluate(check), size):
        raise ArithmeticError("interpolated determinant disagrees with a direct evaluation")
    return MultiPoly(ring, terms)


def strand_determinant(diffs) -> MultiPoly:
    """Normalized determinant of the strand complex whose differentials
    ``d_1, d_2, ..`` are ``diffs`` (any iterable; it is read only as far as
    needed), by Cayley's formula.

    ``J_1`` are the pivot columns of ``d_1``; the columns of ``d_q`` outside
    ``J_q`` become the rows ``K_q`` of ``d_(q+1)``, whose pivot columns on
    those rows are ``J_(q+1)``, until no rows are left.  Then ``det =
    prod_q det(d_q[K_(q-1), J_q])^((-1)^(q+1))`` (Gelfand, Kapranov &
    Zelevinsky, *Discriminants, Resultants and Multidimensional
    Determinants*, Appendix A).  The pivots of ``d_q`` are taken at the
    first point of :func:`_grid` of degree ``|K_(q-1)|`` where
    :func:`_bareiss` finds ``|K_(q-1)|`` of them, one elimination per point.
    Every chosen minor is nonzero at its point, so none vanishes
    identically, and the determinant of an exact complex does not depend on
    the choice up to sign, so the normalized result is a function of the
    input alone.  :func:`_det_on_columns` interpolates each minor on an
    LLL-reduced basis of the saturated lattice of its columns and scales it
    back exactly, to the minor of ``den * d_q``: an integer scale that the
    normalization removes.  The chain stops at the
    first empty row set, so for a square ``d_1`` of full rank no later
    differential is built and the result is the one minor ``det(d_1)``.
    The later terms are zero when the strand is acyclic, as it is outside
    the unreliable region: ``d_(q+1)`` has rank 0, and a map with linear
    entries is never onto a nonzero free module (graded Nakayama), so
    exactness at the next term makes it zero too.  Only a chain that
    reaches ``d_2`` has even minors, and only then is the product of the
    odd ones divided, exactly, by the product of the even ones: both are
    made primitive first, so by Gauss's lemma the quotient is the
    primitive part of the determinant, up to sign, and every step of the
    division stays in Z.

    Raises :class:`PipelineError` when no grid point gives a differential
    full rank on its rows, or rows remain after the last differential: the
    strand complex is not exact.  The message reports the most pivots found,
    which is the generic rank (see :func:`generic_rank`); a shortfall in
    ``d_1 = M_nu`` means that no maximal minor of ``M_nu`` can carry the
    implicit equation.  The first grid point usually decides; a shortfall
    costs one elimination at each of the ``C(k + n, n)`` points of degree
    ``k = |K_(q-1)|``.
    """
    return _strand_determinant(diffs)[0]


def _strand_determinant(diffs):
    """:func:`strand_determinant` and the even minors it divided by, which
    :func:`_certify` reads: ``delta * prod(even) = c * prod(odd)`` exactly,
    for a rational constant ``c != 0``."""
    minors = []
    degree = 0
    rows = None
    for q, d in enumerate(diffs, 1):
        if rows is None:
            rows = range(d.rows)
        most = 0
        for point in _grid(len(d.target_names), len(rows)):
            spec = d.evaluate(point)
            pivots, _ = _bareiss([spec[i] for i in rows], d.cols)
            if len(pivots) == len(rows):
                break
            most = max(most, len(pivots))
        else:
            if q == 1:
                short = (
                    f"matrix has generic rank {most} < {len(rows)} rows; "
                    "no maximal minor can carry the implicit equation, re-check nu"
                )
            else:
                short = (
                    f"differential {q} has generic rank {most} < {len(rows)} "
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
    even = minors[1::2]
    delta = prod(minors[0::2], start=one)
    if even:
        # the quotient of the primitive parts is +-delta's primitive part
        # (Gauss's lemma), so it stays in Z
        delta = exact_div(normalize_poly(delta), normalize_poly(prod(even, start=one)))
    delta = normalize_poly(delta)
    if delta.total_degree() != degree:
        raise ArithmeticError(f"strand determinant has degree {delta.total_degree()}, not {degree}")
    return delta, even


def _vanishes_on_grid(terms, k, inst) -> bool:
    """Whether the degree-``k`` form ``terms``, with integer coefficients,
    vanishes at the integer forms of ``inst``.  ``delta_k(f)`` has
    multidegree ``k*gamma``,
    so it is zero when it vanishes at every monomial of that strand, each
    evaluated at its own exponents with the first variable of every block
    set to 1 (see :func:`_interpolate_simplex`).  Stops at the first
    nonzero value."""
    # each term as its coefficient and its (variable, exponent) factors
    terms = [(c, [(j, e) for j, e in enumerate(exps) if e]) for exps, c in terms.items()]
    firsts = {start for start, _ in inst.ring.block_slices}
    for mon in strand_basis(inst.blocks, tuple(k * g for g in inst.gamma)):
        point = [1 if v in firsts else x for v, x in enumerate(mon)]
        # powers[j][e] = f_j(point)^e
        ys = [_eval_terms(f.terms, point) for f in inst.integer_forms]
        powers = [list(accumulate(repeat(y, k), mul, initial=1)) for y in ys]
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
    :func:`_interpolate_simplex`) in its integer-primitive form
    (:func:`normalize_poly`), which has the same zeros.  The images are
    the integer forms ``L * f`` (:attr:`ProblemInstance.integer_forms`):
    ``delta_k(L f) = L^k delta_k(f)``.

    This is the certificate of ``implicit verify``, for a candidate with no
    strand matrix behind it; the pipeline proves its own ``delta`` from
    ``M_nu`` (:func:`_certify`).
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
    return all(
        _vanishes_on_grid(normalize_poly(MultiPoly(delta.ring, components[k])).terms, k, inst)
        for k in sorted(components)
    )


def evaluation_points(inst: ProblemInstance, nu) -> dict:
    """Integer evaluations at strand degree ``nu``, known from ``D =
    strand_dim(nu)`` before any elimination.  Both grids are monomial bases
    of strands (see :func:`_interpolate_simplex`): ``determinant`` is the
    degree-``D`` strand of the target ring, which the pipeline walks for
    each maximal minor (:func:`_walk`: one slice-addition and one integer
    elimination per point, plus three per minor for ``det(S_I)``,
    ``det(B_I)`` and the check off the grid), and ``verification`` is at
    most the strand ``D*gamma`` of the parameter ring, on which ``implicit
    verify`` (:func:`verify_implicit`) tests an equation of degree ``<=
    D``."""
    size = strand_dim(inst.blocks, nu)
    return {
        "determinant": strand_dim(inst.target.blocks, (size,)),
        "verification": strand_dim(inst.blocks, tuple(size * g for g in inst.gamma)),
    }


def expected_degree_p1p1(inst: ProblemInstance, nu) -> int:
    """Predicted strand-determinant degree for four bidegree-(a, b) forms on
    P^1 x P^1 at ``nu = (2a-1, b-1)`` or ``(a-1, 2b-1)``:
    ``2ab - dim of the 2nd Koszul homology strand at (4a-1, 3b-1)``."""
    return _expected_degree_p1p1(inst, nu, None)


def _expected_degree_p1p1(inst: ProblemInstance, nu, cx) -> int:
    """:func:`expected_degree_p1p1` in the run whose
    :class:`StrandComplex` at ``nu`` is ``cx`` (or ``None``): at ``nu =
    (2a-1, b-1)`` the homology degree is ``nu + 2*gamma``, so its ``K_2``
    and that strand's kernel dimension are read from ``cx``, not built
    again."""
    if inst.blocks.r != (1, 1):
        raise ValueError("degree formula applies to blocks (1, 1) only")
    if len(inst.f) != 4:
        raise ValueError("degree formula applies to 4 polynomials")
    a, b = inst.gamma
    nu = tuple(nu)
    if nu not in {(2 * a - 1, b - 1), (a - 1, 2 * b - 1)}:
        raise ValueError(f"nu {nu} is not one of the formula corners for gamma {(a, b)}")
    return 2 * a * b - _homology_dim(inst, 2, (4 * a - 1, 3 * b - 1), cx)


# --------------------------------------------------------------------------
# the structural certificate

def _columns_are_syzygies(m: LinearFormMatrix, koszul) -> bool:
    """Whether every column ``(g_0..g_n)`` of ``m = M_nu`` is a syzygy of the
    integer forms, ``sum_j g_j f_j = 0`` exactly: ``koszul``, the Koszul
    strand ``K_1`` at ``nu + gamma``, sends it to zero.  There ``g_j =
    sum_u M_j[u][c] x^u`` over the monomials ``u`` of multidegree ``nu``
    that index the rows, so column ``c`` of the slices ``M_0, .., M_n``
    stacked is the column in Koszul's ``(j, u)`` coordinates, form-major."""
    stacked = list(chain.from_iterable(m.slices))
    if koszul.cols != len(stacked):
        return False
    return all(_annihilated(koszul.data, g) for g in zip(*stacked))


def _certify(m: LinearFormMatrix, cx: StrandComplex, delta: MultiPoly, even, seed: int) -> bool:
    """Exact proof that ``delta(f) = 0``, read off how ``m = M_nu`` is built.

    When every column of ``m`` is a syzygy (:func:`_columns_are_syzygies`
    against ``cx.koszul(1)``, the Koszul strand whose kernel ``M_nu`` is
    built from), the row of strand monomials ``(x^u)_u``, nonzero over
    ``Q(x)``, is a left kernel vector of ``m(f(x))``; so every minor on all
    the rows of ``m`` vanishes at ``f``, the first minor of Cayley's
    formula among them.  As ``delta * prod(even)`` is ``prod(odd)`` times
    a nonzero constant (:func:`strand_determinant`), ``delta(f) = 0``
    follows once ``prod(even)(f)`` is a nonzero polynomial, which one
    nonzero value at ``f(p0)`` proves; a square strand has no even minors.
    ``p0`` is the first point of :func:`_parameter_points` off the base
    locus, which is also the first point :func:`rank_drop_check` keeps,
    and ``delta`` must vanish at ``f(p0)`` as well, a check of ``delta``
    against the minors it came from.  A failed check returns ``False``;
    only an even minor that vanishes at ``f(p0)`` leaves the decision to
    the grid of :func:`verify_implicit`.
    """
    if not _columns_are_syzygies(m, cx.koszul(1)):
        return False
    values = next(values for _, values in _parameter_points(cx.inst, seed) if any(values))
    if _eval_terms(delta.terms, values):
        return False
    if all(_eval_terms(minor.terms, values) for minor in even):
        return True
    return verify_implicit(delta, cx.inst)


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
    square ``M_nu`` of full rank it is ``det(M_nu)``.  Its exact
    elimination at a grid point both proves that ``M_nu`` has full row rank
    and chooses the minors; the reported ``generic_rank`` is that row count.
    ``seed`` drives only the rank-drop points, the first of which off the
    base locus is the certificate's point, so ``delta`` does not depend on
    it.  ``verified`` is the structural certificate of :func:`_certify`.
    Raises :class:`PipelineError` when the matrix shape/rank rules
    out extraction or the strand complex is not exact at ``nu``; an
    inconclusive rank-drop check only warns (verification is the gate).
    """
    _check_points(points)
    warnings_list = []
    if nu is None:
        nu = suggest_nu(inst.blocks, inst.gamma)
        warnings_list.append(f"auto-selected nu {tuple(nu)}")
    nu = tuple(nu)
    warnings_list.extend(check_strand_degree(inst.blocks, inst.gamma, nu))
    cx = StrandComplex(inst, nu)
    m = cx.differential(1)
    if m.rows == 0 or m.cols == 0:
        raise PipelineError(f"empty strand at nu {nu}: matrix is {m.rows}x{m.cols}")
    try:
        delta, even = _strand_determinant(map(cx.differential, range(1, inst.n + 1)))
    except PipelineError as exc:
        raise PipelineError(f"at nu {nu}: {exc}") from exc
    # the determinant found m.rows pivots of M_nu at a grid point, so
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
        expected = _expected_degree_p1p1(inst, nu, cx)
    except ValueError:
        pass
    if expected is not None and delta.total_degree() != expected:
        warnings_list.append(
            f"determinant degree {delta.total_degree()} differs from the predicted {expected}"
        )
    verified = _certify(m, cx, delta, even, seed)
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
