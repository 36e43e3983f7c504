"""Koszul strands and the cycle-complex strand matrices.

Given n+1 multihomogeneous polynomials ``f_0..f_n`` of one multidegree
``gamma``, the Koszul complex carries the grading ``K_q = wedge^q R[-q*gamma]^{n+1}``,
so the degree-``d`` strand of ``K_q`` has basis indexed by (size-q subset S
of {0..n}, monomial of multidegree ``d - q*gamma``), subset-major.

One contraction serves both complexes: ``e_S -> sum_j (-1)^pos(j, S) x_j
e_{S minus j}``, with ``pos`` the zero-based position of j in increasing S.
With ``x_j = f_j`` it is the Koszul differential whose kernels are the
cycles; with ``x_j = T_j`` it gives the T-linear differentials of the
cycle-complex strand in degree ``nu``, whose spaces are ``(Z_q) at nu +
q*gamma``.  The first of these differentials is the representation matrix
``M_nu``: rows indexed by the monomials of degree ``nu``, columns by the
degree-``nu`` syzygies of f, entries ``sum_j coeff(g_j, x^u) * T_j``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, lcm
from operator import mul

from .linalg import QMatrix, nullspace_basis, rank
from .multipoly import (
    MultiPoly,
    NotMultihomogeneousError,
    PolyRing,
    _whole,
    monomial_str,
    multidegree_of,
    target_ring,
)
from .regions import BlockStructure, check_strand_degree, strand_basis, strand_dim


class InRegionWarning(UserWarning):
    """The requested strand degree lies in the unreliable region."""


class StrandAssemblyError(RuntimeError):
    """A cycle-basis expansion that is guaranteed by theory failed: internal
    invariant broken."""


@dataclass(frozen=True)
class ProblemInstance:
    """The data of one implicitization problem.

    ``f`` are nonzero multihomogeneous polynomials of the common multidegree
    ``gamma`` in the parameter ring ``ring``; ``target`` is the ring of the
    image coordinates, one variable per polynomial.
    """

    ring: PolyRing
    f: tuple[MultiPoly, ...]
    gamma: tuple[int, ...]
    target: PolyRing

    @classmethod
    def from_polys(cls, polys, target_names=None):
        """Build the instance; the one multidegree check (errors name ``polynomial #k``)."""
        polys = tuple(polys)
        if len(polys) < 2:
            raise ValueError("need at least two polynomials")
        ring = polys[0].ring
        degs = []
        for k, p in enumerate(polys):
            if p.ring != ring:
                raise ValueError("polynomials live in different rings")
            try:
                degs.append(multidegree_of(p))
            except NotMultihomogeneousError as exc:
                raise NotMultihomogeneousError(f"polynomial #{k}: {exc}") from exc
        if len(set(degs)) != 1:
            listing = ", ".join(f"#{k}: {d}" for k, d in enumerate(degs))
            raise ValueError(f"polynomials do not share one multidegree ({listing})")
        tgt = target_ring(target_names if target_names is not None else len(polys))
        if tgt.nvars != len(polys):
            raise ValueError("need exactly one target variable per polynomial")
        return cls(ring, polys, degs[0], tgt)

    @property
    def blocks(self) -> BlockStructure:
        return self.ring.blocks

    @property
    def n(self):
        """The target-space dimension index: f has n+1 entries."""
        return len(self.f) - 1

    @cached_property
    def integer_forms(self) -> tuple[MultiPoly, ...]:
        """The forms ``L * f_j``, with ``L`` the lcm of all denominators in f,
        which the strands and checks read: one common factor changes no
        kernel, no rank and no vanishing."""
        mult = lcm(*(c.denominator for f in self.f for c in f.terms.values()))
        return tuple(
            MultiPoly(self.ring, {e: c.numerator * (mult // c.denominator) for e, c in f.terms.items()})
            for f in self.f
        )


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vscale(k, a):
    return tuple(k * x for x in a)


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _faces(n1, q):
    """Every deletion of one index j from a size-q subset S of {0..n1-1}, as
    ``(index of S, j, index of S minus j, (-1)^pos(j, S))``; subsets are
    numbered in ``combinations`` order."""
    tgt_pos = {T: i for i, T in enumerate(combinations(range(n1), q - 1))}
    return [
        (si, j, tgt_pos[S[:pos] + S[pos + 1 :]], -1 if pos % 2 else 1)
        for si, S in enumerate(combinations(range(n1), q))
        for pos, j in enumerate(S)
    ]


def koszul_differential_strand(inst: ProblemInstance, q: int, d) -> QMatrix:
    """Matrix of the q-th Koszul differential on the degree-``d`` strand,
    on :attr:`ProblemInstance.integer_forms` (the same kernel and rank).

    Maps the (S, u)-indexed strand of ``K_q`` to the (T, w)-indexed strand
    of ``K_{q-1}``; an empty strand on either side yields a matrix with
    zero rows or columns.
    """
    n1 = len(inst.f)
    if not 1 <= q <= n1:
        raise ValueError(f"q must be between 1 and {n1}")
    gamma = inst.gamma
    src_mons = strand_basis(inst.blocks, _vsub(d, _vscale(q, gamma)))
    tgt_mons = strand_basis(inst.blocks, _vsub(d, _vscale(q - 1, gamma)))
    tgt_mon_pos = {m: i for i, m in enumerate(tgt_mons)}
    lm, lt = len(src_mons), len(tgt_mons)
    rows = comb(n1, q - 1) * lt
    cols = comb(n1, q) * lm
    data = [[0] * cols for _ in range(rows)]
    for si, j, ti, sign in _faces(n1, q):
        for ui, u in enumerate(src_mons):
            col = si * lm + ui
            # the faces of one column have distinct ti: each entry is written once
            for w_f, c in inst.integer_forms[j].terms.items():
                data[ti * lt + tgt_mon_pos[_vadd(u, w_f)]][col] = sign * c
    return QMatrix(data, cols=cols)


@dataclass
class CycleBasis:
    """Deterministic basis of the Koszul q-cycles in internal degree nu + q*gamma.

    The basis is ``vectors / den``, integer kernel coordinates over (subset,
    monomial) pairs, subset-major, and their least common denominator.
    """

    q: int
    nu: tuple[int, ...]
    subsets: list
    monomials: list
    vectors: list
    den: int

    def __len__(self):
        return len(self.vectors)


def cycle_basis(inst: ProblemInstance, q: int, nu) -> CycleBasis:
    """Basis of the q-cycles graded piece feeding the degree-``nu`` strand
    of the cycle complex; q = 0 returns the monomial (identity) basis."""
    nu = tuple(nu)
    if q < 0:
        raise ValueError("q must be non-negative")
    mons = strand_basis(inst.blocks, nu)
    if q == 0:
        vectors = [[int(i == j) for j in range(len(mons))] for i in range(len(mons))]
        return CycleBasis(0, nu, [()], mons, vectors, 1)
    n1 = len(inst.f)
    if q > n1:
        return CycleBasis(q, nu, [], mons, [], 1)
    d = _vadd(nu, _vscale(q, inst.gamma))
    den, vectors = nullspace_basis(koszul_differential_strand(inst, q, d))
    return CycleBasis(q, nu, list(combinations(range(n1), q)), mons, vectors, den)


@dataclass
class LinearFormMatrix:
    """Matrix whose entries are degree-1 polynomials in the target variables.

    ``coeffs[i][j]`` is the integer coefficient vector of the entry over the
    common denominator ``den``: entry = ``sum_t coeffs[i][j][t] * T_t / den``.
    """

    rows: int
    cols: int
    target_names: tuple[str, ...]
    coeffs: list
    den: int
    row_labels: list = None

    def __post_init__(self):
        if not isinstance(self.den, int) or self.den < 1:
            raise TypeError(f"den must be an int >= 1, not {self.den!r}")
        for i, row in enumerate(self.coeffs):
            for j, cell in enumerate(row):
                for t, c in enumerate(cell):
                    if not isinstance(c, int):
                        raise TypeError(f"coefficient {t} of entry ({i}, {j}) is {c!r}, not an int")

    def entry_poly(self, i, j, ring) -> MultiPoly:
        """Entry ``(i, j)`` as a polynomial of ``ring``, the target ring."""
        terms = {}
        for t, c in enumerate(self.coeffs[i][j]):
            if c:
                e = [0] * len(self.target_names)
                e[t] = 1
                terms[tuple(e)] = _whole(Fraction(c, self.den))
        return MultiPoly(ring, terms)

    def specialize(self, values) -> QMatrix:
        """``den`` times the numeric matrix at integer ``T_t = values[t]`` (same rank)."""
        if len(values) != len(self.target_names):
            raise ValueError("one value per target variable required")
        data = [[sum(map(mul, cell, values)) for cell in row] for row in self.coeffs]
        return QMatrix(data, cols=self.cols)

    def to_json_dict(self, extra=None) -> dict:
        ring = target_ring(self.target_names)
        out = {
            "schema": "linear-form-matrix/1",
            "rows": self.rows,
            "cols": self.cols,
            "target_vars": list(self.target_names),
            "row_labels": self.row_labels,
            "col_labels": list(range(self.cols)),
            "entries": [
                [str(self.entry_poly(i, j, ring)) for j in range(self.cols)] for i in range(self.rows)
            ],
        }
        if extra:
            out.update(extra)
        return out


def strand_differentials(inst: ProblemInstance, nu):
    """The differentials ``d_1, d_2, .., d_n`` of the degree-``nu`` strand of
    the cycle complex, each built when it is first asked for: ``d_q`` sends
    a q-cycle to ``sum_j T_j * (contraction by e_j)``, written in the
    canonical (q-1)-cycle basis.  Every cycle basis is computed once, and a
    consumer that stops after ``d_q`` computes none beyond the q-cycles."""
    nu = tuple(nu)
    tgt = cycle_basis(inst, 0, nu)
    for q in range(1, inst.n + 1):
        src = cycle_basis(inst, q, nu)
        yield _cycle_differential(inst, src, tgt)
        tgt = src


def representation_matrix(inst: ProblemInstance, nu, warn_region=True) -> LinearFormMatrix:
    """The first strand differential ``M_nu``.

    Rows are indexed by the monomials of multidegree ``nu``, columns by the
    degree-``nu`` syzygies ``(g_0..g_n)`` of f; the (u, c) entry is
    ``sum_j coeff(g_j, x^u) * T_j``.  A degree inside the unreliable region
    is allowed but triggers :class:`InRegionWarning` when ``warn_region`` is
    true; a degree with the wrong number of components raises ``ValueError``.
    """
    nu = tuple(nu)
    notes = check_strand_degree(inst.blocks, inst.gamma, nu)
    if warn_region:
        for note in notes:
            warnings.warn(note, InRegionWarning, stacklevel=2)
    return next(strand_differentials(inst, nu))


def _is_expansion(w, support, den):
    """Whether ``sum_t w[f_t] * u_t == den * w``: the exact test that ``w`` lies
    in the span of a canonical kernel basis ``u_t / den``.  ``support[t]``
    lists the nonzero ``(index, entry)`` pairs of ``u_t``; the last is
    ``(f_t, den)`` at its free column ``f_t``, where the other ``u`` are 0."""
    acc = [0] * len(w)
    for nz in support:
        k = w[nz[-1][0]]
        if k:
            for i, x in nz:
                acc[i] += k * x
    return acc == [den * x for x in w]


def _cycle_differential(inst: ProblemInstance, src: CycleBasis, tgt: CycleBasis) -> LinearFormMatrix:
    """The T-linear map sending a q-cycle of ``src`` to ``sum_j T_j *
    (contraction by e_j)``, written in the canonical (q-1)-cycle basis ``tgt``.

    Each contraction image is read at the free columns of ``tgt`` (the last
    nonzero entry of each basis vector) and checked by exact re-expansion;
    at q = 1, ``tgt`` is the identity basis.  The matrix is over ``src.den``.
    """
    n1 = len(inst.f)
    lm = len(src.monomials)
    support = [[(i, x) for i, x in enumerate(v) if x] for v in tgt.vectors]
    free = [nz[-1][0] for nz in support]
    faces = _faces(n1, src.q)
    coeffs = [[None] * len(src) for _ in free]
    for c, v in enumerate(src.vectors):
        images = [[0] * (len(tgt.subsets) * lm) for _ in range(n1)]
        for si, j, ti, sign in faces:
            # (j, ti) determines si, so each image entry is written once
            w = images[j]
            for ui in range(lm):
                x = v[si * lm + ui]
                if x:
                    w[ti * lm + ui] = x if sign > 0 else -x
        for w in images:
            if not _is_expansion(w, support, tgt.den):
                raise StrandAssemblyError(
                    f"contraction image not in the span of the {tgt.q}-cycle "
                    f"basis at degree {src.nu}"
                )
        for t, ft in enumerate(free):
            coeffs[t][c] = [w[ft] for w in images]
    # only M_nu (q = 1) is ever printed; its rows are the monomials of nu
    row_labels = [monomial_str(inst.ring, m) for m in tgt.monomials] if tgt.q == 0 else None
    return LinearFormMatrix(
        rows=len(free),
        cols=len(src),
        target_names=inst.target.names,
        coeffs=coeffs,
        den=src.den,
        row_labels=row_labels,
    )


def homology_dim(inst: ProblemInstance, q: int, d) -> int:
    """Dimension of the degree-``d`` strand of the q-th Koszul homology:
    ``dim ker(d_q)_d - rank(d_{q+1})_d`` with the convention ``d_0 = 0``."""
    if q < 0:
        raise ValueError("q must be non-negative")
    n1 = len(inst.f)
    d = tuple(d)
    if q > n1:
        return 0
    if q == 0:
        kernel_dim = strand_dim(inst.blocks, d)
    else:
        mq = koszul_differential_strand(inst, q, d)
        kernel_dim = mq.cols - rank(mq)
    boundary_rank = 0
    if q + 1 <= n1:
        boundary_rank = rank(koszul_differential_strand(inst, q + 1, d))
    return kernel_dim - boundary_rank
