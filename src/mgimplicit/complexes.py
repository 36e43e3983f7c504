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

Every differential is a :class:`LinearFormMatrix`, stored as its integer
slices: ``M = sum_t T_t M_t / den``, with ``M_t`` the coefficients of
``T_t``.  The contraction by ``e_j`` writes the slice ``M_j`` directly.
The matrix is its own :class:`~mgimplicit.linalg.Slices`: a
specialization at an integer point is lazy, and its rank is read off the
slices packed modulo the certificate primes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, repeat
from math import comb, lcm

from .linalg import QMatrix, Slices, _Specialized, nullspace_basis, rank
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
    zero rows or columns.  Raises ``ValueError`` unless ``d`` has one
    component per block.
    """
    n1 = len(inst.f)
    if not 1 <= q <= n1:
        raise ValueError(f"q must be between 1 and {n1}")
    if len(d) != inst.blocks.s:
        raise ValueError(f"degree {tuple(d)} needs {inst.blocks.s} components, got {len(d)}")
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
class LinearFormMatrix(Slices):
    """Matrix ``M = sum_t T_t M_t / den`` whose entries are degree-1
    polynomials in the target variables.

    ``slices[t]`` is the integer ``rows x cols`` matrix ``M_t`` of the
    coefficients of ``T_t``, over the common denominator ``den``: one slice
    per target variable.  A slice of another shape raises ``ValueError``,
    a coefficient that is not an ``int`` raises ``TypeError``.  The matrix
    is its own :class:`~mgimplicit.linalg.Slices`: it evaluates every
    specialization and holds the packed images of its slices, which the
    ranks of :meth:`specialize`'s matrices build once and keep here.
    Change no slice after the first such rank.
    """

    rows: int
    cols: int
    target_names: tuple[str, ...]
    slices: list
    den: int
    row_labels: list = None

    def __post_init__(self):
        if not isinstance(self.den, int) or self.den < 1:
            raise TypeError(f"den must be an int >= 1, not {self.den!r}")
        if len(self.slices) != len(self.target_names) or any(len(s) != self.rows for s in self.slices):
            raise ValueError(f"need {len(self.target_names)} slices of {self.rows} rows")
        for t, s in enumerate(self.slices):
            try:
                QMatrix(s, cols=self.cols)
            except TypeError as exc:
                raise TypeError(f"coefficient {t} of {exc}") from None
        # the orientation of the packed images: short and long
        super().__init__(self.slices, self.rows, self.cols)

    def entry_poly(self, i, j, ring) -> MultiPoly:
        """Entry ``(i, j)`` as a polynomial of ``ring``, the target ring."""
        terms = {}
        for t, s in enumerate(self.slices):
            if s[i][j]:
                e = [0] * len(self.target_names)
                e[t] = 1
                terms[tuple(e)] = _whole(Fraction(s[i][j], self.den))
        return MultiPoly(ring, terms)

    def specialize(self, values) -> QMatrix:
        """``den * M`` at the integer values ``T_t = values[t]``: the
        integer matrix ``sum_t values[t] * M_t``, which has the rank of
        ``M`` there.  It is lazy: its entries are built (by
        :meth:`~mgimplicit.linalg.Slices.evaluate`) when its ``data`` is
        first read, and :func:`~mgimplicit.linalg.rank` reads its residues
        off the packed slices of this matrix instead.  A value that is not
        an ``int`` raises ``TypeError``, before any entry is built."""
        if len(values) != len(self.target_names):
            raise ValueError("one value per target variable required")
        if not all(map(isinstance, values, repeat(int))):
            t, v = next((t, v) for t, v in enumerate(values) if not isinstance(v, int))
            raise TypeError(f"value {t} is {v!r}, not an int")
        return _Specialized(self, tuple(values))

    def to_json_dict(self, extra=None) -> dict:
        ring = target_ring(self.target_names)
        return {
            "schema": "linear-form-matrix/1",
            "rows": self.rows,
            "cols": self.cols,
            "target_vars": list(self.target_names),
            "row_labels": self.row_labels,
            "col_labels": list(range(self.cols)),
            "entries": [
                [str(self.entry_poly(i, j, ring)) for j in range(self.cols)] for i in range(self.rows)
            ],
            **(extra or {}),
        }


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
    at q = 1, ``tgt`` is the identity basis.  The contraction by ``e_j``
    gives the slice ``M_j``: ``M = sum_j T_j M_j / src.den``.
    """
    n1 = len(inst.f)
    lm = len(src.monomials)
    support = [[(i, x) for i, x in enumerate(v) if x] for v in tgt.vectors]
    free = [nz[-1][0] for nz in support]
    faces = _faces(n1, src.q)
    slices = [[[0] * len(src) for _ in free] for _ in range(n1)]
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
        for m_j, w in zip(slices, images):
            for row, ft in zip(m_j, free):
                row[c] = w[ft]
    # only M_nu (q = 1) is ever printed; its rows are the monomials of nu
    row_labels = [monomial_str(inst.ring, m) for m in tgt.monomials] if tgt.q == 0 else None
    return LinearFormMatrix(
        rows=len(free),
        cols=len(src),
        target_names=inst.target.names,
        slices=slices,
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
