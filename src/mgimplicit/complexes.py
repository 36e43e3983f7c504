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
One :class:`StrandComplex` holds that strand: the Koszul strands ``K_q``
at ``nu + q*gamma``, their kernels ``Z_q`` and the differentials ``d_q``
between them, each built once, when it is first read.

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
from operator import add

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
    # the target row of x^u * x^w for each source monomial u, once per
    # exponent w that occurs in the forms
    shifted = {
        w: [tgt_mon_pos[tuple(map(add, u, w))] for u in src_mons]
        for w in {w for f in inst.integer_forms for w in f.terms}
    }
    data = [[0] * cols for _ in range(rows)]
    for si, j, ti, sign in _faces(n1, q):
        col, row = si * lm, ti * lt
        # the faces of one column have distinct ti: each entry is written once
        for w, c in inst.integer_forms[j].terms.items():
            c *= sign
            for ui, t in enumerate(shifted[w], col):
                data[row + t][ui] = c
    return QMatrix(data, cols=cols)


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
    # the exponents of the row monomials, for ``M_nu``, whose rows are the
    # monomials of multidegree ``nu``
    row_monomials: list = None

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


class StrandComplex:
    """The degree-``nu`` strand ``(Z.)_nu`` of the cycle complex of ``inst``.

    Each piece is built when it is first read and then kept, so one
    complex builds every Koszul strand, kernel and differential once.  A
    degree with the wrong number of components raises ``ValueError``.
    """

    def __init__(self, inst: ProblemInstance, nu):
        self.inst = inst
        self.nu = tuple(nu)
        # the monomials of nu, the rows of M_nu
        self.monomials = strand_basis(inst.blocks, self.nu)
        self._built = {}

    def _kept(self, build, q):
        key = (build.__name__, q)
        if key not in self._built:
            self._built[key] = build(q)
        return self._built[key]

    def koszul(self, q) -> QMatrix:
        """The Koszul strand ``K_q`` at ``nu + q*gamma``
        (:func:`koszul_differential_strand`)."""
        return self._kept(self._koszul, q)

    def cycles(self, q):
        """The canonical basis of ``Z_q``, the kernel of :meth:`koszul`,
        as ``(den, vectors)`` (:func:`~mgimplicit.linalg.nullspace_basis`):
        integer coordinates over (subset, monomial) pairs, subset-major.  At
        ``q = 0`` it is the identity basis of :attr:`monomials`."""
        return self._kept(self._cycles, q)

    def differential(self, q) -> LinearFormMatrix:
        """The T-linear differential ``d_q: Z_q -> Z_(q-1)``, for ``1 <= q
        <= n``; ``differential(1)`` is the representation matrix ``M_nu``."""
        return self._kept(self._differential, q)

    def _koszul(self, q):
        return koszul_differential_strand(self.inst, q, _vadd(self.nu, _vscale(q, self.inst.gamma)))

    def _cycles(self, q):
        if q == 0:
            size = len(self.monomials)
            return 1, [[int(i == j) for j in range(size)] for i in range(size)]
        return nullspace_basis(self.koszul(q))

    def _differential(self, q) -> LinearFormMatrix:
        """The map sending a q-cycle to ``sum_j T_j * (contraction by e_j)``,
        written in the canonical (q-1)-cycle basis.

        Each contraction image is read at the free columns of that basis
        (the last nonzero entry of each basis vector) and checked by exact
        re-expansion, or :class:`StrandAssemblyError` is raised; at q = 1
        the basis is the identity.  The contraction by ``e_j`` gives the
        slice ``M_j``: ``M = sum_j T_j M_j / den``, ``den`` that of ``Z_q``.
        """
        inst = self.inst
        n1 = len(inst.f)
        lm = len(self.monomials)
        den, vectors = self.cycles(q)
        tgt_den, tgt_vectors = self.cycles(q - 1)
        support = [[(i, x) for i, x in enumerate(v) if x] for v in tgt_vectors]
        free = [nz[-1][0] for nz in support]
        faces = _faces(n1, q)
        slices = [[[0] * len(vectors) for _ in free] for _ in range(n1)]
        for c, v in enumerate(vectors):
            images = [[0] * (comb(n1, q - 1) * lm) for _ in range(n1)]
            for si, j, ti, sign in faces:
                # (j, ti) determines si, so each image entry is written once
                w = images[j]
                for ui in range(lm):
                    x = v[si * lm + ui]
                    if x:
                        w[ti * lm + ui] = x if sign > 0 else -x
            for w in images:
                if not _is_expansion(w, support, tgt_den):
                    raise StrandAssemblyError(
                        f"contraction image not in the span of the {q - 1}-cycle "
                        f"basis at degree {self.nu}"
                    )
            for m_j, w in zip(slices, images):
                for row, ft in zip(m_j, free):
                    row[c] = w[ft]
        # only M_nu (q = 1) is ever printed; its rows are the monomials of nu
        return LinearFormMatrix(
            rows=len(free),
            cols=len(vectors),
            target_names=inst.target.names,
            slices=slices,
            den=den,
            row_labels=[monomial_str(inst.ring, m) for m in self.monomials] if q == 1 else None,
            row_monomials=self.monomials if q == 1 else None,
        )


def representation_matrix(inst: ProblemInstance, nu, warn_region=True) -> LinearFormMatrix:
    """The first strand differential ``M_nu``, ``StrandComplex(inst,
    nu).differential(1)``.

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
    return StrandComplex(inst, nu).differential(1)


def homology_dim(inst: ProblemInstance, q: int, d) -> int:
    """Dimension of the degree-``d`` strand of the q-th Koszul homology:
    ``dim ker(d_q)_d - rank(d_{q+1})_d`` with the convention ``d_0 = 0``."""
    return _homology_dim(inst, q, d, None)


def _homology_dim(inst: ProblemInstance, q: int, d, cx) -> int:
    """:func:`homology_dim`; when ``d`` is the degree ``nu + q*gamma`` of
    the strand ``K_q`` of the :class:`StrandComplex` ``cx`` (or ``None``),
    ``K_q`` is read from ``cx``."""
    if q < 0:
        raise ValueError("q must be non-negative")
    n1 = len(inst.f)
    d = tuple(d)
    if q > n1:
        return 0
    if q == 0:
        kernel_dim = strand_dim(inst.blocks, d)
    else:
        if cx is not None and d == _vadd(cx.nu, _vscale(q, inst.gamma)):
            mq = cx.koszul(q)
        else:
            mq = koszul_differential_strand(inst, q, d)
        kernel_dim = mq.cols - rank(mq)
    boundary_rank = 0
    if q + 1 <= n1:
        boundary_rank = rank(koszul_differential_strand(inst, q + 1, d))
    return kernel_dim - boundary_rank
