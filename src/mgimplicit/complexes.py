"""Koszul strands and the cycle-complex strand matrices.

Given n+1 multihomogeneous polynomials ``f_0..f_n`` of one multidegree
``gamma``, the Koszul complex carries the grading ``K_q = wedge^q R[-q*gamma]^{n+1}``,
so the degree-``d`` strand of ``K_q`` has basis indexed by (size-q subset S
of {0..n}, monomial of multidegree ``d - q*gamma``), subset-major.  The
differential uses the sign ``(-1)^pos(j, S)`` with ``pos`` the zero-based
position of j in increasing S.

Cycle strands are exact kernels of the strand differentials; the
cycle-complex strand in degree ``nu`` has spaces ``(Z_q) at nu + q*gamma``
and T-linear differentials obtained by contracting subset indices against
the target variables.  Its first differential is the representation matrix
``M_nu``: rows indexed by the monomials of degree ``nu``, columns by the
degree-``nu`` syzygies of f, entries ``sum_j coeff(g_j, x^u) * T_j``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from itertools import combinations

from .linalg import QMatrix, _whole, nullspace_basis, rank
from .multipoly import (
    MultiPoly,
    PolyRing,
    monomial_str,
    multidegree_of,
    target_ring,
)
from .regions import BlockStructure, region_RB, strand_basis, strand_dim


class InRegionWarning(UserWarning):
    """The requested strand degree lies in the unreliable region."""


class StrandAssemblyError(RuntimeError):
    """A cycle-basis expansion that is guaranteed by theory failed: internal
    invariant broken."""


@dataclass(frozen=True)
class ProblemInstance:
    """The data of one implicitization problem.

    ``f`` are nonzero multihomogeneous polynomials of the common multidegree
    ``gamma`` in the parameter ring; ``target`` is the ring of the image
    coordinates, one variable per polynomial.
    """

    ring: PolyRing
    blocks: BlockStructure
    f: tuple[MultiPoly, ...]
    gamma: tuple[int, ...]
    target: PolyRing

    @classmethod
    def from_polys(cls, polys, target_names=None):
        polys = tuple(polys)
        if len(polys) < 2:
            raise ValueError("need at least two polynomials")
        ring = polys[0].ring
        if ring.kind != "parameter":
            raise ValueError("polynomials must live in a parameter ring")
        degs = set()
        for p in polys:
            if p.ring != ring:
                raise ValueError("polynomials live in different rings")
            degs.add(multidegree_of(p))
        if len(degs) != 1:
            raise ValueError(f"polynomials do not share one multidegree: {sorted(degs)}")
        gamma = next(iter(degs))
        blocks = BlockStructure(tuple(size - 1 for size in ring.block_sizes))
        tgt = target_ring(target_names if target_names is not None else len(polys))
        if tgt.nvars != len(polys):
            raise ValueError("need exactly one target variable per polynomial")
        return cls(ring, blocks, polys, gamma, tgt)

    @property
    def n(self):
        """The target-space dimension index: f has n+1 entries."""
        return len(self.f) - 1


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vscale(k, a):
    return tuple(k * x for x in a)


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def koszul_differential_strand(inst: ProblemInstance, q: int, d) -> QMatrix:
    """Matrix of the q-th Koszul differential on the degree-``d`` strand.

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
    src_subsets = list(combinations(range(n1), q))
    tgt_subsets = list(combinations(range(n1), q - 1))
    tgt_subset_pos = {S: i for i, S in enumerate(tgt_subsets)}
    tgt_mon_pos = {m: i for i, m in enumerate(tgt_mons)}
    rows = len(tgt_subsets) * len(tgt_mons)
    cols = len(src_subsets) * len(src_mons)
    data = [[0] * cols for _ in range(rows)]
    lm = len(src_mons)
    for si, S in enumerate(src_subsets):
        for pos, j in enumerate(S):
            T = S[:pos] + S[pos + 1 :]
            sign = -1 if pos % 2 else 1
            base = tgt_subset_pos[T] * len(tgt_mons)
            for ui, u in enumerate(src_mons):
                col = si * lm + ui
                for w_f, c in inst.f[j].terms.items():
                    row = base + tgt_mon_pos[_vadd(u, w_f)]
                    data[row][col] = _whole(data[row][col] + sign * c)
    return QMatrix(data, cols=cols)


@dataclass
class CycleBasis:
    """Deterministic basis of the Koszul q-cycles in internal degree nu + q*gamma.

    ``vectors`` are raw kernel coordinates over (subset, monomial) pairs,
    subset-major; ``cycles`` materializes each vector as one polynomial of
    multidegree nu per subset.
    """

    q: int
    nu: tuple[int, ...]
    subsets: list
    monomials: list
    vectors: list
    ring: PolyRing

    _cycles: list = field(default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.vectors)

    @property
    def cycles(self):
        if self._cycles is None:
            lm = len(self.monomials)
            out = []
            for v in self.vectors:
                polys = []
                for si in range(len(self.subsets)):
                    terms = {}
                    for ui, m in enumerate(self.monomials):
                        c = v[si * lm + ui]
                        if c:
                            terms[m] = c
                    polys.append(MultiPoly(self.ring, terms))
                out.append(tuple(polys))
            self._cycles = out
        return self._cycles


def cycle_basis(inst: ProblemInstance, q: int, nu) -> CycleBasis:
    """Basis of the q-cycles graded piece feeding the degree-``nu`` strand
    of the cycle complex; q = 0 returns the monomial (identity) basis."""
    nu = tuple(nu)
    if q < 0:
        raise ValueError("q must be non-negative")
    mons = strand_basis(inst.blocks, nu)
    if q == 0:
        vectors = []
        for i in range(len(mons)):
            v = [0] * len(mons)
            v[i] = 1
            vectors.append(v)
        return CycleBasis(0, nu, [()], mons, vectors, inst.ring)
    n1 = len(inst.f)
    if q > n1:
        return CycleBasis(q, nu, [], mons, [], inst.ring)
    d = _vadd(nu, _vscale(q, inst.gamma))
    matrix = koszul_differential_strand(inst, q, d)
    vectors = nullspace_basis(matrix)
    return CycleBasis(q, nu, list(combinations(range(n1), q)), mons, vectors, inst.ring)


@dataclass
class LinearFormMatrix:
    """Matrix whose entries are degree-1 polynomials in the target variables.

    ``coeffs[i][j]`` is the coefficient vector of the entry: entry =
    ``sum_t coeffs[i][j][t] * T_t``.
    """

    rows: int
    cols: int
    target_names: tuple[str, ...]
    coeffs: list
    row_labels: list = None
    col_labels: list = None

    def entry_str(self, i, j) -> str:
        return str(self.entry_poly(i, j))

    def entry_poly(self, i, j, ring=None) -> MultiPoly:
        ring = ring or target_ring(self.target_names)
        terms = {}
        for t, c in enumerate(self.coeffs[i][j]):
            if c:
                e = [0] * len(self.target_names)
                e[t] = 1
                terms[tuple(e)] = c
        return MultiPoly(ring, terms)

    def specialize(self, values) -> QMatrix:
        """Numeric matrix at ``T_t = values[t]``."""
        if len(values) != len(self.target_names):
            raise ValueError("one value per target variable required")
        data = [
            [
                _whole(sum(c * v for c, v in zip(self.coeffs[i][j], values) if c))
                for j in range(self.cols)
            ]
            for i in range(self.rows)
        ]
        return QMatrix(data, cols=self.cols)

    def to_json_dict(self, extra=None) -> dict:
        out = {
            "schema": "linear-form-matrix/1",
            "rows": self.rows,
            "cols": self.cols,
            "target_vars": list(self.target_names),
            "row_labels": self.row_labels,
            "col_labels": self.col_labels if self.col_labels is not None else list(range(self.cols)),
            "entries": [[self.entry_str(i, j) for j in range(self.cols)] for i in range(self.rows)],
        }
        if extra:
            out.update(extra)
        return out

    def to_json(self, extra=None) -> str:
        return json.dumps(self.to_json_dict(extra), indent=2)


def representation_matrix(inst: ProblemInstance, nu, warn_region=True) -> LinearFormMatrix:
    """The first strand differential ``M_nu``.

    Rows are indexed by the monomials of multidegree ``nu``, columns by the
    degree-``nu`` syzygies ``(g_0..g_n)`` of f; the (u, c) entry is
    ``sum_j coeff(g_j, x^u) * T_j``.  A degree inside the unreliable region
    is allowed but triggers :class:`InRegionWarning`.
    """
    nu = tuple(nu)
    if warn_region and region_RB(inst.blocks, inst.gamma).contains(nu):
        warnings.warn(
            f"strand degree {nu} lies in the unreliable region; the determinant "
            "guarantee does not apply",
            InRegionWarning,
            stacklevel=2,
        )
    cb = cycle_basis(inst, 1, nu)
    mons = cb.monomials
    lm = len(mons)
    n1 = len(inst.f)
    coeffs = [
        [[cb.vectors[c][j * lm + i] for j in range(n1)] for c in range(len(cb))]
        for i in range(lm)
    ]
    return LinearFormMatrix(
        rows=lm,
        cols=len(cb),
        target_names=inst.target.names,
        coeffs=coeffs,
        row_labels=[monomial_str(inst.ring, m) for m in mons],
        col_labels=list(range(len(cb))),
    )


@dataclass
class ZComplexStrand:
    """All T-linear differentials of the degree-``nu`` strand of the cycle
    complex; ``differentials[q-1]`` maps the q-cycles piece to the (q-1)-cycles
    piece, and consecutive compositions expand to zero."""

    nu: tuple[int, ...]
    differentials: list
    dims: list

    def check_zero_compositions(self) -> bool:
        for a, b in zip(self.differentials, self.differentials[1:]):
            if not _composition_is_zero(a, b):
                return False
        return True


def _composition_is_zero(a: LinearFormMatrix, b: LinearFormMatrix) -> bool:
    """Expand the product of two linear-form matrices as quadratic forms and
    test that every coefficient vanishes."""
    if a.cols != b.rows:
        raise ValueError("composition shape mismatch")
    nt = len(a.target_names)
    for i in range(a.rows):
        for k in range(b.cols):
            quad = {}
            for j in range(a.cols):
                ca = a.coeffs[i][j]
                cb = b.coeffs[j][k]
                for t1 in range(nt):
                    if not ca[t1]:
                        continue
                    for t2 in range(nt):
                        if not cb[t2]:
                            continue
                        key = (t1, t2) if t1 <= t2 else (t2, t1)
                        quad[key] = quad.get(key, 0) + ca[t1] * cb[t2]
            if any(v != 0 for v in quad.values()):
                return False
    return True


def _contract_vector(vector, subsets, lm, tgt_subset_pos, tgt_len, j):
    """Contract the subset index of a cycle vector against e_j: the
    T_j-coefficient of the strand differential image."""
    out = [0] * tgt_len
    for si, S in enumerate(subsets):
        if j not in S:
            continue
        pos = S.index(j)
        sign = -1 if pos % 2 else 1
        T = S[:pos] + S[pos + 1 :]
        base = tgt_subset_pos[T] * lm
        src_base = si * lm
        for ui in range(lm):
            c = vector[src_base + ui]
            if c:
                out[base + ui] = _whole(out[base + ui] + sign * c)
    return out


def _is_expansion(w, free, basis):
    """Whether ``w`` equals ``sum_t w[free[t]] * basis[t]``: the exact test
    that ``w`` lies in the span of a canonical kernel basis whose vector
    ``t`` is 1 at free column ``free[t]`` and 0 at the others."""
    acc = [0] * len(w)
    for ft, v in zip(free, basis):
        k = w[ft]
        if k:
            for i, x in enumerate(v):
                if x:
                    acc[i] += k * x
    return all(a == b for a, b in zip(acc, w))


def z_complex_strand(inst: ProblemInstance, nu) -> ZComplexStrand:
    """Assemble every differential of the degree-``nu`` strand.

    The q-th differential sends a q-cycle to ``sum_j T_j * (contraction by
    e_j)``; for q >= 2 the contractions are re-expressed in the canonical
    (q-1)-cycle basis by reading them at its free columns, and the exact
    re-expansion is checked against the contraction.
    """
    nu = tuple(nu)
    n = inst.n
    n1 = len(inst.f)
    bases = [cycle_basis(inst, q, nu) for q in range(n + 1)]
    diffs = []
    for q in range(1, n + 1):
        src = bases[q]
        tgt = bases[q - 1]
        lm = len(src.monomials)
        tgt_subsets = (
            [()] if q - 1 == 0 else list(combinations(range(n1), q - 1))
        )
        tgt_subset_pos = {S: i for i, S in enumerate(tgt_subsets)}
        tgt_len = len(tgt_subsets) * len(tgt.monomials)
        per_j = []
        for j in range(n1):
            cols = [
                _contract_vector(v, src.subsets, lm, tgt_subset_pos, tgt_len, j)
                for v in src.vectors
            ]
            per_j.append(cols)
        if q == 1:
            # target coordinates are already the monomial basis
            coords = range(tgt_len)
            row_labels = [monomial_str(inst.ring, m) for m in tgt.monomials]
        else:
            coords = [max(i for i, x in enumerate(v) if x) for v in tgt.vectors]
            for cols in per_j:
                for w in cols:
                    if not _is_expansion(w, coords, tgt.vectors):
                        raise StrandAssemblyError(
                            f"contraction image not in the span of the {q - 1}-cycle "
                            f"basis at degree {nu}"
                        )
            row_labels = [f"Z{q - 1}[{t}]" for t in range(len(tgt))]
        rows = len(coords)
        coeffs = [
            [[per_j[j][c][t] for j in range(n1)] for c in range(len(src))]
            for t in coords
        ]
        diffs.append(
            LinearFormMatrix(
                rows=rows,
                cols=len(src),
                target_names=inst.target.names,
                coeffs=coeffs,
                row_labels=row_labels,
                col_labels=[f"Z{q}[{c}]" for c in range(len(src))],
            )
        )
    return ZComplexStrand(nu=nu, differentials=diffs, dims=[len(b) for b in bases])


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
