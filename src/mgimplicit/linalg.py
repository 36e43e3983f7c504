"""Exact dense linear algebra over the rationals.

Inputs are Python ints or ``fractions.Fraction``; outputs are integers.
One integer fraction-free (Bareiss) elimination routine, :func:`_bareiss`,
serves every exact elimination in the package: after each row is cleared
of denominators every intermediate value is an integer (a minor of the
scaled input, by Sylvester's identity), so each division by the previous
pivot is an exact ``//``.  No polynomial matrix is ever eliminated.
Pivoting is deterministic -- the first nonzero entry in column order --
which makes ranks, determinants and kernel bases reproducible from run to
run.  Kernel bases are canonical and integer over one least common
denominator, so coordinates in them are read off at the free columns
instead of solved for.  No floating point, no tolerances.

Matrices at the scale this package needs (a few hundred rows/columns) are
comfortably handled dense; sparse storage is deliberately out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = int | Fraction


def _whole(x):
    """Collapse integral Fractions to int (cheaper arithmetic, same value)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


class QMatrix:
    """Dense rows x cols matrix with exact rational entries.

    ``data`` is a list of row lists.  Zero-row or zero-column matrices are
    legal (empty graded strands produce them); pass ``cols`` explicitly when
    constructing a matrix with no rows.
    """

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data, cols=None):
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(row) != self.cols for row in self.data):
                raise ValueError("ragged rows in matrix data")
            if cols is not None and cols != self.cols:
                raise ValueError("explicit cols does not match row length")
        else:
            self.cols = 0 if cols is None else cols

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self):
        return QMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def mul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            row = self.data[i]
            out.append(
                [
                    _whole(sum(row[k] * other.data[k][j] for k in range(self.cols)))
                    for j in range(other.cols)
                ]
            )
        return QMatrix(out, cols=other.cols)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return [_whole(sum(row[k] * v[k] for k in range(self.cols))) for row in self.data]

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def _bareiss(work, cols, reduce=False):
    """Fraction-free row echelon form of the integer matrix ``work``, in place.

    Each update divides by the previous pivot with an exact ``//``
    (Sylvester's identity guarantees exactness).  Returns ``(pivot_cols,
    sign)``: the pivot column indices in order and the row-swap permutation
    sign.  For a square input of full rank the last pivot is the
    determinant times ``sign``.  With ``reduce`` the rows above each pivot
    are cleared too, and every pivot ends up equal to the last one
    (fraction-free Gauss-Jordan; Nakos, Turner & Williams, 1997).
    """
    rows = len(work)
    pivot_cols = []
    sign = 1
    prev = 1
    pr = 0
    for pc in range(cols):
        pivot_at = None
        for i in range(pr, rows):
            if work[i][pc]:
                pivot_at = i
                break
        if pivot_at is None:
            continue
        if pivot_at != pr:
            work[pr], work[pivot_at] = work[pivot_at], work[pr]
            sign = -sign
        row_p = work[pr]
        piv = row_p[pc]
        for i in range(rows) if reduce else range(pr + 1, rows):
            if i == pr:
                continue
            row_i = work[i]
            head = row_i[pc]
            # left of pc a row below is zero; a row above is not
            for j in range(0 if i < pr else pc + 1, cols):
                row_i[j] = (piv * row_i[j] - head * row_p[j]) // prev
            row_i[pc] = 0
        prev = piv
        pivot_cols.append(pc)
        pr += 1
        if pr == rows:
            break
    return pivot_cols, sign


def _ff_echelon(m: QMatrix, reduce=False):
    """Fraction-free row echelon form of a rational matrix (see :func:`_bareiss`).

    Returns ``(work, pivot_cols, sign, scale)`` where ``work`` is the
    echelonized integer array, ``pivot_cols`` the pivot column indices in
    order, ``sign`` the row-swap permutation sign and ``scale`` the product
    of the denominators cleared from the rows (so the determinant of a
    square input is ``sign * last_pivot / scale``).
    """
    work = []
    scale = 1
    for row in m.data:
        mult = 1
        for x in row:
            mult = lcm(mult, x.denominator)
        work.append([int(x * mult) for x in row])
        scale *= mult
    pivot_cols, sign = _bareiss(work, m.cols, reduce)
    return work, pivot_cols, sign, scale


def rank(m: QMatrix) -> int:
    """Rank over Q, by fraction-free elimination."""
    _, pivots, _, _ = _ff_echelon(m)
    return len(pivots)


def det_rational(m: QMatrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if m.rows != m.cols:
        raise ValueError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    if m.rows == 0:
        return Fraction(1)
    work, pivots, sign, scale = _ff_echelon(m)
    if len(pivots) < m.rows:
        return Fraction(0)
    last = work[m.rows - 1][pivots[-1]]
    return Fraction(sign * last, scale)


def nullspace_basis(m: QMatrix):
    """Basis ``vectors / den`` of the right kernel, in reduced-echelon
    (RREF-induced) form: integer vectors over their least common
    denominator ``den > 0``, returned as ``(den, vectors)``.

    One vector per free column, ordered by free column index; the vector for
    free column ``j`` is 1 at ``j``, 0 at the other free columns, and has
    the unique pivot-column entries making ``m @ v = 0`` (all before ``j``,
    so ``j`` is the vector's last nonzero entry).  This basis is canonical:
    it does not depend on elimination details, and the coordinates of a
    kernel vector in it are its entries at the free columns.  Every pivot
    of the reduced rows is one integer ``d``; ``d`` times the basis is read
    off them.
    """
    work, pivots, _, _ = _ff_echelon(m, reduce=True)
    d = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    vectors = []
    for fc in sorted(set(range(m.cols)) - set(pivots)):
        v = [0] * m.cols
        v[fc] = d
        for i, pc in enumerate(pivots):
            if pc > fc:
                break
            v[pc] = -work[i][fc]
        vectors.append(v)
    g = gcd(d, *(x for v in vectors for x in v)) * (1 if d > 0 else -1)
    return d // g, [[x // g for x in v] for v in vectors]
