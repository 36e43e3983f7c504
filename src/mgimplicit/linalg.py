"""Exact dense linear algebra over the rationals.

Entries are Python ints or ``fractions.Fraction``.  One integer
fraction-free (Bareiss) elimination routine, :func:`_bareiss`, serves every
exact elimination in the package: after each row is cleared of denominators
every intermediate value is an integer (a minor of the scaled input, by
Sylvester's identity), so each division by the previous pivot is an exact
``//``.  No polynomial matrix is ever eliminated: determinants of
linear-form matrices are interpolated from integer determinants of their
specializations.  Pivoting is deterministic -- the first nonzero entry in
column order -- which makes ranks, determinants and kernel bases
reproducible from run to run.  Kernel bases are canonical, so coordinates
in them are read off at the free columns instead of solved for.  No
floating point, no tolerances.

Matrices at the scale this package needs (a few hundred rows/columns) are
comfortably handled dense; sparse storage is deliberately out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def _bareiss(work, cols):
    """Fraction-free row echelon form of the integer matrix ``work``, in place.

    Each update divides by the previous pivot with an exact ``//``
    (Sylvester's identity guarantees exactness).  Returns ``(pivot_cols,
    sign)``: the pivot column indices in order and the row-swap permutation
    sign.  For a square input of full rank the last pivot is the
    determinant times ``sign``.
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
        for i in range(pr + 1, rows):
            row_i = work[i]
            head = row_i[pc]
            for j in range(pc + 1, cols):
                row_i[j] = (piv * row_i[j] - head * row_p[j]) // prev
            row_i[pc] = 0
        prev = piv
        pivot_cols.append(pc)
        pr += 1
        if pr == rows:
            break
    return pivot_cols, sign


def _ff_echelon(m: QMatrix):
    """Fraction-free row echelon form of a rational matrix.

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
    pivot_cols, sign = _bareiss(work, m.cols)
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
    """Basis of the right kernel, in reduced-echelon (RREF-induced) form.

    One vector per free column, ordered by free column index; the vector for
    free column ``j`` has entry 1 at ``j``, 0 at the other free columns, and
    the unique pivot-column entries making ``m @ v = 0`` (all before ``j``,
    so ``j`` is the vector's last nonzero entry).  This basis is canonical:
    it does not depend on elimination details, and the coordinates of a
    kernel vector in it are its entries at the free columns.
    """
    work, pivots, _, _ = _ff_echelon(m)
    free_cols = [c for c in range(m.cols) if c not in set(pivots)]
    basis = []
    for fc in free_cols:
        v = [0] * m.cols
        v[fc] = 1
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            if pc > fc:
                continue
            acc = 0
            row = work[i]
            for c in range(pc + 1, m.cols):
                if v[c]:
                    acc += row[c] * v[c]
            v[pc] = _whole(Fraction(-acc, row[pc])) if acc else 0
        basis.append(v)
    return basis
