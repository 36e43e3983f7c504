"""Exact dense linear algebra on integer matrices.

Inputs and outputs are Python ints: callers clear denominators before they
build a matrix, and :class:`QMatrix` refuses any other entry.  One integer
fraction-free (Bareiss) routine, :func:`_bareiss`, decides every exact
elimination in the package that the modular certificates of :func:`rank`
leave open: every intermediate value is an integer (a minor of the input,
by Sylvester's identity), so each division by the previous pivot is an
exact ``//``.  No polynomial matrix is ever eliminated.  Pivoting is
deterministic -- the first nonzero entry in column order -- which makes
ranks, determinants and kernel bases reproducible from run to run.
Kernel bases are canonical and integer over one least common denominator,
so coordinates in them are read off at the free columns instead of solved
for.

:func:`rank` certifies its answer from modular eliminations and calls on
Bareiss only when a certificate fails.  It divides each column by the gcd
of its entries (the column content), which keeps the rank but not the
kernel; strand matrices specialized over one common denominator carry
large column contents.  A tall matrix is transposed, so every rank
eliminates the wide orientation, once modulo the fixed prime :data:`_P`.
The ``r`` pivots select a minor that is nonzero modulo ``_P``, hence a
nonzero integer, so ``rank >= r``; a modular rank of ``min(rows, cols)``
is therefore the rank.  Otherwise the pivot columns are ``r`` independent
rows of the short side of the matrix, and their kernel modulo the wide
fixed prime :data:`_Q` gives one vector per missing pivot.  Each is
recovered over Q by rational reconstruction (Wang, Guy & Davenport,
SIGSAM Bull. 16, 1982) and checked exactly against the whole short side;
these independent vectors prove ``rank <= r``.  The certificate is short
whenever the kernel is small: a strand matrix specialized at a point of
the hypersurface, ``T = f(p)``, has the strand monomials at ``p`` as a
left kernel vector, and when they span the kernel and lie within the
reconstruction bound of ``_Q`` the rank is certified without Bareiss.
When a reconstruction or a check fails, :func:`_bareiss` decides, so the
result is exact whatever the primes.  Both primes are fixed, not drawn,
so every rank takes the same route on every run.  No floating point, no
tolerances.

Matrices at the scale this package needs (a few hundred rows/columns) are
comfortably handled dense; sparse storage is deliberately out of scope.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, isqrt
from operator import mul

# The prime of the first elimination in :func:`rank`: the largest prime
# below 2**30, so a product of two residues fits in two 30-bit CPython
# digits.  It is fixed, not drawn, so that ranks take the same route (and
# the same time) on every run; correctness does not depend on it, since a
# modular rank is trusted only as a lower bound, which holds for any prime.
_P = 1073741789
# The prime of the kernel certificate in :func:`rank`, the Mersenne prime
# 2**107 - 1.  Rational reconstruction modulo _Q recovers numerators
# and denominators up to isqrt(_Q // 2), about 2**53, which covers the
# strand monomials at a parameter point with coordinates up to 99
# (implicitize.POINT_RANGE): 99**|nu| is about 2**46 at |nu| = 7.  On the
# 300 on-surface rank queries of the benchmark's represent workload at
# seeds 1-3, 2**61 - 1 fell back to Bareiss on 115 and 2**89 - 1 on 5;
# 2**107 - 1 on none.  Fixed for the same reason as _P; correctness does
# not depend on it either, since every recovered kernel vector is checked
# over Z.
_Q = 2**107 - 1


class QMatrix:
    """Dense rows x cols matrix of ``int`` entries.

    ``data`` is a list of row lists.  Zero-row or zero-column matrices are
    legal (empty graded strands produce them); pass ``cols`` explicitly when
    constructing a matrix with no rows.  A rational matrix enters as an
    integer multiple of itself, which has the same rank and kernel; any
    other entry, a ``Fraction`` included, raises ``TypeError``, since the
    eliminations divide with an exact ``//``.
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
        if not all(map(isinstance, chain.from_iterable(self.data), repeat(int))):
            k, x = next((k, x) for k, x in enumerate(chain.from_iterable(self.data)) if not isinstance(x, int))
            raise TypeError(f"entry {divmod(k, self.cols)} is {x!r}, not an int")

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


def _echelon_mod(rows, cols, p):
    """Fraction-free row echelon form modulo the prime ``p`` of the residue
    rows ``rows``, in place: each row below a pivot ``piv`` becomes ``piv``
    times itself minus its head times the pivot row, so no pivot is
    inverted.  Returns the pivot columns."""
    pivots = []
    r = 0
    for pc in range(cols):
        for i in range(r, len(rows)):
            if rows[i][pc]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        row_p = rows[r]
        piv = row_p[pc]
        tail = row_p[pc + 1 :]
        for i in range(r + 1, len(rows)):
            row_i = rows[i]
            head = row_i[pc]
            if head:
                row_i[pc + 1 :] = [(piv * a - head * b) % p for a, b in zip(row_i[pc + 1 :], tail)]
        pivots.append(pc)
        r += 1
        if r == len(rows):
            break
    return pivots


def _reconstruct(x, bound):
    """The fraction ``n / d`` with ``|n|, d <= bound`` and ``n == d * x``
    modulo :data:`_Q`, as ``(n, d)``, or ``None`` when there is none
    (rational reconstruction: the extended Euclidean algorithm on ``_Q`` and
    ``x``, stopped at the first remainder within the bound; Wang, Guy &
    Davenport, SIGSAM Bull. 16(2), 1982)."""
    r0, r1, t0, t1 = _Q, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _kernel_certified(b, independent, s):
    """Whether the integer rows ``b``, of length ``s``, have no more rank
    than the number of rows in ``independent``, a selection of them.

    The kernel of ``independent`` modulo :data:`_Q` has one vector per free
    column of its echelon form.  Each is lifted to Q by rational
    reconstruction and must annihilate every row of ``b`` over Z.  The
    vectors are independent (each is nonzero at its own free column and
    zero at the others), so together they prove the bound.  ``False``
    means that a reconstruction or a check failed, which proves nothing.
    """
    rows = [[x % _Q for x in row] for row in independent]
    pivots = _echelon_mod(rows, s, _Q)
    # the pivots' inverses from one modular inversion (Montgomery's trick)
    prefix = []
    acc = 1
    for i, pc in enumerate(pivots):
        prefix.append(acc)
        acc = acc * rows[i][pc] % _Q
    inv = pow(acc, -1, _Q)
    inverses = [0] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        inverses[i] = inv * prefix[i] % _Q
        inv = inv * rows[i][pivots[i]] % _Q
    bound = isqrt(_Q // 2)
    for fc in sorted(set(range(s)) - set(pivots)):
        # back substitution modulo _Q: 1 at fc, 0 at the other free columns
        v = [0] * s
        v[fc] = 1
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            if pc < fc:
                v[pc] = -sum(map(mul, rows[i][pc + 1 : fc + 1], v[pc + 1 : fc + 1])) * inverses[i] % _Q
        # lift to integers over one common denominator, reconstructing
        # only the entries that it does not already make small
        den = 1
        for j in range(fc + 1):
            y = v[j] * den % _Q
            if y >= _Q - bound:
                v[j] = y - _Q
            elif y > bound:
                frac = _reconstruct(y, bound)
                if frac is None:
                    return False
                n, d = frac
                den *= d
                for k in range(j):
                    v[k] *= d
                v[j] = n
            else:
                v[j] = y
        if any(sum(map(mul, row, v)) for row in b):
            return False
    return True


def rank(m: QMatrix) -> int:
    """Rank over Q, exactly, and deterministic.

    ``rank >= r`` from one elimination modulo :data:`_P` of the wide
    orientation, after each column is divided by its content; when ``r`` is
    short of ``min(rows, cols)``, ``rank <= r`` from kernel vectors checked
    over Z (:func:`_kernel_certified`).  Only when that check fails does
    the fraction-free :func:`_bareiss` decide.  The certificate is set out
    in the module docstring.
    """
    contents = [gcd(*col) or 1 for col in zip(*m.data)]
    work = [[x // g for x, g in zip(row, contents)] for row in m.data]
    if m.rows > m.cols:
        work = [list(col) for col in zip(*work)]
    s, cols = len(work), max(m.rows, m.cols)
    pivots = _echelon_mod([[x % _P for x in row] for row in work], cols, _P)
    r = len(pivots)
    if r == s:
        return r
    b = list(zip(*work))
    if _kernel_certified(b, [b[c] for c in pivots], s):
        return r
    return len(_bareiss(work, cols)[0])


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
    work = [row[:] for row in m.data]
    pivots, _ = _bareiss(work, m.cols, reduce=True)
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
