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
Kernel bases are back-substituted in the same echelon form, and are
canonical and integer over one least common denominator, so coordinates
in them are read off at the free columns instead of solved for.

:func:`rank` certifies its answer from modular eliminations and calls on
Bareiss only when a certificate fails.  A tall matrix is transposed, so
every rank eliminates the wide orientation, once modulo the fixed prime
:data:`_P`.
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

Both modular eliminations are one routine, :func:`_echelon_mod`, on packed
rows (Dumas, Fousse & Salvy, J. Symbolic Comput. 46, 2011): modulo a
Mersenne prime ``p = 2**k - 1`` a row is one int of ``W = 2k + 3``-bit
slots, one residue per slot, kept below ``2**(k + 1)``.  A row update is
two big-int products and a sum for the whole row: each slot of it stays
below ``2**(2k + 2)``, one bit short of ``2**W``, so no carry crosses into
the next slot, and since ``2**k == 1`` modulo ``p``, two shift-and-mask
folds bring every slot back below ``2**(k + 1)`` without a division.  Its
pivot columns are the column rank profile modulo ``p``, whatever rows it
swaps.  :func:`_pack` packs the rows of a plain matrix.

A matrix ``M(y) = sum_t y_t M_t`` specialized at an integer point ``y``
(:class:`Slices`, which every strand matrix is) is not
packed from its entries: it is never built as big integers on the
certified route.  Its slices are packed once per matrix, modulo each
prime, and since ``M(y) == sum_t (y_t mod p) (M_t mod p)`` modulo ``p``,
each packed row is that sum of whole packed slice rows, brought back
below ``2**(k + 1)`` by the same two folds; the rows modulo ``_P`` and
the pivot columns modulo ``_Q`` are residues of the same entries, so the
pivots and the kernel vectors modulo ``_Q`` are those of the plain
matrix.  The exact check of a kernel vector ``v`` is ``v^T M(y) =
sum_t y_t (v^T M_t)``: with each row of ``M_t`` packed as one integer of
``E``-bit slots, signed entry ``j`` times ``2**(E * j)``, the integer
``sum_t y_t sum_i v_i row_(t,i)`` is ``sum_j c_j 2**(E * j)`` with ``c
= v^T M(y)``.  Each ``|c_j|`` is at most ``sum|y| * sum|v| * max|M_t|``;
when that is below ``2**E`` a zero integer means a zero ``c``, since the
lowest nonzero ``c_j`` would have to be a multiple of ``2**E``.  Beyond
that bound the check fails and Bareiss decides, as it does whenever a
certificate fails.

:func:`nullspace_basis` eliminates a tall matrix on ``r`` of its rows
only: those whose columns are pivots of the transpose modulo ``_P``, which
are independent over Q.  Their kernel contains the whole kernel, and the
two are equal exactly when every dropped row annihilates it; that is
checked over Z on the basis.  A check fails only when the modular rank
fell short of the rank, and then all rows are eliminated.  Either way the
canonical basis is the same.

Matrices at the scale this package needs (a few hundred rows/columns) are
comfortably handled dense; sparse storage is deliberately out of scope.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from itertools import chain, compress, repeat
from math import gcd, isqrt
from operator import add, mul

# The prime of the first elimination in :func:`rank`, the Mersenne prime
# 2**31 - 1: :func:`_echelon_mod` reduces whole packed rows with shifts and
# masks, which is exact only modulo a Mersenne prime, and at k = 31 a slot
# is 2k + 3 = 65 bits.  It is fixed, not drawn, so that ranks take the same
# route (and the same time) on every run; correctness does not depend on
# it, since a modular rank is trusted only as a lower bound, which holds
# for any prime.
_P = 2**31 - 1
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


class Slices:
    """The integer matrices ``M_t``, each ``rows x cols``, of a matrix
    ``M(y) = sum_t y_t M_t`` that is specialized at many points ``y``,
    and the packed images of the slices that :func:`rank` reads at an
    integer point, each built the first time a rank needs it.

    The slices are trusted: lists of rows of ``int`` entries, of this
    shape, that are not changed afterwards.  The images are per instance,
    in the wide orientation of :func:`rank` (a tall ``M_t`` transposed,
    with ``short`` rows of ``long`` entries): its rows packed modulo
    :data:`_P`, its columns packed modulo :data:`_Q` as
    :func:`_echelon_mod` reads them, and its rows packed exactly, entry
    ``j`` times ``2**(E * j)`` with the slot width ``E`` of
    :meth:`annihilates`.  A strand matrix
    (:class:`~mgimplicit.complexes.LinearFormMatrix`) is its own
    ``Slices``; a plain one serves the determinants, which only
    :meth:`evaluate`.
    """

    def __init__(self, slices, rows, cols):
        self.slices = slices
        self.rows, self.cols = rows, cols
        self.short, self.long = min(rows, cols), max(rows, cols)

    def evaluate(self, values):
        """The rows of ``sum_t values[t] * M_t``, fresh lists.  The slices
        of zero values are skipped and those of values 1 are not scaled;
        each entry is summed in one pass, with no intermediate matrix."""
        data = None
        for v, s in compress(zip(values, self.slices), values):
            rows = s if v == 1 else [map(mul, row, repeat(v)) for row in s]
            data = rows if data is None else [map(add, a, b) for a, b in zip(data, rows)]
        if data is None:
            return [[0] * self.cols for _ in range(self.rows)]
        return [list(row) for row in data]

    def _wide(self, s):
        return s if self.rows <= self.cols else list(zip(*s))

    @cached_property
    def _rows_mod_p(self):
        return [_pack(self._wide(s), _P) for s in self.slices]

    @cached_property
    def _columns_mod_q(self):
        return [_pack(zip(*self._wide(s)), _Q) for s in self.slices]

    @cached_property
    def _exact_rows(self):
        """``(E, b, rows)``: the slot width, the bit length ``b`` of the
        largest ``|M_t|`` entry, and each slice's rows packed exactly."""
        top = max((abs(a).bit_length() for s in self.slices for row in s for a in row), default=0)
        # room for sum|y| and sum|v| of up to 107 bits each, as large as
        # the kernel vectors that reconstruction modulo _Q recovers
        width = top + 2 * _Q.bit_length()
        images = []
        for s in self.slices:
            packed = []
            for row in self._wide(s):
                x = 0
                for a in reversed(row):
                    x = (x << width) + a
                packed.append(x)
            images.append(packed)
        return width, top, images

    def residues(self, values, p, index=None):
        """The rows modulo ``p`` of the wide orientation of ``M(values)``
        (with ``p = _P``), or its columns ``index`` (with ``p = _Q``),
        packed for :func:`_echelon_mod`: each ``sum_t (values[t] mod p) *
        image_t``, two folds after every seven terms and at the end.  Every
        product slot is below ``2**(2k)``, so seven of them plus a folded
        slot stay below ``2**(2k + 3)``, which the folds take below
        ``2**(k + 1)``, as :func:`_echelon_mod` needs."""
        if p == _P:
            images, slots, index = self._rows_mod_p, self.long, range(self.short)
        else:
            images, slots = self._columns_mod_q, self.short
        k = p.bit_length()
        lo, hi = _fold_masks(k, slots)
        terms = [(c, image) for c, image in zip((v % p for v in values), images) if c]
        packed = []
        for i in index:
            x = 0
            for j, (c, image) in enumerate(terms, 1):
                x += c * image[i]
                if j % 7 == 0 or j == len(terms):
                    x = (x & lo) + ((x >> k) & hi)
                    x = (x & lo) + ((x >> k) & hi)
            packed.append(x)
        return packed

    def annihilates(self, values, v):
        """Whether ``v^T M(values) = 0`` in the wide orientation, from the
        one integer ``sum_t values[t] * (v . rows_t)``, which is ``sum_j
        c_j 2**(E * j)`` with ``c = v^T M(values)``.  Each ``|c_j|`` is at
        most ``sum|values| * sum|v| * max|M_t|``, below ``2**E`` when the
        bit lengths of the three add up to at most ``E``; then a zero
        integer means that every ``c_j`` is zero, since the lowest nonzero
        one would have to be a multiple of ``2**E``.  Beyond that bound
        the check fails: ``False``, which proves nothing, and
        :func:`rank` leaves the decision to Bareiss."""
        width, top, images = self._exact_rows
        if sum(map(abs, values)).bit_length() + sum(map(abs, v)).bit_length() + top > width:
            return False
        total = 0
        for y, rows in zip(values, images):
            if y:
                total += y * sum(map(mul, v, rows))
        return not total


class _Specialized(QMatrix):
    """``sum_t values[t] * M_t`` for the :class:`Slices` ``matrix`` at
    integer ``values``, whose ``data`` is built when it is first read:
    :func:`rank` reads the packed images of ``matrix`` instead, and
    builds the entries only for Bareiss."""

    __slots__ = ("matrix", "values", "_data")

    def __init__(self, matrix, values):
        self.matrix, self.values, self._data = matrix, values, None
        self.rows, self.cols = matrix.rows, matrix.cols

    @property
    def data(self):
        if self._data is None:
            self._data = self.matrix.evaluate(self.values)
        return self._data


def _bareiss(work, cols):
    """Fraction-free row echelon form of the integer matrix ``work``, in place.

    Each update divides by the previous pivot with an exact ``//``
    (Sylvester's identity guarantees exactness).  Returns ``(pivot_cols,
    sign)``: the pivot column indices in order and the row-swap permutation
    sign.  Row ``i`` is zero left of its pivot, and its entry in column
    ``j`` is the minor on the first ``i + 1`` permuted rows and the columns
    ``pivot_cols[:i] + [j]``, so the last pivot is the minor on the pivot
    columns; for a square input of full rank it is the determinant times
    ``sign``.
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


def _echelon_mod(rows, cols, p):
    """Fraction-free row echelon form modulo ``p = 2**k - 1``, a Mersenne
    prime, of the packed rows ``rows``, each of ``cols`` slots; the input
    is left as it is.  Returns ``(pivot_cols, echelon)``: the pivot columns
    and, for each, its pivot row packed, whose slot ``j`` holds column
    ``pivot_cols[i] + j`` (read them with :func:`_unpack`).  A caller that
    needs only the pivots unpacks nothing.

    Each row is one int of ``W = 2k + 3``-bit slots, column ``j`` in slot
    ``j``, and every slot holds a residue below ``2**(k + 1)``, not
    necessarily reduced (a slot that is 0 modulo ``p`` may hold ``p`` or
    ``2p``).  :func:`_pack` packs the rows of a plain matrix;
    :meth:`Slices.residues` forms those of a specialization from the
    packed slices.  At a pivot ``piv``, every row below becomes ``piv`` times
    itself plus ``p - head`` times the pivot row: two big-int products and
    one sum for the whole row, and no pivot is inverted.  Its first slot,
    now 0 modulo ``p``, is shifted off.  With ``piv`` and ``head`` reduced,
    both factors are below ``2**k``, so each slot of the sum is below
    ``2 * 2**k * 2**(k + 1) = 2**(2k + 2)``, a bit short of ``2**W``: no
    carry crosses into the next slot.  Since ``2**k == 1`` modulo ``p``,
    the fold ``(x & LO) + ((x >> k) & HI)`` adds each slot's bits from
    ``k`` up to its low ``k`` bits without changing its residue, taking a
    slot below ``2**W`` to one below ``9 * 2**k``, and a second fold
    takes that below ``2**k + 9 <= 2**(k + 1)``.

    The pivot columns are the column rank profile modulo ``p`` (each column
    that is independent of the columns before it), so they do not depend
    on the order of the rows or on which row is swapped up, nor on which
    representatives the slots hold; the echelon rows span the input's
    rows, so the kernel modulo ``p`` does not either.
    """
    k = p.bit_length()
    if p < 3 or p & (p + 1):
        raise ValueError(f"modulus {p} is not a Mersenne prime 2**k - 1")
    w = 2 * k + 3
    slot = (1 << w) - 1
    lo, hi = _fold_masks(k, cols)
    below = list(rows)
    pivots, echelon = [], []
    for pc in range(cols):
        for i, x in enumerate(below):
            if (x & slot) % p:
                break
        else:
            below = [x >> w for x in below]
            continue
        row_p = below.pop(i)
        pivots.append(pc)
        echelon.append(row_p)
        if not below:
            break
        piv = (row_p & slot) % p
        tail = row_p >> w
        for j, x in enumerate(below):
            head = (x & slot) % p
            x >>= w
            if head:
                x = piv * x + (p - head) * tail
                x = (x & lo) + ((x >> k) & hi)
                x = (x & lo) + ((x >> k) & hi)
            below[j] = x
    return pivots, echelon


def _pack(rows, p):
    """The integer rows ``rows`` packed for :func:`_echelon_mod` modulo
    ``p = 2**k - 1``: each one int whose ``2k + 3``-bit slot ``j`` holds
    entry ``j`` reduced modulo ``p`` (Horner's rule)."""
    w = 2 * p.bit_length() + 3
    packed = []
    for row in rows:
        x = 0
        for a in reversed(row):
            x = x << w | a % p
        packed.append(x)
    return packed


@lru_cache(maxsize=32)
def _fold_masks(k, cols):
    """The masks ``LO`` and ``HI`` of :func:`_echelon_mod`: the low ``k``
    and the low ``k + 3`` bits of each of ``cols`` slots of ``2k + 3``
    bits."""
    w = 2 * k + 3
    ones = ((1 << (w * cols)) - 1) // ((1 << w) - 1)
    return ((1 << k) - 1) * ones, ((1 << (k + 3)) - 1) * ones


def _unpack(pivots, echelon, cols, p):
    """The packed pivot rows ``echelon`` of :func:`_echelon_mod` as lists:
    row ``i`` holds columns ``pivots[i]`` to ``cols - 1``, residues modulo
    ``p`` below ``2**(k + 1)``, not reduced."""
    w = 2 * p.bit_length() + 3
    slot = (1 << w) - 1
    return [[x >> s & slot for s in range(0, w * (cols - pc), w)] for x, pc in zip(echelon, pivots)]


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


def _kernel_certified(independent, s, annihilates):
    """Whether a matrix whose short side has ``s`` entries per row has no
    more rank than ``independent``, the packed residues modulo :data:`_Q`
    of a selection of those rows, has rows; ``annihilates(v)`` tells
    whether the integer vector ``v`` annihilates every row of the short
    side over Z.

    The kernel of ``independent`` modulo ``_Q`` has one vector per free
    column of its echelon form.  Each is lifted to Q by rational
    reconstruction and must annihilate every row of the short side.  The
    vectors are independent (each is nonzero at its own free column and
    zero at the others), so together they prove the bound.  ``False``
    means that a reconstruction or a check failed, which proves nothing.
    """
    pivots, echelon = _echelon_mod(independent, s, _Q)
    # row i holds the columns from pivots[i] on
    rows = _unpack(pivots, echelon, s, _Q)
    # the pivots' inverses from one modular inversion (Montgomery's trick)
    prefix = []
    acc = 1
    for row in rows:
        prefix.append(acc)
        acc = acc * row[0] % _Q
    inv = pow(acc, -1, _Q)
    inverses = [0] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        inverses[i] = inv * prefix[i] % _Q
        inv = inv * rows[i][0] % _Q
    bound = isqrt(_Q // 2)
    for fc in sorted(set(range(s)) - set(pivots)):
        # back substitution modulo _Q: 1 at fc, 0 at the other free columns
        v = [0] * s
        v[fc] = 1
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            if pc < fc:
                v[pc] = -sum(map(mul, rows[i][1 : fc - pc + 1], v[pc + 1 : fc + 1])) * inverses[i] % _Q
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
        if not annihilates(v):
            return False
    return True


def rank(m: QMatrix) -> int:
    """Rank over Q, exactly, and deterministic.

    ``rank >= r`` from one packed elimination modulo :data:`_P` of the wide
    orientation (:func:`_echelon_mod`, which unpacks nothing here); when
    ``r`` is short of ``min(rows, cols)``, ``rank <= r`` from kernel
    vectors found modulo :data:`_Q` and checked over Z
    (:func:`_kernel_certified`).  Only when that check fails does the
    fraction-free :func:`_bareiss` decide, on a copy.  The certificate is
    set out in the module docstring.

    A strand matrix specialized at an integer point ``y``
    (:meth:`~mgimplicit.complexes.LinearFormMatrix.specialize`) takes the
    same route on residues formed from its packed slices
    (:meth:`Slices.residues`), which are those of its entries, and checks
    each kernel vector in the slices' exact slots
    (:meth:`Slices.annihilates`): it builds its entries only for Bareiss,
    which decides when a vector does not fit those slots too.  The pivots,
    the kernel vectors modulo ``_Q`` and so the route and the rank are
    those of the plain matrix of the same entries.
    """
    s, n = min(m.rows, m.cols), max(m.rows, m.cols)
    if isinstance(m, _Specialized):
        a, y = m.matrix, m.values
        pivots, _ = _echelon_mod(a.residues(y, _P), n, _P)
        if len(pivots) == s or _kernel_certified(a.residues(y, _Q, pivots), s, partial(a.annihilates, y)):
            return len(pivots)
        work = m.data if m.rows <= m.cols else list(zip(*m.data))
    else:
        work = m.data if m.rows <= m.cols else list(zip(*m.data))
        pivots, _ = _echelon_mod(_pack(work, _P), n, _P)
        if len(pivots) == s:
            return s
        b = list(zip(*work))
        if _kernel_certified(_pack([b[c] for c in pivots], _Q), s, partial(_annihilated, b)):
            return len(pivots)
    return len(_bareiss([list(row) for row in work], n)[0])


def _annihilated(columns, v):
    """Whether ``v`` annihilates every vector of ``columns`` over Z."""
    return not any(sum(map(mul, col, v)) for col in columns)


def nullspace_basis(m: QMatrix):
    """Basis ``vectors / den`` of the right kernel, in reduced-echelon
    (RREF-induced) form: integer vectors over their least common
    denominator ``den > 0``, returned as ``(den, vectors)``.

    One vector per free column, ordered by free column index; the vector for
    free column ``j`` is 1 at ``j``, 0 at the other free columns, and has
    the unique pivot-column entries making ``m @ v = 0`` (all before ``j``,
    so ``j`` is the vector's last nonzero entry).  This basis is canonical:
    it does not depend on elimination details, and the coordinates of a
    kernel vector in it are its entries at the free columns.  ``d`` times
    the basis, ``d`` the last pivot of the :func:`_bareiss` echelon form
    (the minor ``A_J`` on its pivot columns), is back-substituted in that
    form with exact divisions: by Cramer's rule its entry at pivot column
    ``J_k`` is minus ``A_J`` with column ``J_k`` replaced by column ``j``
    (Bareiss, Math. Comp. 22, 1968).

    A tall matrix is eliminated on the rows that :func:`_echelon_mod` finds
    independent modulo :data:`_P` in its transpose, ``r`` of them,
    independent over Q too.  Their kernel, of dimension ``cols - r``,
    contains the matrix's; it is the matrix's exactly when every dropped
    row annihilates each of its basis vectors, which is checked over Z.
    A check fails exactly when the rank exceeds ``r``, which needs ``_P``
    to divide every minor of size ``r + 1``, and then every row is
    eliminated.  The kernel decides the canonical basis, so the result is
    the same on both routes.
    """
    if m.rows <= m.cols:
        return _back_substituted_kernel(m.data, m.cols)
    independent, _ = _echelon_mod(_pack(zip(*m.data), _P), m.rows, _P)
    den, vectors = _back_substituted_kernel([m.data[i] for i in independent], m.cols)
    kept = set(independent)
    dropped = (row for i, row in enumerate(m.data) if i not in kept)
    if any(sum(map(mul, row, v)) for row in dropped for v in vectors):
        return _back_substituted_kernel(m.data, m.cols)
    return den, vectors


def _back_substituted_kernel(rows, cols):
    """The canonical kernel basis of the integer rows ``rows`` as ``(den,
    vectors)``, back-substituted in their :func:`_bareiss` echelon form
    (see :func:`nullspace_basis`)."""
    work = [row[:] for row in rows]
    pivots, _ = _bareiss(work, cols)
    d = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    vectors = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[fc] = d
        for i in range(len(pivots) - 1, -1, -1):
            row_i, pc = work[i], pivots[i]
            if pc < fc:
                v[pc], rem = divmod(-sum(map(mul, row_i[pc + 1 : fc + 1], v[pc + 1 : fc + 1])), row_i[pc])
                if rem:
                    raise ArithmeticError("kernel back-substitution left a remainder")
        vectors.append(v)
    g = gcd(d, *(x for v in vectors for x in v)) * (1 if d > 0 else -1)
    return d // g, [[x // g for x in v] for v in vectors]
