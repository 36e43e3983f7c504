"""Exact dense linear algebra on integer matrices.

Inputs and outputs are Python ints: callers clear denominators before they
build a matrix, and :class:`QMatrix` refuses any other entry.  One integer
fraction-free (Bareiss) routine, :func:`_bareiss`, decides every exact
elimination in the package that the modular certificates of :func:`rank`
and the modular kernels of :func:`nullspace_basis` leave open: every
intermediate value is an integer (a minor of the input, by Sylvester's
identity), so each division by the previous pivot is an exact ``//``.
No polynomial matrix is ever eliminated.  Pivoting is deterministic --
the first nonzero entry in column order -- which makes ranks,
determinants and kernel bases reproducible from run to run.
Kernel bases that no modular kernel gives are back-substituted in the
same echelon form; every kernel basis is canonical and integer over one
least common denominator, so coordinates in it are read off at the free
columns instead of solved for.

:func:`rank` certifies its answer from modular eliminations and calls on
Bareiss only when a certificate fails.  A tall matrix is transposed, so
every rank eliminates the wide orientation, once modulo the fixed prime
:data:`_P`.
The ``r`` pivots select a minor that is nonzero modulo ``_P``, hence a
nonzero integer, so ``rank >= r``; a modular rank of ``min(rows, cols)``
is therefore the rank.  Otherwise the pivot columns are ``r`` independent
rows of the short side of the matrix, and their kernel modulo the wide
fixed prime :data:`_Q`, lifted and checked against the whole short side,
gives one independent vector per missing pivot, which prove ``rank <=
r``.  The certificate is short whenever the kernel is small: a strand
matrix specialized at a point of the hypersurface, ``T = f(p)``, has the
strand monomials at ``p`` as a left kernel vector, and when they span the
kernel and lie within the reconstruction bound of ``_Q`` the rank is
certified without Bareiss.  A caller that knows such a vector can pass
it: when the modular rank is one short of ``min(rows, cols)``, one
nonzero vector that passes the exact check proves the rank, and no
kernel is computed modulo ``_Q``.

Every kernel found modulo a prime is trusted through one routine,
:func:`_lifted_kernel`: each vector is recovered over Q by rational
reconstruction (Wang, Guy & Davenport, SIGSAM Bull. 16, 1982) and kept
only once an exact check over Z shows that it annihilates the rows it
stands for (:func:`_annihilated` on a plain matrix).  When a
reconstruction or a check fails, :func:`_bareiss` decides, so every
result is exact whatever the primes.  Both primes are fixed, not drawn,
so every rank and kernel takes the same route on every run.  No floating
point, no tolerances.

Every modular elimination is one routine, :func:`_echelon_mod`, on packed
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

:func:`nullspace_basis` reads the kernel of a tall matrix off ``r`` of
its rows: those whose columns are pivots of the transpose modulo ``_P``,
which are independent over Q.  Their kernel modulo ``_P``, lifted and
checked on every row of the matrix by the same :func:`_lifted_kernel`,
is ``cols - r`` exact kernel vectors, each ending in its own free
column: the canonical basis up to scale, since ``rank >= r``, brought
over one common denominator.  When the lift or the check fails, the
``r`` rows are eliminated with Bareiss; their kernel contains the whole
kernel, and the two are equal exactly when every dropped row annihilates
it, which is checked over Z on the basis.  That check fails only when
the modular rank fell short of the rank, and then all rows are
eliminated.  Every route gives the same canonical basis.

:func:`saturated_basis` gives the determinants small columns: ``k``
independent integer vectors span a lattice whose saturation, every
integer vector of their Q-span, has an LLL-reduced basis (Lenstra,
Lenstra & Lovász, Math. Ann. 261, 1982) of far smaller entries.  The
canonical form is read off the vectors themselves when each is the only
one nonzero at a coordinate of its own, as canonical cycle vectors are,
and otherwise off their Bareiss kernel, back-substituted as for
:func:`nullspace_basis`; it writes the span over ``k`` coordinates
and one denominator ``den``, whose integral points form a coordinate
lattice that contains ``den Z^k``, so its Hermite normal form is computed
modulo ``den`` with entries below ``den``.  The lifted basis is reduced by
the integral LLL of Cohen (Alg. 2.6.7) at ``delta = 3/4``: integers only,
no floating point, and the same input always gives the same basis.

Matrices at the scale this package needs (a few hundred rows/columns) are
comfortably handled dense; sparse storage is deliberately out of scope.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from itertools import chain, compress, repeat
from math import gcd, isqrt, lcm
from operator import add, mul

# The prime of the first elimination in :func:`rank` and of the row
# selection and kernel lift in :func:`nullspace_basis`, the Mersenne prime
# 2**31 - 1: :func:`_echelon_mod` reduces whole packed rows with shifts
# and masks, which is exact only modulo a Mersenne prime, and at k = 31 a
# slot is 2k + 3 = 65 bits.  Rational reconstruction modulo _P recovers
# numerators and denominators up to isqrt(_P // 2) = 2**15 - 1, which
# covers the tall Koszul kernels of the benchmark's wide_gcd workload
# (canonical denominators of at most 9 bits at seeds 1-3).  It is fixed,
# not drawn, so that ranks and kernels take the same route (and the same
# time) on every run; correctness does not depend on it, since a modular
# rank is trusted only as a lower bound, which holds for any prime, and
# every lifted kernel vector is checked over Z.
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
    ``Slices``; a plain one holds the minor that the off-grid check of
    :func:`~mgimplicit.implicitize._det_on_columns` evaluates once.
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


def _reconstruct(x, bound, p):
    """The fraction ``n / d`` with ``|n|, d <= bound`` and ``n == d * x``
    modulo ``p``, as ``(n, d)``, or ``None`` when there is none (rational
    reconstruction: the extended Euclidean algorithm on ``p`` and ``x``,
    stopped at the first remainder within the bound; Wang, Guy & Davenport,
    SIGSAM Bull. 16(2), 1982)."""
    r0, r1, t0, t1 = p, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _kernel_mod(packed, cols, p):
    """The kernel modulo the Mersenne prime ``p`` of the packed rows
    ``packed`` (of ``cols`` slots each), in reversed echelon form: for each
    free column ``fc`` of their echelon form, ``(fc, v)`` with ``v`` the
    residues of the kernel vector that is 1 at ``fc`` and 0 at the other
    free columns and after ``fc``.  A generator: it eliminates when it is
    first advanced, and a caller that stops early back-substitutes no
    further vector.  The last free column comes first: its vector reaches
    the most pivot columns, so its entries are the likeliest to lie beyond
    a reconstruction bound, and a lift that fails does so at once."""
    pivots, echelon = _echelon_mod(packed, cols, p)
    # row i holds the columns from pivots[i] on
    rows = _unpack(pivots, echelon, cols, p)
    # the pivots' inverses from one modular inversion (Montgomery's trick)
    prefix = []
    acc = 1
    for row in rows:
        prefix.append(acc)
        acc = acc * row[0] % p
    inv = pow(acc, -1, p)
    inverses = [0] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        inverses[i] = inv * prefix[i] % p
        inv = inv * rows[i][0] % p
    for fc in sorted(set(range(cols)) - set(pivots), reverse=True):
        # back substitution modulo p: 1 at fc, 0 at the other free columns
        v = [0] * cols
        v[fc] = 1
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            if pc < fc:
                v[pc] = -sum(map(mul, rows[i][1 : fc - pc + 1], v[pc + 1 : fc + 1])) * inverses[i] % p
        yield fc, v


def _lift(v, p):
    """The residues ``v`` modulo ``p`` lifted to an integer vector over one
    common denominator, or ``None`` when a reconstruction fails: each entry
    times the denominator so far is taken as it is when it lies within the
    reconstruction bound ``isqrt(p // 2)`` of 0, and is otherwise
    reconstructed as a fraction (:func:`_reconstruct`), whose denominator
    then scales the entries before it.  ``v`` is changed in place."""
    bound = isqrt(p // 2)
    den = 1
    for j, x in enumerate(v):
        y = x * den % p
        if y >= p - bound:
            v[j] = y - p
        elif y > bound:
            frac = _reconstruct(y, bound, p)
            if frac is None:
                return None
            n, d = frac
            den *= d
            for k in range(j):
                v[k] *= d
            v[j] = n
        else:
            v[j] = y
    return v


def _lifted_kernel(packed, cols, p, annihilates):
    """The kernel modulo the Mersenne prime ``p`` of the packed rows
    ``packed`` (of ``cols`` slots each), lifted to Q and checked over Z,
    as ``(fc, v)`` pairs in the order of :func:`_kernel_mod`, or ``None``
    at the first reconstruction or check that fails.

    Each vector is lifted by rational reconstruction (:func:`_lift`), over
    its own common denominator, and kept once ``annihilates(v)`` confirms
    that the integer vector ``v`` annihilates the rows it stands for over
    Z.  ``v[fc]`` is nonzero and ``v`` is zero at the other free columns,
    so the lifted vectors are independent.  ``None`` proves nothing: the
    caller leaves the decision to :func:`_bareiss`.
    """
    lifted = []
    for fc, v in _kernel_mod(packed, cols, p):
        v = _lift(v, p)
        if v is None or not annihilates(v):
            return None
        lifted.append((fc, v))
    return lifted


def rank(m: QMatrix, kernel=None) -> int:
    """Rank over Q, exactly, and deterministic.

    ``rank >= r`` from one packed elimination modulo :data:`_P` of the wide
    orientation (:func:`_echelon_mod`, which unpacks nothing here); when
    ``r`` is short of ``s = min(rows, cols)``, ``rank <= r`` from kernel
    vectors found modulo :data:`_Q`, lifted and checked over Z
    (:func:`_lifted_kernel`).  Only when that check fails does the
    fraction-free :func:`_bareiss` decide, on a copy.  The certificate is
    set out in the module docstring.

    ``kernel`` is an optional candidate for the kernel vector of the short
    side, ``s`` integers ``v`` with ``v^T W = 0`` for the wide orientation
    ``W`` (the rows of ``m`` unless it is tall): when ``r = s - 1``, a
    nonzero ``v`` that passes the exact check proves ``rank <= s - 1`` by
    itself, and no kernel is computed modulo ``_Q``.  Any other candidate
    changes nothing, so the rank never depends on it.

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
    if kernel is not None and len(kernel) != s:
        raise ValueError(f"a kernel candidate needs {s} entries, not {len(kernel)}")
    if isinstance(m, _Specialized):
        a, y = m.matrix, m.values
        pivots, _ = _echelon_mod(a.residues(y, _P), n, _P)
        if len(pivots) == s:
            return s
        annihilates = partial(a.annihilates, y)
        independent = partial(a.residues, y, _Q, pivots)
    else:
        work = m.data if m.rows <= m.cols else list(zip(*m.data))
        pivots, _ = _echelon_mod(_pack(work, _P), n, _P)
        if len(pivots) == s:
            return s
        b = list(zip(*work))
        annihilates = partial(_annihilated, b)
        independent = partial(_pack, [b[c] for c in pivots], _Q)
    if len(pivots) == s - 1 and kernel is not None and any(kernel) and annihilates(kernel):
        return s - 1
    if _lifted_kernel(independent(), s, _Q, annihilates) is not None:
        return len(pivots)
    work = m.data if m.rows <= m.cols else list(zip(*m.data))
    return len(_bareiss([list(row) for row in work], n)[0])


def _annihilated(rows, v):
    """Whether ``v`` annihilates every vector of ``rows`` over Z, one dot
    product at a time: the exact check of a plain matrix's kernel vectors
    (:meth:`Slices.annihilates` checks those of a specialization)."""
    return not any(sum(map(mul, row, v)) for row in rows)


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

    A tall matrix is first reduced to the rows that :func:`_echelon_mod`
    finds independent modulo :data:`_P` in its transpose, ``r`` of them,
    independent over Q too.  Their kernel modulo ``_P``, ``k = cols - r``
    vectors, is kept once it is lifted and every lifted vector annihilates
    every row of the matrix over Z (:func:`_lifted_kernel`).  Each of them
    then shows that its free column depends on the columns before it, and
    as ``rank >= r`` they are as many as the free columns of the canonical
    basis, so they are that basis up to scale: no Bareiss runs.  When a
    reconstruction or a check fails, the selected rows are eliminated with
    :func:`_bareiss` instead.  Their kernel, of dimension ``k``, contains
    the matrix's; it is the matrix's exactly when every dropped row
    annihilates each of its basis vectors, which is checked over Z.  That
    check fails exactly when the rank exceeds ``r``, which needs ``_P`` to
    divide every minor of size ``r + 1``, and then every row is
    eliminated.  The kernel decides the canonical basis, so the result is
    the same on every route.
    """
    if m.rows <= m.cols:
        return _back_substituted_kernel(m.data, m.cols)
    independent, _ = _echelon_mod(_pack(zip(*m.data), _P), m.rows, _P)
    selected = [m.data[i] for i in independent]
    lifted = _lifted_kernel(_pack(selected, _P), m.cols, _P, partial(_annihilated, m.data))
    if lifted is not None:
        # each lifted w is w[fc] times the canonical vector of its free
        # column fc: over the common denominator, in increasing order of fc
        den = lcm(*(w[fc] for fc, w in lifted))
        return _canonical_scale(den, [[x * (den // w[fc]) for x in w] for fc, w in reversed(lifted)])
    den, vectors = _back_substituted_kernel(selected, m.cols)
    kept = set(independent)
    dropped = [row for i, row in enumerate(m.data) if i not in kept]
    if not all(_annihilated(dropped, v) for v in vectors):
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
    return _canonical_scale(d, vectors)


def _canonical_scale(den, vectors):
    """The kernel basis ``vectors / den`` as :func:`nullspace_basis`
    returns it: ``den`` and every entry divided by their gcd, signed so
    that ``den > 0``."""
    g = gcd(den, *chain.from_iterable(vectors)) * (1 if den > 0 else -1)
    return den // g, [[x // g for x in v] for v in vectors]


def saturated_basis(vectors):
    """An LLL-reduced basis of ``span_Q(vectors) ∩ Z^m`` for ``k`` integer
    vectors of length ``m``, as ``(basis, coords)``, or ``None`` when the
    vectors are dependent over Q.  ``coords`` are ``k`` increasing
    coordinates on which the input, and so the basis, is invertible.

    The canonical form (:func:`_canonical_form`) writes every vector ``x``
    of the span through its entries ``y = x[coords]``: ``x[j] = a_j . y /
    den`` at the other coordinates.  So ``x`` is integral exactly when ``y``
    lies in the coordinate lattice ``{y in Z^k : a_j . y == 0 mod den}``,
    which contains ``den Z^k``; :func:`_coordinate_lattice` gives a basis
    of it with entries below ``den``, which lifts to a basis of the
    saturated lattice, reduced by :func:`_lll`.  Every step is a function
    of the input alone, so the same vectors always give the same basis.
    """
    k = len(vectors)
    if not k:
        return [], []
    m = len(vectors[0])
    form = _canonical_form(vectors, m)
    if form is None:
        return None
    den, coords, relations = form
    basis = []
    for y in _coordinate_lattice([a for _, a in relations], k, den):
        x = [0] * m
        for c, v in zip(coords, y):
            x[c] = v
        for j, a in relations:
            x[j], rem = divmod(sum(map(mul, a, y)), den)
            if rem:
                raise ArithmeticError("a coordinate-lattice vector lifted to a fraction")
        basis.append(x)
    _lll(basis)
    return basis, coords


def _canonical_form(vectors, m):
    """``(den, coords, relations)`` for ``k`` vectors of length ``m``, or
    ``None`` when they are dependent: a vector ``x`` of their span is
    ``x[j] = a . x[coords] / den`` at each other coordinate ``j``, for
    ``(j, a)`` in ``relations``, with ``den > 0``.

    When every vector is the only one nonzero at some coordinate (a
    column of a differential is a canonical cycle vector, the only one
    nonzero at its own free coordinate, and every minor of the benchmark
    instances keeps the rows of those coordinates) they are the pivots,
    and the relations are the vectors themselves over the pivot entries;
    nothing is eliminated.  (Eliminating them would pass through minors of
    100-600 bits only to divide them away again: 0.06-1.5 ms more per
    ``d_1`` minor of the benchmark instances.)  Otherwise, as for
    dependent vectors or the columns of a minor whose rows drop a free
    coordinate, the form is read off the canonical kernel of the vectors,
    back-substituted in their :func:`_bareiss` echelon form: every vector
    of the span is orthogonal to each kernel vector ``u``, which is ``den``
    at its free column ``j`` and zero at the other free columns, so ``x[j]
    = -u[coords] . x[coords] / den``.  There are ``m - k`` kernel vectors
    exactly when the vectors are independent.
    """
    k = len(vectors)
    owner = {}
    for j, col in enumerate(zip(*vectors)):
        if col.count(0) == k - 1:
            i = next(i for i, x in enumerate(col) if x)
            owner.setdefault(i, j)
    if len(owner) == k:
        coords = sorted(owner.values())
        pivots = [vectors[i][owner[i]] for i in range(k)]
        den = lcm(*pivots)
        # y[p] is the pivot entry of vector i, whose weight in x is y[p] / c_i
        order = sorted(range(k), key=owner.__getitem__)
        scales = [den // pivots[i] for i in order]
        chosen = set(coords)
        relations = [(j, [vectors[i][j] * s for i, s in zip(order, scales)]) for j in range(m) if j not in chosen]
    else:
        den, kernel = _back_substituted_kernel(vectors, m)
        if len(kernel) != m - k:
            return None
        free = [max(i for i, x in enumerate(u) if x) for u in kernel]
        chosen = set(free)
        coords = [c for c in range(m) if c not in chosen]
        relations = [(j, [-u[c] for c in coords]) for j, u in zip(free, kernel)]
    return den, coords, relations


def _coordinate_lattice(relations, k, den):
    """A basis of ``{y in Z^k : a . y == 0 mod den for a in relations}``,
    which contains ``den Z^k``, with entries of absolute value below
    ``den``.

    That lattice is ``den H^-1 Z^k`` for any basis ``H`` of the lattice
    ``R`` spanned by the relations and ``den Z^k``: ``y`` is in it exactly
    when ``H y`` is in ``den Z^k``.  ``H`` is built in Hermite normal form
    modulo ``den`` (Domich, Kannan & Trotter, Math. Oper. Res. 12, 1987;
    Cohen, *A Course in Computational Algebraic Number Theory*, Alg.
    2.4.8): upper triangular, with a diagonal that divides ``den``, from
    ``den I`` on.  So ``den H^-1`` is integral and upper triangular, and
    its columns, size-reduced against one another, are the basis.

    Each relation is inserted column by column.  Where its entry is a
    multiple of the diagonal, that multiple of the row is subtracted;
    elsewhere extended Euclid replaces the pair (row, relation) by the row
    with ``gcd(diagonal, entry)`` on the diagonal and a relation that is
    zero there, a unimodular step.  Entries are kept modulo ``den``, since
    ``den Z^k`` lies in ``R``: the rows stay triangular with the same
    diagonal, hence a basis of ``R``.  A relation that ``H`` already
    implies is reduced to zero by subtractions alone; on the cycle vectors
    of a strand, the first relation or two imply the rest.
    """
    rows = [[den * (i == j) for j in range(k)] for i in range(k)]
    for a in relations:
        for c in range(k):
            head = a[c] % den
            if head:
                row = rows[c]
                q, r = divmod(head, row[c])
                if r:
                    h, s, t = _xgcd(row[c], head)
                    u, v = row[c] // h, head // h
                    rows[c] = [(s * x + t * y) % den for x, y in zip(row, a)]
                    a = [(u * y - v * x) % den for x, y in zip(row, a)]
                else:
                    a = [(x - q * y) % den for x, y in zip(a, row)]
    # the columns of den H^-1, by back substitution: H N = den I
    basis = []
    for j in range(k):
        col = [0] * k
        col[j] = den // rows[j][j]
        for i in range(j - 1, -1, -1):
            col[i] = -sum(map(mul, rows[i][i + 1 : j + 1], col[i + 1 : j + 1])) // rows[i][i]
        for i in range(j - 1, -1, -1):
            q = col[i] // basis[i][i]
            if q:
                col = [x - q * y for x, y in zip(col, basis[i])]
        basis.append(col)
    return basis


def _xgcd(a, b):
    """``(g, s, t)`` with ``g = gcd(a, b) = s a + t b``, for ``a, b >= 0``."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _lll(b):
    """LLL-reduce the independent integer vectors ``b`` in place, with
    ``delta = 3/4`` and integers only (Lenstra, Lenstra & Lovász, Math.
    Ann. 261, 1982; the integral version of Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 2.6.7).

    ``d[i]`` is the Gram determinant of the first ``i`` vectors and
    ``lam[i][j] = d[j + 1] mu_ij`` holds the Gram-Schmidt coefficients;
    both are integers.  On return every ``|mu_ij| <= 1/2`` (size
    reduction) and ``3 d[i + 1]^2 <= 4 (d[i] d[i + 2] + lam[i + 1][i]^2)``
    (Lovász's condition at ``3/4``, scaled by ``d[i + 1]^2``).
    """
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    if n:
        d[1] = sum(map(mul, b[0], b[0]))
    k, kmax = 1, 0
    while k < n:
        lk, lp = lam[k], lam[k - 1]
        if k > kmax:
            kmax = k
            bk = b[k]
            for j in range(k + 1):
                lj = lam[j]
                u = sum(map(mul, bk, b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
                if j < k:
                    lk[j] = u
                else:
                    d[k + 1] = u
        # size reduction against b[k - 1] (Cohen's sub-algorithm RED)
        t, dk = lk[k - 1], d[k]
        if 2 * abs(t) > dk:
            q = (2 * t + dk) // (2 * dk)
            b[k] = [x - q * y for x, y in zip(b[k], b[k - 1])]
            t -= q * dk
            lk[k - 1] = t
            for i in range(k - 1):
                lk[i] -= q * lp[i]
        dk1 = d[k + 1]
        if 4 * dk1 * d[k - 1] < 3 * dk * dk - 4 * t * t:
            # Lovász's condition fails: swap b[k - 1] and b[k]
            b[k], b[k - 1] = b[k - 1], b[k]
            lk[: k - 1], lp[: k - 1] = lp[: k - 1], lk[: k - 1]
            new = (d[k - 1] * dk1 + t * t) // dk
            for i in range(k + 1, kmax + 1):
                li = lam[i]
                v = li[k]
                w = (dk1 * li[k - 1] - t * v) // dk
                li[k] = w
                li[k - 1] = (new * v + t * w) // dk1
            d[k] = new
            if k > 1:
                k -= 1
        else:
            for j in range(k - 2, -1, -1):
                t, dj = lk[j], d[j + 1]
                if 2 * abs(t) > dj:
                    q = (2 * t + dj) // (2 * dj)
                    b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                    lk[j] = t - q * dj
                    lj = lam[j]
                    for i in range(j):
                        lk[i] -= q * lj[i]
            k += 1
