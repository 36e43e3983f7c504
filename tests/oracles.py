"""Independent reference implementations, used only to cross-check the package.

These deliberately avoid the package's own eliminations and its integer
evaluation: rank and kernels come from a plain Gauss-Jordan reduction with
Fraction arithmetic, integer kernel bases also from the fraction-free
Gauss-Jordan pass that the package's back-substitution replaced,
modular echelon forms from the entry-by-entry elimination on lists that
the package's packed rows replaced,
determinants from cofactor expansion,
the values of a matrix of linear forms entry by entry from its cells
(the coefficient vectors of its entries, the layout the package stored
before its integer slices ``M_t``),
the generic rank of a matrix of linear forms from symbolic cofactor
minors, the cycle-complex differentials from Koszul matrices built entry
by entry and solved by Gauss-Jordan, the complement corners by an
all-pairs dominance scan of a box (the package reads them off the
coordinates of the region's parts instead) and by the two-block closed
form, and
polynomial gcds by the primitive subresultant PRS.

The symbolic expansions the package no longer ships live here too:

* :func:`substitute_targets`, ``delta(f_0, .., f_n)`` expanded term by term,
  against which the grid certificate ``verify_implicit`` is checked;
* :func:`cycle_polys`, a cycle basis written out as polynomial syzygies;
* :func:`compositions_vanish`, the products ``d_q d_(q+1)`` of a strand's
  differentials expanded as matrices of quadratic forms;
* :func:`divides` and :func:`poly_pow`, which the gcd tests and the PRS use;
* :func:`long_division`, exact division that copies and rescans the whole
  remainder for each quotient term, which the package's one-pass
  ``exact_div`` replaced;
* :func:`parse_poly_oracle`, :func:`add_oracle` and
  :func:`normalize_poly_oracle` (with :func:`_primitive_factor`), the
  package's parser, sum and two-branch normalisation before each took one
  route, copied verbatim to compare those routes with;
* :func:`bareiss_eager`, the package's fraction-free elimination before
  it left rows with a zero in the pivot column unscaled, copied verbatim:
  every row below a pivot is updated at every step;
* :func:`det_on_columns_canonical`, a minor of a linear-form matrix
  interpolated on its canonical columns, which the package now takes on
  an LLL-reduced basis of their saturated lattice instead; it is that old
  route, the package's Bareiss on the original entries, one
  ``Slices.evaluate`` per grid point in strand-basis order and
  :func:`interpolate_simplex_oracle`, the interpolation keyed by exponent
  tuples, kept to compare the package's walked grid and its interpolation
  on cached index lines with.

:func:`lll_saturation_violation` checks that reduced basis with Fraction
Gram-Schmidt coefficients and cofactor minors.
"""

from fractions import Fraction
from itertools import combinations, product, repeat
from math import comb, factorial, gcd, lcm
from operator import mul

from mgimplicit.linalg import Slices, _bareiss
from mgimplicit.multipoly import (
    MultiPoly,
    PolyParseError,
    _eval_terms,
    _tokenize,
    _whole,
    exact_div,
    normalize_poly,
    target_ring,
)
from mgimplicit.regions import _check_gamma, region_RB, strand_basis


def rref(rows):
    """Reduced row echelon form over Q by naive Gauss-Jordan.

    Returns (rref rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def rank_oracle(rows, ncols=None):
    return len(rref(rows)[1])


def nullspace_oracle(rows, ncols):
    """Kernel basis read off the RREF: one vector per free column, with a 1
    at the free column (the canonical basis, same convention the package
    promises)."""
    if not rows:
        basis = []
        for j in range(ncols):
            v = [0] * ncols
            v[j] = 1
            basis.append(v)
        return basis
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append([int(x) if x.denominator == 1 else x for x in v])
    return basis


def bareiss_eager(work, cols):
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


def bareiss_gauss_jordan(work, cols):
    """Fraction-free Gauss-Jordan elimination of the integer rows ``work``,
    in place (Nakos, Turner & Williams, SIGSAM Bull. 31, 1997): the
    package's forward Bareiss pass that also clears the rows above each
    pivot, after which every pivot equals the last one.  Returns the pivot
    columns and the row-swap sign, which must be the forward pass's."""
    rows = len(work)
    pivot_cols = []
    sign = 1
    prev = 1
    pr = 0
    for pc in range(cols):
        pivot_at = next((i for i in range(pr, rows) if work[i][pc]), None)
        if pivot_at is None:
            continue
        if pivot_at != pr:
            work[pr], work[pivot_at] = work[pivot_at], work[pr]
            sign = -sign
        row_p = work[pr]
        piv = row_p[pc]
        for i in range(rows):
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


def nullspace_gauss_jordan(m):
    """The kernel basis of the ``QMatrix`` ``m`` as ``(den, vectors)``, the
    way the package read it off before it back-substituted: every pivot of
    the :func:`bareiss_gauss_jordan` rows is one integer ``d``, and ``d``
    times the canonical vector for free column ``fc`` is ``d`` at ``fc`` and
    minus the reduced rows' column ``fc`` at the pivot columns."""
    work = [row[:] for row in m.data]
    pivots, _ = bareiss_gauss_jordan(work, m.cols)
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


def echelon_mod_oracle(rows, cols, p):
    """Fraction-free row echelon form modulo the prime ``p`` of the integer
    rows ``rows``, one entry at a time on lists: each row below a pivot
    ``piv`` becomes ``piv`` times itself minus its head times the pivot row.
    Returns the pivot columns and the pivot rows, reduced modulo ``p``."""
    rows = [[x % p for x in row] for row in rows]
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
    return pivots, rows[:r]


def det_cofactor(rows):
    """Determinant by Laplace expansion along the first row (exact)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            total += sign * Fraction(rows[0][j]) * det_cofactor(minor)
        sign = -sign
    return total


def lll_saturation_violation(vectors, found):
    """Why ``found``, what ``linalg.saturated_basis`` returned for the
    integer vectors ``vectors``, is wrong, or ``None`` when it is right.

    Dependent vectors (over Q) must give ``None``.  Otherwise ``found`` is
    ``(basis, coords)``: ``k`` integer vectors spanning the same Q-space,
    saturated (for ``k <= 4``, the gcd of their ``k x k`` minors is 1, so
    they span every integer vector of that space), LLL-reduced at ``delta
    = 3/4`` (``|mu_ij| <= 1/2`` and ``|b*_i|^2 >= (3/4 - mu_(i,i-1)^2)
    |b*_(i-1)|^2``, with exact Fraction Gram-Schmidt), and ``k`` increasing
    coordinates on which the input has rank ``k``."""
    k = len(vectors)
    independent = k == 0 or rank_oracle(vectors) == k
    if not independent:
        return None if found is None else "dependent vectors gave a basis"
    if found is None:
        return "independent vectors were called dependent"
    basis, coords = found
    m = len(vectors[0]) if k else 0
    if len(basis) != k or any(len(b) != m or not all(type(x) is int for x in b) for b in basis):
        return f"not {k} integer vectors of length {m}"
    if len(coords) != k or list(coords) != sorted(set(coords)) or any(not 0 <= c < m for c in coords):
        return f"coordinates {coords} are not {k} increasing coordinates"
    if k and rank_oracle([[v[c] for c in coords] for v in vectors]) != k:
        return f"the input is singular on the coordinates {coords}"
    if k and rank_oracle(list(vectors) + list(basis)) != k:
        return "the basis spans another space"
    if 1 <= k <= 4:
        g = 0
        for cols in combinations(range(m), k):
            g = gcd(g, int(det_cofactor([[b[c] for c in cols] for b in basis])))
            if g == 1:
                break
        if g != 1:
            return f"the k x k minors have gcd {g}: the basis is not saturated"
    # Gram-Schmidt over Q
    star, norms = [], []
    for i, b in enumerate(basis):
        v = [Fraction(x) for x in b]
        mus = []
        for s, n in zip(star, norms):
            mu = sum(map(mul, b, s)) / n
            mus.append(mu)
            v = [x - mu * y for x, y in zip(v, s)]
        if any(abs(mu) > Fraction(1, 2) for mu in mus):
            return f"vector {i} is not size-reduced: mu {mus}"
        n = sum(x * x for x in v)
        if i and n < (Fraction(3, 4) - mus[-1] ** 2) * norms[-1]:
            return f"Lovasz's condition fails at vector {i}"
        star.append(v)
        norms.append(n)
    return None


def _stirling_first(top):
    """Signed Stirling numbers of the first kind ``s[k][j]``, ``k <= top``:
    ``x (x-1) ... (x-k+1) = sum_j s[k][j] x^j``."""
    s = [[1]]
    for k in range(top):
        prev = s[k] + [0]
        s.append([(prev[j - 1] if j else 0) - k * prev[j] for j in range(k + 2)])
    return s


def interpolate_simplex_oracle(values, top):
    """Integer coefficients ``{e: c}`` of the form of degree ``top`` with
    integer coefficients that takes ``values[e]`` at every monomial ``e`` of
    degree ``top`` (the strand basis), each monomial evaluated at its own
    exponents with ``T_0 = 1``: Newton coefficients by forward differences
    along the lines that trade ``T_0`` for one ``T_t``, then monomial
    coefficients by Stirling numbers of the first kind.  The lines are
    rebuilt from the exponent tuples that key ``values`` on every call;
    the package reads the same lines as positions in its walk order
    instead, built once per number of variables and degree.
    """
    vals = dict(values)
    # per t >= 1, each line from a monomial free of T_t, in increasing T_t
    lines = [
        [[(e[0] - k,) + e[1:t] + (k,) + e[t + 1:] for k in range(e[0] + 1)] for e in vals if not e[t]]
        for t in range(1, len(next(iter(vals))))
    ]
    for axis_lines in lines:
        for line in axis_lines:
            v = [vals[e] for e in line]
            for t in range(1, len(v)):
                for k in range(len(v) - 1, t - 1, -1):
                    v[k] -= v[k - 1]
            for k, e in enumerate(line):
                vals[e] = v[k] // factorial(k)
    stirling = _stirling_first(top)
    for axis_lines in lines:
        for line in axis_lines:
            v = [vals[e] for e in line]
            for j, e in enumerate(line):
                vals[e] = sum(stirling[k][j] * v[k] for k in range(j, len(v)))
    return {e: c for e, c in vals.items() if c}


def det_on_columns_canonical(m, cols, rows):
    """The exact signed determinant of ``den * m`` on ``cols`` and
    ``rows`` interpolated on the canonical columns themselves: one
    integer determinant of ``sum_t T_t M_t`` per monomial of degree
    ``len(rows)`` of the target ring, each at its own exponents with ``T_0
    = 1``, then the simplex interpolation, checked at one more point."""
    cols, rows = list(cols), list(rows)
    size = len(rows)
    ring = target_ring(m.target_names)
    if size == 0:
        return MultiPoly.constant(ring, 1)
    sub = Slices([[[s[r][c] for c in cols] for r in rows] for s in m.slices], size, size)

    def det_at(point):
        work = sub.evaluate(point)
        pivots, sign = _bareiss(work, size)
        return sign * work[-1][-1] if len(pivots) == size else 0

    values = {e: det_at((1,) + e[1:]) for e in strand_basis(ring.blocks, (size,))}
    terms = interpolate_simplex_oracle(values, size)
    check = [2] + [2 * (size + t) + 1 for t in range(1, ring.nvars)]
    assert _eval_terms(terms, check) == det_at(check)
    return MultiPoly(ring, terms)


def cells(m):
    """The entries of the linear-form matrix ``m = sum_t T_t M_t / den``
    cell by cell: ``cells(m)[i][j][t]`` is ``M_t[i][j]``, the coefficient
    of ``T_t`` in entry ``(i, j)`` over ``m.den``."""
    return [[[s[i][j] for s in m.slices] for j in range(m.cols)] for i in range(m.rows)]


def slices_of(cells, ntargets):
    """The slices ``M_t`` of the matrix whose cells are ``cells``; the
    inverse of :func:`cells` for ``ntargets`` target variables."""
    return [[[cell[t] for cell in row] for row in cells] for t in range(ntargets)]


def specialize_cells(cells, values):
    """``den * m`` at ``T_t = values[t]``, evaluated cell by cell: the
    reference for ``LinearFormMatrix.specialize``, which sums slices."""
    return [[sum(map(mul, cell, values)) for cell in row] for row in cells]


def det_cofactor_poly(entries):
    """Cofactor determinant of a matrix of MultiPoly entries (tiny sizes only)."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = None
    sign = 1
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in entries[1:]]
        piece = entries[0][j] * det_cofactor_poly(minor)
        piece = piece if sign > 0 else -piece
        total = piece if total is None else total + piece
        sign = -sign
    return total


def symbolic_rank_oracle(matrix, ring):
    """Rank of a linear-form matrix over the function field of its target
    variables: the largest k with a symbolically nonzero k x k minor."""
    entries = [[matrix.entry_poly(i, j, ring) for j in range(matrix.cols)] for i in range(matrix.rows)]
    for k in range(min(matrix.rows, matrix.cols), 0, -1):
        for rows_pick in combinations(range(matrix.rows), k):
            for cols_pick in combinations(range(matrix.cols), k):
                sub = [[entries[i][j] for j in cols_pick] for i in rows_pick]
                if not det_cofactor_poly(sub).is_zero():
                    return k
    return 0


def koszul_matrix_oracle(inst, q, nu):
    """The q-th Koszul differential on the q-chains whose coefficients have
    multidegree ``nu``, built entry by entry from its definition on the
    forms ``inst.f``, as ``(rows, cols)``: the entries as lists, and the
    column count, over (subset, monomial) pairs, subset-major."""
    mons = strand_basis(inst.blocks, nu)
    n1 = len(inst.f)
    cols = [(S, u) for S in combinations(range(n1), q) for u in mons]
    up = strand_basis(inst.blocks, tuple(a + b for a, b in zip(nu, inst.gamma)))
    rows = [(T, w) for T in combinations(range(n1), q - 1) for w in up]
    row_of = {key: r for r, key in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in row_of]
    for c, (S, u) in enumerate(cols):
        for pos, j in enumerate(S):
            T = tuple(x for x in S if x != j)
            for e, coef in inst.f[j].terms.items():
                w = tuple(a + b for a, b in zip(u, e))
                matrix[row_of[T, w]][c] += (-1) ** pos * coef
    return matrix, len(cols)


def koszul_cycles_oracle(inst, q, nu):
    """Canonical basis of the Koszul q-cycles whose coefficients have
    multidegree ``nu``, over (subset, monomial) pairs, subset-major: the
    kernel of :func:`koszul_matrix_oracle`, read off the Gauss-Jordan
    RREF."""
    if q == 0:
        return nullspace_oracle([], len(strand_basis(inst.blocks, nu)))
    return nullspace_oracle(*koszul_matrix_oracle(inst, q, nu))


def solve_in_basis_oracle(basis, ws):
    """For each ``w`` in ``ws`` the coordinates ``x`` with ``sum_t x[t] *
    basis[t] == w``, by one Gauss-Jordan reduction of the system augmented
    with every ``w``; raises ValueError when some ``w`` is not in the span."""
    k = len(basis)
    n = len(ws[0]) if ws else 0
    m, pivots = rref([[b[i] for b in basis] + [w[i] for w in ws] for i in range(n)])
    if any(pc >= k for pc in pivots):
        raise ValueError("vector outside the span of the basis")
    out = [[Fraction(0)] * k for _ in ws]
    for r, pc in enumerate(pivots):
        for x, v in zip(out, m[r][k:]):
            x[pc] = v
    return out


def cycle_differentials_oracle(inst, nu):
    """The :func:`cells` of every differential of the degree-``nu`` cycle-complex
    strand: the q-th maps q-cycle ``c`` to ``sum_j T_j * x_j`` where ``x_j``
    solves the contraction of ``c`` by ``e_j`` against the (q-1)-cycle
    basis; ``cells[t][c][j]`` is the t-th coordinate of ``x_j``."""
    n1 = len(inst.f)
    lm = len(strand_basis(inst.blocks, nu))
    bases = [koszul_cycles_oracle(inst, q, nu) for q in range(n1)]
    out = []
    for q in range(1, n1):
        subsets = list(combinations(range(n1), q))
        lower = {T: i for i, T in enumerate(combinations(range(n1), q - 1))}
        images = []
        for v in bases[q]:
            for j in range(n1):
                w = [0] * (len(lower) * lm)
                for si, S in enumerate(subsets):
                    if j in S:
                        ti = lower[tuple(x for x in S if x != j)]
                        for ui in range(lm):
                            w[ti * lm + ui] += (-1) ** S.index(j) * v[si * lm + ui]
                images.append(w)
        xs = solve_in_basis_oracle(bases[q - 1], images)
        out.append(
            [
                [[xs[c * n1 + j][t] for j in range(n1)] for c in range(len(bases[q]))]
                for t in range(len(bases[q - 1]))
            ]
        )
    return out


# --------------------------------------------------------------------------
# symbolic expansions

def substitute_targets(p, images):
    """``p`` with its ``k``-th variable replaced by ``images[k]``, expanded
    term by term (powers of each image are computed once)."""
    images = list(images)
    if len(images) != p.ring.nvars:
        raise ValueError(f"arity mismatch: {p.ring.nvars} target variables, {len(images)} images")
    ring = images[0].ring
    powers = [[MultiPoly.constant(ring, 1)] for _ in images]
    total = MultiPoly.zero(ring)
    for exps, c in p.terms.items():
        term = MultiPoly.constant(ring, c)
        for col, image, e in zip(powers, images, exps):
            while len(col) <= e:
                col.append(col[-1] * image)
            if e:
                term = term * col[e]
        total = total + term
    return total


def cycle_polys(cx, q):
    """The q-cycle basis of the strand complex ``cx`` as syzygies: for each
    basis vector, one polynomial of multidegree ``cx.nu`` in the parameter
    ring per size-q subset."""
    den, vectors = cx.cycles(q)
    mons = cx.monomials
    lm = len(mons)
    return [
        tuple(
            MultiPoly.from_terms(cx.inst.ring, ((m, Fraction(v[si * lm + ui], den)) for ui, m in enumerate(mons)))
            for si in range(comb(len(cx.inst.f), q))
        )
        for v in vectors
    ]


def compositions_vanish(diffs):
    """Whether every product ``d_q d_(q+1)`` of consecutive linear-form
    matrices in ``diffs`` expands to the zero matrix of quadratic forms."""
    for a, b in zip(diffs, diffs[1:]):
        if a.cols != b.rows:
            raise ValueError("composition shape mismatch")
        ring = target_ring(a.target_names)
        pa = [[a.entry_poly(i, j, ring) for j in range(a.cols)] for i in range(a.rows)]
        pb = [[b.entry_poly(j, k, ring) for k in range(b.cols)] for j in range(b.rows)]
        zero = MultiPoly.zero(ring)
        if any(
            sum((pa[i][j] * pb[j][k] for j in range(a.cols)), zero)
            for i in range(a.rows)
            for k in range(b.cols)
        ):
            return False
    return True


def divides(q, p):
    """Whether ``q`` divides ``p`` exactly."""
    try:
        exact_div(p, q)
    except ValueError:
        return False
    return True


def long_division(p, q):
    """``p / q`` by long division on leading terms, subtracting each
    quotient term times ``q`` from a new remainder polynomial; raises
    ``ValueError`` when ``q`` does not divide ``p``."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lq_e, lq_c = q.leading()
    quot = {}
    r = p
    while r.terms:
        lr_e, lr_c = r.leading()
        diff = tuple(a - b for a, b in zip(lr_e, lq_e))
        if min(diff) < 0:
            raise ValueError("inexact polynomial division")
        c = Fraction(lr_c) / Fraction(lq_c)
        quot[diff] = c.numerator if c.denominator == 1 else c
        r = r - q * MultiPoly.monomial(p.ring, diff, c)
    return MultiPoly(p.ring, quot)


def poly_pow(p, k):
    """``p`` to the power ``k >= 0``, by repeated multiplication."""
    out = MultiPoly.constant(p.ring, 1)
    for _ in range(k):
        out = out * p
    return out


# --------------------------------------------------------------------------
# the parser, sum and normalisation the package replaced

def parse_poly_oracle(text, ring):
    """The package's parser before it read tokens through ``take`` and
    ``expect`` after one end token: it computes the end-of-text position
    at each of its three uses, checks the term separator after a bare
    constant and after a product separately, and peeks with bounds checks.
    Same grammar, messages and positions."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text")
    n = len(tokens)
    i = 0
    terms = []

    def peek(kind):
        return i < n and tokens[i][0] == kind

    def peek_op(op):
        return i < n and tokens[i][0] == "op" and tokens[i][1] == op

    while i < n:
        sign = 1
        if peek_op("+") or peek_op("-"):
            if tokens[i][1] == "-":
                sign = -1
            i += 1
            if i >= n:
                raise PolyParseError("dangling sign", tokens[i - 1][2])
        coeff = Fraction(1)
        exps = [0] * ring.nvars
        if peek("int"):
            num = int(tokens[i][1])
            i += 1
            if peek_op("/"):
                i += 1
                if not peek("int"):
                    pos = tokens[i][2] if i < n else len(tokens[-1][1]) + tokens[-1][2]
                    raise PolyParseError("expected denominator after '/'", pos)
                den = int(tokens[i][1])
                if den == 0:
                    raise PolyParseError("zero denominator", tokens[i][2])
                i += 1
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            if peek_op("*"):
                i += 1
            else:
                # bare constant term
                terms.append((tuple(exps), sign * coeff))
                if i < n and not (peek_op("+") or peek_op("-")):
                    raise PolyParseError("expected '+' or '-' between terms", tokens[i][2])
                continue
        while True:
            if not peek("name"):
                pos = tokens[i][2] if i < n else tokens[-1][2] + len(tokens[-1][1])
                raise PolyParseError("expected a variable name", pos)
            name = tokens[i][1]
            var = ring.index.get(name)
            if var is None:
                raise PolyParseError(
                    f"unknown variable {name!r} for this ring (expected one of {', '.join(ring.names)})",
                    tokens[i][2],
                )
            i += 1
            power = 1
            if peek_op("^"):
                i += 1
                if not peek("int"):
                    pos = tokens[i][2] if i < n else tokens[-1][2] + len(tokens[-1][1])
                    raise PolyParseError("malformed exponent: expected a non-negative integer", pos)
                power = int(tokens[i][1])
                i += 1
            exps[var] += power
            if peek_op("*"):
                i += 1
                continue
            break
        terms.append((tuple(exps), sign * coeff))
        if i < n and not (peek_op("+") or peek_op("-")):
            raise PolyParseError("expected '+' or '-' between terms", tokens[i][2])
    return MultiPoly.from_terms(ring, terms)


def add_oracle(self, other):
    """``self + other`` by the package's sum before it went through
    ``MultiPoly.from_terms``: a copy of the term map of ``self``, updated
    term by term with those of ``other``."""
    if isinstance(other, (int, Fraction)):
        other = MultiPoly.constant(self.ring, other)
    self._check_ring(other)
    acc = dict(self.terms)
    for e, c in other.terms.items():
        c0 = acc.get(e, 0) + c
        if c0:
            acc[e] = _whole(c0)
        else:
            acc.pop(e, None)
    return MultiPoly(self.ring, acc)


def _primitive_factor(coeffs):
    """The positive rational that scales ``coeffs`` to coprime integers:
    lcm of the denominators over gcd of the cleared numerators (1 when
    every coefficient is zero)."""
    coeffs = list(coeffs)
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    num = 0
    for c in coeffs:
        num = gcd(num, int(c * den))
    return Fraction(den, num) if num else 1


def normalize_poly_oracle(p):
    """The package's normalisation before its single route: ``int``
    coefficients divided by their gcd with ``//``, rational ones scaled by
    :func:`_primitive_factor`; positive leading coefficient."""
    if p.is_zero():
        return p
    _, lead = p.leading()
    if all(map(isinstance, p.terms.values(), repeat(int))):
        g = gcd(*p.terms.values())
        if lead < 0:
            g = -g
        return MultiPoly(p.ring, {e: c // g for e, c in p.terms.items()})
    factor = _primitive_factor(p.terms.values())
    if lead < 0:
        factor = -factor
    return p.scale(factor)


def complement_corners_oracle(blocks, gamma):
    """Componentwise-minimal complement points in the box ``[0, bound]^s``,
    ``bound = sum(r_i + 1) * max(gamma)`` (generous on purpose: no corner
    coordinate exceeds ``sum(r_i) * max(gamma)``), in two phases,
    assuming nothing about the shape of the region: a local prefilter (no
    complement point one step down), then a full dominance check of each
    survivor against every complement point."""
    region = region_RB(blocks, gamma)
    bound = sum(ri + 1 for ri in blocks.r) * max(gamma)
    outside = [
        mu for mu in product(range(bound + 1), repeat=blocks.s) if not region.contains(mu)
    ]
    outside_set = set(outside)
    candidates = [
        p
        for p in outside
        if all(
            p[j] == 0 or p[:j] + (p[j] - 1,) + p[j + 1 :] not in outside_set
            for j in range(blocks.s)
        )
    ]
    corners = [
        p
        for p in candidates
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in outside)
    ]
    return sorted(corners)


def corners_closed_form_2blocks(blocks, gamma):
    """Closed form of the complement corners for two blocks P^r x P^s with
    r, s >= 1 and degree (a, b): ``{(ra - r, rb + sb - s), (ra + sa - r, sb - s)}``."""
    if blocks.s != 2:
        raise ValueError("closed form only applies to two blocks")
    r, s = blocks.r
    if r < 1 or s < 1:
        raise ValueError("closed form needs positive block dimensions")
    _check_gamma(blocks, gamma)
    a, b = gamma
    return sorted([(r * a - r, r * b + s * b - s), (r * a + s * a - r, s * b - s)])


# --------------------------------------------------------------------------
# polynomial gcd, by the primitive subresultant PRS

def _active_vars(p):
    active = set()
    for e in p.terms:
        for i, k in enumerate(e):
            if k:
                active.add(i)
    return active


def _deg_in(p, k):
    return max((e[k] for e in p.terms), default=-1)


def _univariate_coeffs(p, k):
    """View ``p`` as univariate in variable ``k``: degree -> coefficient poly."""
    out = {}
    for e, c in p.terms.items():
        d = e[k]
        stripped = e[:k] + (0,) + e[k + 1 :]
        bucket = out.setdefault(d, {})
        bucket[stripped] = bucket.get(stripped, 0) + c
    return {d: MultiPoly(p.ring, t) for d, t in out.items()}


def _coeff_in(p, k, d):
    t = {}
    for e, c in p.terms.items():
        if e[k] == d:
            t[e[:k] + (0,) + e[k + 1 :]] = c
    return MultiPoly(p.ring, t)


def _mul_var_pow(p, k, d):
    if d == 0:
        return p
    return MultiPoly(p.ring, {e[:k] + (e[k] + d,) + e[k + 1 :]: c for e, c in p.terms.items()})


def _abs_lead(p):
    if p.is_zero():
        return p
    _, lead = p.leading()
    return -p if lead < 0 else p


def _prem(f, g, k):
    """Pseudo-remainder of ``f`` by ``g``, both univariate in variable ``k``."""
    d2 = _deg_in(g, k)
    lc2 = _coeff_in(g, k, d2)
    r = f
    n = _deg_in(f, k) - d2 + 1
    while r.terms and _deg_in(r, k) >= d2:
        dr = _deg_in(r, k)
        lr = _coeff_in(r, k, dr)
        r = r * lc2 - _mul_var_pow(lr, k, dr - d2) * g
        n -= 1
    if n > 0:
        r = r * poly_pow(lc2, n)
    return r


def _content_primitive(p, k):
    coeffs = _univariate_coeffs(p, k)
    cont = MultiPoly.zero(p.ring)
    for d in sorted(coeffs):
        cont = _gcd_z(cont, coeffs[d])
        if cont == 1:
            break
    return cont, exact_div(p, cont)


def _gcd_z(p, q):
    """Gcd of integer-coefficient polynomials, by primitive subresultant PRS
    in the highest active variable (positive-leading normalization)."""
    if p.is_zero():
        return _abs_lead(q)
    if q.is_zero():
        return _abs_lead(p)
    active = _active_vars(p) | _active_vars(q)
    if not active:
        a = int(next(iter(p.terms.values())))
        b = int(next(iter(q.terms.values())))
        return MultiPoly.constant(p.ring, gcd(a, b))
    k = max(active)
    cont_p, pp_p = _content_primitive(p, k)
    cont_q, pp_q = _content_primitive(q, k)
    d = _gcd_z(cont_p, cont_q)
    f1, f2 = (pp_p, pp_q) if _deg_in(pp_p, k) >= _deg_in(pp_q, k) else (pp_q, pp_p)
    if _deg_in(f2, k) == 0:
        # primitive w.r.t. x_k and constant in it: a unit
        return d
    one = MultiPoly.constant(p.ring, 1)
    g = h = one
    while True:
        delta = _deg_in(f1, k) - _deg_in(f2, k)
        rem = _prem(f1, f2, k)
        if rem.is_zero():
            cand = f2
            break
        if _deg_in(rem, k) == 0:
            cand = None
            break
        f1, f2 = f2, exact_div(rem, g * poly_pow(h, delta))
        g = _coeff_in(f1, k, _deg_in(f1, k))
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_div(poly_pow(g, delta), poly_pow(h, delta - 1))
    if cand is None:
        return d
    _, pp_cand = _content_primitive(cand, k)
    return _abs_lead(d * pp_cand)


def gcd_poly(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """A gcd of ``p`` and ``q``, integer-primitive with positive leading
    coefficient; ``gcd(p, 0) = normalize(p)`` and ``gcd(0, 0) = 0``."""
    p._check_ring(q)
    if p.is_zero() and q.is_zero():
        return p
    g = _gcd_z(normalize_poly(p), normalize_poly(q))
    return normalize_poly(g)
