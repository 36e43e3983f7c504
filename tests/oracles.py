"""Independent reference implementations, used only to cross-check the package.

These deliberately avoid the package's fraction-free elimination: rank and
kernels come from a plain Gauss-Jordan reduction with Fraction arithmetic,
determinants from cofactor expansion, the generic rank of a matrix of
linear forms from symbolic cofactor minors, the cycle-complex
differentials from Koszul matrices built entry by entry and solved by
Gauss-Jordan, and the complement corners by an all-pairs dominance scan.
"""

from fractions import Fraction
from itertools import combinations, product

from mgimplicit.regions import corner_scan_bound, region_RB, strand_basis


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


def koszul_cycles_oracle(inst, q, nu):
    """Canonical basis of the Koszul q-cycles whose coefficients have
    multidegree ``nu``, over (subset, monomial) pairs, subset-major: the
    Koszul matrix is built entry by entry from its definition and its kernel
    is read off the Gauss-Jordan RREF."""
    mons = strand_basis(inst.blocks, nu)
    if q == 0:
        return nullspace_oracle([], len(mons))
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
    return nullspace_oracle(matrix, len(cols))


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
    """``coeffs`` of every differential of the degree-``nu`` cycle-complex
    strand: the q-th maps q-cycle ``c`` to ``sum_j T_j * x_j`` where ``x_j``
    solves the contraction of ``c`` by ``e_j`` against the (q-1)-cycle
    basis; ``coeffs[t][c][j]`` is the t-th coordinate of ``x_j``."""
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


def complement_corners_oracle(blocks, gamma):
    """Componentwise-minimal complement points in ``[0, corner_scan_bound]^s``
    in two phases, assuming nothing about the shape of the region: a local
    prefilter (no complement point one step down), then a full dominance
    check of each survivor against every complement point."""
    region = region_RB(blocks, gamma)
    bound = corner_scan_bound(blocks, gamma)
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
