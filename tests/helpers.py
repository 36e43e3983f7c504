"""Shared test data and generators."""

from fractions import Fraction
from operator import mul

from hypothesis import assume
from hypothesis import strategies as st

from mgimplicit import MultiPoly, ProblemInstance, QMatrix, StrandComplex, parameter_ring, parse_poly, strand_basis
from mgimplicit.regions import BlockStructure
from oracles import rank_oracle

# the four bidegree-(2, 2) forms of the worked bigraded surface example
GOLDEN_BLOCKS = [["s", "u"], ["t", "v"]]
GOLDEN_TARGETS = ["X_0", "X_1", "X_2", "X_3"]
GOLDEN_F = [
    "3*s^2*t*v-2*s*u*t^2-s^2*v^2+s*u*t*v-3*s*u*v^2-u^2*t*v+4*u^2*v^2-u^2*t^2",
    "3*s^2*t*v-s^2*v^2-3*s*u*t*v-s*u*v^2+u^2*t*v+u^2*t^2+u^2*t^2+s^2*t^2",
    "2*s^2*t^2-3*s^2*t*v-s^2*v^2+s*u*t*v+3*s*u*v^2-3*u^2*t*v+2*u^2*v^2-u^2*t^2",
    "2*s^2*t^2-3*s^2*t*v-2*s*u*t^2+s^2*v^2+5*s*u*t*v-3*s*u*v^2-3*u^2*t*v+4*u^2*v^2-u^2*t^2",
]
# leading coefficient run of the published degree-8 implicit equation,
# on X_0^8, X_0^7 X_1, ..., X_0^2 X_1^6
GOLDEN_COEFFS = [63569053, -159051916, 175350068, -82733240, 2363584, 14285376, 139968]


def golden_instance():
    ring = parameter_ring(GOLDEN_BLOCKS)
    return ProblemInstance.from_polys(
        [parse_poly(f, ring) for f in GOLDEN_F], target_names=GOLDEN_TARGETS
    )


def random_poly(ring, blocks, degree, rng, lo=-5, hi=5):
    """Random nonzero multihomogeneous polynomial of the given multidegree."""
    mons = strand_basis(blocks, degree)
    while True:
        terms = {m: rng.randint(lo, hi) for m in mons}
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            return MultiPoly(ring, terms)


def random_instance(blocks, degree, npolys, rng):
    """Random instance of ``npolys`` forms of multidegree ``degree`` over the
    variable blocks ``blocks``."""
    ring = parameter_ring(blocks)
    structure = BlockStructure(tuple(len(names) - 1 for names in blocks))
    return ProblemInstance.from_polys(
        [random_poly(ring, structure, degree, rng) for _ in range(npolys)]
    )


def random_p1p1_instance(a, b, rng, npolys=4):
    """Random instance of ``npolys`` bidegree-(a, b) forms on P^1 x P^1."""
    ring = parameter_ring(GOLDEN_BLOCKS)
    blocks = BlockStructure((1, 1))
    polys = [random_poly(ring, blocks, (a, b), rng) for _ in range(npolys)]
    return ProblemInstance.from_polys(polys, target_names=GOLDEN_TARGETS[:npolys])


def over(den, vectors):
    """``vectors / den`` entry by entry: the rational vectors that integer
    ``vectors`` over the common denominator ``den`` stand for."""
    return [[Fraction(x, den) for x in v] for v in vectors]


def identity(n):
    return QMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def mat_mul(a, b):
    """The rows of the product of two ``QMatrix`` values."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    cols = list(zip(*b.data)) if b.rows else [()] * b.cols
    return [[sum(map(mul, row, col)) for col in cols] for row in a.data]


def mat_vec(m, v):
    return [sum(map(mul, row, v)) for row in m.data]


def differentials(inst, nu):
    """The differentials ``d_1, .., d_n`` of the degree-``nu`` strand of the
    cycle complex, read off one :class:`~mgimplicit.StrandComplex`, each
    built when the iterator reaches it."""
    return map(StrandComplex(inst, nu).differential, range(1, inst.n + 1))


def strand_dims(diffs):
    """Dimensions of the terms of a strand complex, read off the shapes of
    its differentials ``d_1, d_2, ..``."""
    return [diffs[0].rows] + [d.cols for d in diffs]


def random_matrix(rows, cols, rng, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def base_locus_probably_empty(inst, rng, samples=500):
    """Probabilistic check that the forms have no common zero: at ``samples``
    random points (no block identically zero), some form is nonzero."""
    from mgimplicit import eval_at
    from mgimplicit.implicitize import sample_parameter_point

    for _ in range(samples):
        point = dict(zip(inst.ring.names, sample_parameter_point(inst.ring, rng)))
        if all(eval_at(f, point) == 0 for f in inst.f):
            return False
    return True


# parameter spaces of the Cayley-formula property: (variable blocks, the
# multidegrees drawn from).  The gcd oracle bounds the sizes: the gcd of the
# seven 6x6 minors of a P^1 x P^1 x P^1 strand with a base point takes about
# 25 s and the 84 minors of a plane quadric net are too many, so three blocks
# come without base points and P^2 only in degree 1.
CAYLEY_SPACES = [
    ([["s", "u"]], [(1,), (2,), (3,)]),
    ([["x", "y", "z"]], [(1,)]),
    ([["s", "u"], ["t", "v"]], [(1, 1), (1, 2), (2, 1)]),
    ([["a", "b"], ["c", "d"], ["e", "f"]], [(1, 1, 1)]),
]


@st.composite
def cayley_instances(draw):
    """A hypersurface instance with nonzero coefficients in [-9, 9] on one to
    three blocks; on one or two blocks the forms may omit the pure powers of
    the last variables (one per block), which forces a base point there, kept
    only when it is simple: in the chart of those variables the forms'
    linear parts have full rank, as for the benchmark's instances."""
    blocks, degrees = draw(st.sampled_from(CAYLEY_SPACES))
    gamma = draw(st.sampled_from(degrees))
    ring = parameter_ring(blocks)
    structure = BlockStructure(tuple(len(b) - 1 for b in blocks))
    mons = strand_basis(structure, gamma)
    dropped = []
    if len(blocks) < 3:
        # the pure power of the last variable of every block, or of the first
        for end in draw(st.sets(st.sampled_from([-1, 0]), max_size=2)):
            exps = []
            for names, g in zip(blocks, gamma):
                block = [0] * len(names)
                block[end] = g
                exps += block
            dropped.append(tuple(exps))
    nonzero = st.integers(-9, 9).filter(bool)
    coeffs = [
        {e: draw(nonzero) for e in mons if e not in dropped} for _ in range(sum(structure.r) + 2)
    ]
    for exps in dropped:
        assume(_linear_parts_rank(ring, exps, coeffs) == sum(structure.r))
    return ProblemInstance.from_polys([MultiPoly(ring, c) for c in coeffs])


def _linear_parts_rank(ring, exps, coeffs):
    """Rank of the forms' linear parts at the base point forced by dropping
    the monomial ``exps``: moving one degree from each block's power
    variable to another variable of the block gives the linear monomials."""
    shifted = []
    for start, stop in ring.block_slices:
        chart = next(k for k in range(start, stop) if exps[k])
        for j in range(start, stop):
            if j != chart:
                m = list(exps)
                m[j] += 1
                m[chart] -= 1
                shifted.append(tuple(m))
    return rank_oracle([[c.get(m, 0) for m in shifted] for c in coeffs])
