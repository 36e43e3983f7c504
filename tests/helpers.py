"""Shared test data and generators."""

from fractions import Fraction
from operator import mul

from mgimplicit import MultiPoly, ProblemInstance, QMatrix, parameter_ring, parse_poly, strand_basis
from mgimplicit.regions import BlockStructure

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


def strand_dims(diffs):
    """Dimensions of the terms of a strand complex, read off the shapes of
    its differentials ``d_1, d_2, ..``."""
    return [diffs[0].rows] + [d.cols for d in diffs]


def random_matrix(rows, cols, rng, lo=-9, hi=9, fractions=False):
    data = []
    for _ in range(rows):
        if fractions:
            data.append(
                [Fraction(rng.randint(lo, hi), rng.randint(1, 7)) for _ in range(cols)]
            )
        else:
            data.append([rng.randint(lo, hi) for _ in range(cols)])
    return data


def base_locus_probably_empty(inst, rng, samples=500):
    """Probabilistic check that the forms have no common zero: at ``samples``
    random points (no block identically zero), some form is nonzero."""
    from mgimplicit import eval_at
    from mgimplicit.implicitize import sample_parameter_point

    for _ in range(samples):
        point = sample_parameter_point(inst.ring, rng)
        if all(eval_at(f, point) == 0 for f in inst.f):
            return False
    return True
