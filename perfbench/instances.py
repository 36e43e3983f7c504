"""Seeded instances of the three benchmark workloads.

Every random instance is drawn from ``random.Random(f"{seed}/{name}")``, so
one instance does not shift when another is added, and the same seed always
gives the same polynomial text.  A draw is kept only when it has its
workload's defining property (the shape of the suggested ``M_nu``, and for
``wide_gcd`` every forced base point simple); the number of draws is kept
with the instance.

The expected values used to judge the program's outputs come from outside
the program: the multidegree formula for the determinant degree, the
published golden coefficients, the matrix shapes below, and the way each
membership query was built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial, prod
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_FILE = ROOT / "problems" / "bigraded_22.json"

# leading coefficient run of the published degree-8 implicit equation of the
# golden surface, on X_0^8, X_0^7 X_1, ..., X_0^2 X_1^6
GOLDEN_COEFFS = [63569053, -159051916, 175350068, -82733240, 2363584, 14285376, 139968]
GOLDEN_MONOMIALS = [(8 - k, k, 0, 0) for k in range(len(GOLDEN_COEFFS))]

# random coefficients are nonzero integers in [-COEFF_RANGE, COEFF_RANGE];
# nonzero so that no torus-fixed point becomes a base point by accident
COEFF_RANGE = 9
# on-surface queries use parameter points with coordinates in [-99, 99],
# off-surface queries target points with coordinates in [-10^6, 10^6]
POINT_RANGE = 99
TARGET_RANGE = 10**6
QUERIES_PER_KIND = 20
MAX_DRAWS = 50

P1P1 = (("s", "u"), ("t", "v"))
P1P1P1 = (("s0", "s1"), ("t0", "t1"), ("w0", "w1"))
P2P1 = (("x0", "x1", "x2"), ("y0", "y1"))
P2 = (("x0", "x1", "x2"),)
P3 = (("x0", "x1", "x2", "x3"),)


@dataclass(frozen=True)
class Spec:
    """One instance of a workload, before it is drawn.

    ``dropped`` lists monomials left out of every form; each one forces a
    simple base point at the torus-fixed point where it is the only
    nonvanishing monomial.  ``shape`` is the expected ``M_nu`` shape, when
    the workload fixes it.
    """

    name: str
    blocks: tuple
    gamma: tuple
    dropped: tuple = ()
    shape: tuple | None = None

    @property
    def expected_degree(self) -> int:
        """``(sum r_i)! / prod r_i! * prod gamma_i^r_i`` minus one per forced
        simple base point."""
        r = [len(b) - 1 for b in self.blocks]
        mixed = factorial(sum(r)) // prod(factorial(x) for x in r)
        return mixed * prod(g**ri for g, ri in zip(self.gamma, r)) - len(self.dropped)


SQUARE_DET = [
    Spec("golden_2_2", P1P1, (2, 2)),
    Spec("p1p1_1_2", P1P1, (1, 2)),
    Spec("p1p1_1_3", P1P1, (1, 3)),
    Spec("p1p1_3_1", P1P1, (3, 1)),
    Spec("p1p1_2_2", P1P1, (2, 2)),
    Spec("p1p1p1_1_1_1", P1P1P1, (1, 1, 1)),
    Spec("p2p1_1_1", P2P1, (1, 1)),
    Spec("p2p1_1_2", P2P1, (1, 2)),
]
WIDE_GCD = [
    # u^2 v^2 dropped: one simple base point at s = t = 0
    Spec("p1p1_2_2_bp", P1P1, (2, 2), dropped=((0, 2, 0, 2),), shape=(8, 9)),
    # u v^2 dropped: one simple base point at s = t = 0
    Spec("p1p1_1_2_bp", P1P1, (1, 2), dropped=((0, 1, 0, 2),), shape=(4, 5)),
    Spec("p2_quadrics_a", P2, (2,), shape=(6, 9)),
    Spec("p2_quadrics_b", P2, (2,), shape=(6, 9)),
]
REPRESENT = [
    Spec("p1p1_3_3", P1P1, (3, 3), shape=(18, 18)),
    Spec("p1p1_2_3", P1P1, (2, 3), shape=(12, 12)),
    Spec("p2p1_2_1", P2P1, (2, 1), shape=(15, 19)),
    Spec("p3_quadrics", P3, (2,), shape=(20, 44)),
    Spec("p1p1p1_1_1_2", P1P1P1, (1, 1, 2), shape=(12, 12)),
]
WORKLOADS = {"square_det": SQUARE_DET, "wide_gcd": WIDE_GCD, "represent": REPRESENT}


@dataclass
class Instance:
    spec: Spec
    inst: object  # mgimplicit.ProblemInstance
    texts: list
    draws: int
    nu: tuple
    # represent only: parameter points (on-surface) and target points (off-surface)
    on_points: list = field(default_factory=list)
    off_targets: list = field(default_factory=list)


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(k,) + rest for k in range(total, -1, -1) for rest in _compositions(total - k, parts - 1)]


def monomials(blocks, gamma):
    """Exponent tuples of multidegree ``gamma``, block by block."""
    out = [()]
    for names, g in zip(blocks, gamma):
        out = [e + c for e in out for c in _compositions(g, len(names))]
    return out


def _term_text(c, exps, names):
    factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k]
    return f"{c}*{'*'.join(factors)}"


def _form_text(spec, coeffs):
    names = [n for b in spec.blocks for n in b]
    return " + ".join(_term_text(c, e, names) for e, c in coeffs.items()).replace("+ -", "- ")


def _random_form_coeffs(spec, rng):
    nonzero = [k for k in range(-COEFF_RANGE, COEFF_RANGE + 1) if k]
    return {e: rng.choice(nonzero) for e in monomials(spec.blocks, spec.gamma) if e not in spec.dropped}


def _base_point_simple(spec, form_coeffs, exps):
    """The base point forced by dropping the pure-power monomial ``exps`` is
    a simple common zero: in the affine chart where each block's power
    variable is 1, the forms' linear parts have full rank."""
    shifted = []
    start = 0
    for names in spec.blocks:
        chart = next(k for k in range(start, start + len(names)) if exps[k])
        for j in range(start, start + len(names)):
            if j != chart:
                m = list(exps)
                m[j] += 1
                m[chart] -= 1
                shifted.append(tuple(m))
        start += len(names)
    return _rank([[c.get(m, 0) for m in shifted] for c in form_coeffs]) == len(shifted)


def _rank(rows):
    from fractions import Fraction

    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _accept(mg, workload, spec, inst, coeffs):
    """The workload's defining property of a drawn instance."""
    for exps in spec.dropped:
        if not _base_point_simple(spec, coeffs, exps):
            return None
    nu = tuple(mg.suggest_nu(inst.blocks, inst.gamma))
    m = mg.representation_matrix(inst, nu, warn_region=False)
    if spec.shape is not None and (m.rows, m.cols) != spec.shape:
        return None
    if workload == "square_det" and m.rows != m.cols:
        return None
    if workload == "wide_gcd" and not m.rows < m.cols:
        return None
    return nu


def draw(mg, workload, spec, seed) -> Instance:
    """Draw forms for ``spec`` until the workload's property holds."""
    rng = random.Random(f"{seed}/{spec.name}")
    ring = mg.parameter_ring(spec.blocks)
    for draws in range(1, MAX_DRAWS + 1):
        coeffs = [_random_form_coeffs(spec, rng) for _ in range(sum(len(b) - 1 for b in spec.blocks) + 2)]
        texts = [_form_text(spec, c) for c in coeffs]
        inst = mg.ProblemInstance.from_polys([mg.parse_poly(t, ring) for t in texts])
        nu = _accept(mg, workload, spec, inst, coeffs)
        if nu is not None:
            out = Instance(spec, inst, texts, draws, nu)
            if workload == "represent":
                _add_queries(out, rng)
            return out
    raise RuntimeError(f"{spec.name}: no draw with the {workload} property in {MAX_DRAWS} draws")


def _add_queries(out, rng):
    blocks = out.spec.blocks
    for _ in range(QUERIES_PER_KIND):
        point = {}
        for names in blocks:
            coords = [0]
            while not any(coords):
                coords = [rng.randint(-POINT_RANGE, POINT_RANGE) for _ in names]
            point.update(zip(names, coords))
        out.on_points.append(point)
    for _ in range(QUERIES_PER_KIND):
        out.off_targets.append([rng.randint(-TARGET_RANGE, TARGET_RANGE) for _ in range(len(out.texts))])


def golden(mg) -> Instance:
    pf = mg.load_problem(GOLDEN_FILE)
    inst = pf.instance()
    nu = tuple(mg.suggest_nu(inst.blocks, inst.gamma))
    return Instance(SQUARE_DET[0], inst, list(pf.polynomials), 1, nu)


def build(mg, workload, seed) -> list:
    """All instances of ``workload`` for ``seed``, using the package ``mg``."""
    out = []
    for spec in WORKLOADS[workload]:
        if spec.name == "golden_2_2":
            out.append(golden(mg))
        else:
            out.append(draw(mg, workload, spec, seed))
    return out
