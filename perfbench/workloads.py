"""The operations of each workload and the checks on their outputs.

An operation (op) is one user-visible call: ``run_pipeline`` on one
instance, building one ``M_nu`` with its generic rank, or one membership
query.  Ops run back to back in one thread (a closed loop with one client).
An op that raises counts as failed; it does not end the run.

The program's own randomized steps (generic rank, rank-drop points, minor
sampling) keep their default seed 0, as a user's run would; only the
instances vary with the benchmark seed.  On ``wide_gcd`` the sampled minors
decide how many are zero, which would otherwise change the cost of an
instance by up to 2x from seed to seed.

Every package function is looked up on the module object at call time, so
the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from instances import GOLDEN_COEFFS, GOLDEN_MONOMIALS, POINT_RANGE

# minors sampled by the minors-gcd route on wide_gcd
WIDE_SAMPLES = 6
# image points at which the benchmark's own evaluator checks delta(f(p)) = 0
CHECK_POINTS = 2


def _eval(terms, values):
    """Exact value of a term map ``exponents -> coefficient`` at ``values``."""
    total = 0
    for exps, c in terms.items():
        v = c
        for x, k in zip(values, exps):
            if k:
                v *= x**k
        total += v
    return total


class PipelineOp:
    """``run_pipeline`` on one instance, judged by the multidegree formula,
    the benchmark's own evaluation of ``delta`` on the image, the golden
    coefficients and byte-stability of the ``implicit-result/1`` JSON."""

    def __init__(self, mg, workload, item, seed):
        self.mg = mg
        self.workload = workload
        self.item = item
        self.key = item.spec.name
        self.samples = WIDE_SAMPLES if workload == "wide_gcd" else 4
        self.first_json = None
        rng = random.Random(f"{seed}/{self.key}/check")
        names = item.inst.ring.names
        self.check_images = []
        for _ in range(CHECK_POINTS):
            p = [rng.randint(-POINT_RANGE, POINT_RANGE) for _ in names]
            self.check_images.append([_eval(f.terms, p) for f in item.inst.f])

    def run(self):
        return self.mg.run_pipeline(self.item.inst, None, samples=self.samples)

    def check(self, result):
        """``None`` when ``result`` is correct, else the reason it is not."""
        spec = self.item.spec
        if not result.verified:
            return "not verified"
        if result.degree != spec.expected_degree:
            return f"degree {result.degree}, expected {spec.expected_degree}"
        if self.workload == "square_det" and result.matrix_rows != result.matrix_cols:
            return f"matrix {result.matrix_rows}x{result.matrix_cols} is not square"
        if self.workload == "wide_gcd" and not result.matrix_rows < result.matrix_cols:
            return f"matrix {result.matrix_rows}x{result.matrix_cols} is not wide"
        terms = result.delta.terms
        for values in self.check_images:
            if _eval(terms, values) != 0:
                return "delta does not vanish on the image"
        if spec.name == "golden_2_2":
            got = [terms.get(m, 0) for m in GOLDEN_MONOMIALS]
            if not got[0] or any(g * GOLDEN_COEFFS[0] != got[0] * c for g, c in zip(got, GOLDEN_COEFFS)):
                return "golden coefficients are not proportional to the published run"
        text = result.to_json()
        if self.first_json is None:
            self.first_json = text
        elif text != self.first_json:
            return "implicit-result/1 JSON differs from the first run"
        return None


@dataclass
class MatrixState:
    """``M_nu`` and its generic rank, shared by one instance's queries."""

    m: object = None
    rank: int = 0


class BuildOp:
    """Build ``M_nu`` at the suggested degree and take its generic rank."""

    def __init__(self, mg, item, state):
        self.mg = mg
        self.item = item
        self.key = f"{item.spec.name}/build"
        self.state = state

    def run(self):
        self.state.m = None
        mg = self.mg
        inst = self.item.inst
        nu = mg.suggest_nu(inst.blocks, inst.gamma)
        m = mg.representation_matrix(inst, nu, warn_region=False)
        self.state.rank = mg.generic_rank(m)
        self.state.m = m
        return (m.rows, m.cols, self.state.rank)

    def check(self, out):
        rows, cols = self.item.spec.shape
        if out != (rows, cols, rows):
            return f"matrix/rank {out}, expected {(rows, cols, rows)}"
        return None


class QueryOp:
    """Is the target point on the surface?  The rank of ``M_nu`` drops there.

    On-surface queries map a parameter point through the forms (``T = f(p)``)
    and must drop rank; off-surface queries use a random target point, which
    lies off the surface except with probability at most
    ``degree / 2*10^6`` (Schwartz-Zippel), and must keep full rank.
    """

    def __init__(self, mg, item, state, key, point=None, target=None):
        self.mg = mg
        self.item = item
        self.state = state
        self.key = key
        self.point = point
        self.target = target
        self.expected = point is not None

    def run(self):
        mg = self.mg
        m = self.state.m
        if m is None:
            raise RuntimeError("M_nu was not built")
        if self.point is not None:
            values = [mg.eval_at(f, self.point) for f in self.item.inst.f]
        else:
            values = self.target
        return mg.rank(m.specialize(values)) < self.state.rank

    def check(self, on_surface):
        if on_surface != self.expected:
            return f"verdict {'on' if on_surface else 'off'} surface, expected the opposite"
        return None


def make_ops(mg, workload, items, seed) -> list:
    """The ops of one pass, in order.  The queries of ``represent`` run after
    every build, in an order shuffled by the seed, so that each instance's
    queries are spread over the pass instead of sharing one second of it
    (a shared machine's speed can drift from one second to the next)."""
    if workload != "represent":
        return [PipelineOp(mg, workload, item, seed) for item in items]
    builds, queries = [], []
    for item in items:
        state = MatrixState()
        builds.append(BuildOp(mg, item, state))
        name = item.spec.name
        queries += [QueryOp(mg, item, state, f"{name}/on/{k}", point=p) for k, p in enumerate(item.on_points)]
        queries += [QueryOp(mg, item, state, f"{name}/off/{k}", target=t) for k, t in enumerate(item.off_targets)]
    random.Random(f"{seed}/order").shuffle(queries)
    return builds + queries


@dataclass
class PassResult:
    """One pass over every op of a workload."""

    latency: dict = field(default_factory=dict)  # op key -> seconds
    failures: dict = field(default_factory=dict)  # op key -> reason
    outputs: dict = field(default_factory=dict)  # op key -> output

    @property
    def run_s(self) -> float:
        return sum(self.latency.values())


def run_pass(ops) -> PassResult:
    """Run every op once, timing each call alone; checks run untimed."""
    res = PassResult()
    for op in ops:
        t0 = perf_counter()
        try:
            out = op.run()
            reason = None
        except Exception as exc:  # a failed op is counted, never fatal
            out, reason = None, f"{type(exc).__name__}: {exc}"
        res.latency[op.key] = perf_counter() - t0
        if reason is None:
            res.outputs[op.key] = out
            try:
                reason = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            res.failures[op.key] = reason
    return res
