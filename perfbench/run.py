"""Benchmark of the mgimplicit pipeline, one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload square_det --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``square_det`` -- full pipeline on base-point-free instances with a square
  ``M_nu`` (symbolic Bareiss determinant, then substitution);
* ``wide_gcd`` -- full pipeline on instances with a wide ``M_nu`` (gcd of
  sampled maximal minors);
* ``represent`` -- build ``M_nu`` and answer membership queries by rank.

The program runs in this process on one thread; ops are issued back to back
by one client (closed loop).  Passes over all ops repeat for about
``--seconds`` (a pass starts while at least half of it fits), at least twice, so the ``implicit-result/1``
JSON of every op is compared between passes.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics: untraced and traced passes alternate,
and the traced ones run with every public function of the package wrapped
(see ``tracer.py``).  Exit code 2 means the package or its problem file is
missing; otherwise the exit code is 0 and ``correct`` says whether every
output passed its check.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import instances
from tracer import Tracer
from workloads import make_ops, run_pass

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# a run sets up at least SETUP_REPS times and for at least SETUP_SECONDS;
# setup_s is the median
SETUP_REPS = 5
SETUP_SECONDS = 2.0
MIN_PASSES = 2


def fresh_setup(workload, seed):
    """Import the package from scratch and build the workload's instances."""
    for name in [m for m in sys.modules if m == "mgimplicit" or m.startswith("mgimplicit.")]:
        del sys.modules[name]
    t0 = perf_counter()
    mg = importlib.import_module("mgimplicit")
    items = instances.build(mg, workload, seed)
    return perf_counter() - t0, mg, items


def measure(ops, seconds, mg=None, tracer=None):
    """Passes over ``ops`` until about ``seconds`` have been spent.

    With a tracer, untraced and traced passes alternate; each traced pass
    carries a snapshot ``(stats, counters)`` of its spans.
    """
    untraced, traced = [], []
    start = perf_counter()
    while True:
        gc.collect()
        if tracer is not None and len(untraced) > len(traced):
            tracer.reset()
            with tracer.installed(mg):
                res = run_pass(ops)
            res.spans = (tracer.stats, tracer.counters)
            traced.append(res)
        else:
            untraced.append(run_pass(ops))
        done = len(untraced) + len(traced)
        elapsed = perf_counter() - start
        # start another pass only if at least half of it fits in the budget
        if done >= MIN_PASSES and elapsed + elapsed / done / 2 > seconds:
            return untraced, traced


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setups, passes, attempted, failed):
    keys = list(passes[0].latency)
    per_op = [statistics.median(p.latency[k] for p in passes) for k in keys]
    tail_s, pct = tail(per_op)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(per_op)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "run_s": (statistics.median(p.run_s for p in passes), "s", f"median of {len(passes)} passes"),
        "op_p50_s": (statistics.median(per_op), "s", f"median of {n} ops, each the median of its passes"),
        "op_tail_s": (tail_s, "s", f"p{pct:.1f} of {n} ops, each the median of its passes"),
        "ok_frac": ((attempted - failed) / attempted, "ratio", f"{attempted - failed} of {attempted} ops correct"),
        "peak_rss_mb": (rss_kb / 1024, "MB", "peak resident set of this process"),
    }


def _calls(stats, name):
    return stats[name].calls if name in stats else 0


def _self(stats, *names):
    return sum(stats[n].self_s for n in names if n in stats)


def _total(stats, name):
    return stats[name].total_s if name in stats else 0.0


# (metric, unit, reader of (stats, counters)) for the traced passes
SPAN_METRICS = [
    ("multipoly.mul.calls", "count", lambda s, c: _calls(s, "multipoly.mul")),
    ("multipoly.mul.self_s", "s", lambda s, c: _self(s, "multipoly.mul")),
    ("multipoly.addsub.self_s", "s", lambda s, c: _self(s, "multipoly.add", "multipoly.sub")),
    ("multipoly.exact_div.calls", "count", lambda s, c: _calls(s, "multipoly.exact_div")),
    # exact_div delegates to try_exact_div; the division work is their sum
    ("multipoly.exact_div.self_s", "s", lambda s, c: _self(s, "multipoly.exact_div", "multipoly.try_exact_div")),
    ("multipoly.substitute_targets.self_s", "s", lambda s, c: _self(s, "multipoly.substitute_targets")),
    ("multipoly.substitute_targets.total_s", "s", lambda s, c: _total(s, "multipoly.substitute_targets")),
    ("multipoly.gcd_poly.calls", "count", lambda s, c: _calls(s, "multipoly.gcd_poly")),
    ("multipoly.gcd_poly.self_s", "s", lambda s, c: _self(s, "multipoly.gcd_poly")),
    ("multipoly.eval_at.calls", "count", lambda s, c: _calls(s, "multipoly.eval_at")),
    ("multipoly.eval_at.self_s", "s", lambda s, c: _self(s, "multipoly.eval_at")),
    ("linalg.rank.calls", "count", lambda s, c: _calls(s, "linalg.rank")),
    ("linalg.rank.self_s", "s", lambda s, c: _self(s, "linalg.rank")),
    ("linalg.nullspace_basis.calls", "count", lambda s, c: _calls(s, "linalg.nullspace_basis")),
    ("linalg.nullspace_basis.self_s", "s", lambda s, c: _self(s, "linalg.nullspace_basis")),
    ("complexes.representation_matrix.calls", "count", lambda s, c: _calls(s, "complexes.representation_matrix")),
    ("complexes.representation_matrix.self_s", "s", lambda s, c: _self(s, "complexes.representation_matrix")),
    ("complexes.matrix_entries", "count", lambda s, c: c.get("complexes.matrix_entries", 0)),
    ("complexes.specialize.calls", "count", lambda s, c: _calls(s, "complexes.specialize")),
    ("complexes.specialize.self_s", "s", lambda s, c: _self(s, "complexes.specialize")),
    ("complexes.homology_dim.self_s", "s", lambda s, c: _self(s, "complexes.homology_dim")),
    # inclusive times of the pipeline stages, which partition run_s
    ("complexes.representation_matrix.total_s", "s", lambda s, c: _total(s, "complexes.representation_matrix")),
    ("implicitize.generic_rank.total_s", "s", lambda s, c: _total(s, "implicitize.generic_rank")),
    ("implicitize.rank_drop_check.total_s", "s", lambda s, c: _total(s, "implicitize.rank_drop_check")),
    ("implicitize.det_linear_matrix.total_s", "s", lambda s, c: _total(s, "implicitize.det_linear_matrix")),
    ("implicitize.minors_gcd.total_s", "s", lambda s, c: _total(s, "implicitize.minors_gcd")),
    ("implicitize.verify_implicit.total_s", "s", lambda s, c: _total(s, "implicitize.verify_implicit")),
    ("implicitize.generic_rank.self_s", "s", lambda s, c: _self(s, "implicitize.generic_rank")),
    ("implicitize.rank_drop_check.self_s", "s", lambda s, c: _self(s, "implicitize.rank_drop_check")),
    ("implicitize.det_linear_matrix.calls", "count", lambda s, c: _calls(s, "implicitize.det_linear_matrix")),
    ("implicitize.det_linear_matrix.self_s", "s", lambda s, c: _self(s, "implicitize.det_linear_matrix")),
    ("implicitize.minors_gcd.self_s", "s", lambda s, c: _self(s, "implicitize.minors_gcd")),
    ("implicitize.verify_implicit.calls", "count", lambda s, c: _calls(s, "implicitize.verify_implicit")),
    ("implicitize.verify_implicit.self_s", "s", lambda s, c: _self(s, "implicitize.verify_implicit")),
    (
        "implicitize.rank_drop.points_used_ratio",
        "ratio",
        # 0 when no rank-drop check ran
        lambda s, c: c.get("rank_drop.points_used", 0) / (c.get("rank_drop.points_sampled") or 1),
    ),
    ("regions.suggest_nu.self_s", "s", lambda s, c: _self(s, "regions.suggest_nu")),
    ("regions.region_RB.self_s", "s", lambda s, c: _self(s, "regions.region_RB")),
    ("trace.self_sum_s", "s", lambda s, c: sum(st.self_s for st in s.values())),
]
SETUP_SPAN_METRICS = [
    ("multipoly.parse_poly.self_s", "s", lambda s, c: _self(s, "multipoly.parse_poly")),
    ("problem.load_problem.self_s", "s", lambda s, c: _self(s, "problem.load_problem")),
]


def delta_stats(passes):
    """(terms, largest coefficient bit size) over the pipeline outputs."""
    terms = bits = 0
    for out in passes[0].outputs.values():
        delta = getattr(out, "delta", None)
        if delta is not None:
            terms += len(delta.terms)
            bits = max([bits] + [abs(c).numerator.bit_length() for c in delta.terms.values()])
    return terms, bits


def per_layer(untraced, traced, setup_spans):
    med = statistics.median
    out = {}
    for name, unit, read in SPAN_METRICS:
        out[name] = (med(read(*p.spans) for p in traced), unit, f"median of {len(traced)} traced passes")
    for name, unit, read in SETUP_SPAN_METRICS:
        out[name] = (read(*setup_spans), unit, "one traced set-up")
    terms, bits = delta_stats(traced)
    out["multipoly.delta_terms"] = (terms, "count", "sum over the pipeline ops of one pass")
    out["multipoly.coeff_bits_max"] = (bits, "bits", "largest delta coefficient of one pass")
    traced_run = med(p.run_s for p in traced)
    out["trace.run_s"] = (traced_run, "s", f"median of {len(traced)} traced passes")
    out["trace.overhead_s"] = (
        traced_run - med(p.run_s for p in untraced),
        "s",
        f"traced run_s minus the median of {len(untraced)} untraced passes",
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "mgimplicit" / "__init__.py", instances.GOLDEN_FILE) if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS:
        dt, mg, items = fresh_setup(args.workload, args.seed)
        setups.append(dt)
    ops = make_ops(mg, args.workload, items, args.seed)

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
        f"python {platform.python_version()}  nproc {os.cpu_count()}  closed loop, 1 client, 1 thread"
    )
    for it in items:
        print(f"  instance {it.spec.name}: blocks {[len(b) - 1 for b in it.spec.blocks]} gamma {it.spec.gamma}"
              f"  nu {it.nu}  draws {it.draws}  expected degree {it.spec.expected_degree}")

    tracer = Tracer() if args.trace else None
    setup_spans = None
    if tracer is not None:
        with tracer.installed(mg):
            instances.build(mg, args.workload, args.seed)
        setup_spans = (tracer.stats, tracer.counters)
    untraced, traced = measure(ops, args.seconds, mg, tracer)

    every = untraced + traced
    attempted = sum(len(p.latency) for p in every)
    failures = [(k, r) for p in every for k, r in p.failures.items()]
    for key, reason in failures[:10]:
        print(f"  FAILED {key}: {reason}")
    print(f"  passes: {len(untraced)} untraced, {len(traced)} traced; {len(failures)} of {attempted} ops failed")

    if tracer is None:
        metrics = end_to_end(setups, untraced, attempted, len(failures))
    else:
        metrics = per_layer(untraced, traced, setup_spans)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  ({note})")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
