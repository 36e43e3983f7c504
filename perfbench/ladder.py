"""Opt-in ladder report; not a gated workload.

Runs the full pipeline on P^1 x P^1 instances of growing matrix size -- the
rungs (1,2) 4x4, the golden (2,2) 8x8, (2,3) 12x12 and (3,3) 18x18 -- each
in its own subprocess under a wall-clock budget, and prints one JSON
document with the per-stage times of each rung.  A rung that runs out of
budget is recorded as ``"did not finish"``, which is a data point, not an
error.

    python3 perfbench/ladder.py [--budget 120] [--seed 0] > ladder.json

Expect about 70 s for the (2,3) rung on a 2-core machine; the (3,3) rung
does not finish in minutes at the parent commit of this benchmark.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import instances
from tracer import Tracer

SRC = Path(__file__).resolve().parents[1] / "src"
RUNGS = {
    "p1p1_1_2": (1, 2),
    "golden_2_2": (2, 2),
    "p1p1_2_3": (2, 3),
    "p1p1_3_3": (3, 3),
}
STAGES = (
    "complexes.representation_matrix",
    "implicitize.generic_rank",
    "implicitize.rank_drop_check",
    "implicitize.det_linear_matrix",
    "implicitize.verify_implicit",
)


def run_rung(name, seed) -> dict:
    """One rung in this process, with only the pipeline stages traced."""
    sys.path.insert(0, str(SRC))
    import mgimplicit as mg

    if name == "golden_2_2":
        item = instances.golden(mg)
    else:
        item = instances.draw(mg, "square_det", instances.Spec(name, instances.P1P1, RUNGS[name]), seed)
    tracer = Tracer(names=STAGES)
    t0 = perf_counter()
    with tracer.installed(mg):
        result = mg.run_pipeline(item.inst, None, seed=seed)
    return {
        "rung": name,
        "status": "ok",
        "matrix": f"{result.matrix_rows}x{result.matrix_cols}",
        "degree": result.degree,
        "verified": result.verified,
        "total_s": perf_counter() - t0,
        "stages_s": {stage: tracer.stat(stage).total_s for stage in STAGES},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--budget", type=float, default=120.0, help="wall-clock seconds per rung")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rung", choices=sorted(RUNGS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.rung:
        print(json.dumps(run_rung(args.rung, args.seed)))
        return 0
    report = []
    for name in RUNGS:
        cmd = [sys.executable, __file__, "--rung", name, "--seed", str(args.seed)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=args.budget)
        except subprocess.TimeoutExpired:
            entry = {"rung": name, "status": "did not finish", "budget_s": args.budget}
        else:
            if done.returncode == 0:
                entry = json.loads(done.stdout.splitlines()[-1])
            else:
                entry = {"rung": name, "status": "error", "stderr": done.stderr[-2000:]}
        report.append(entry)
        print(f"{name}: {entry['status']}", file=sys.stderr)
    print(json.dumps({"seed": args.seed, "budget_s": args.budget, "rungs": report}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
