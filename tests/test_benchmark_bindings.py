"""The package names that ``perfbench/run.py --trace 1`` binds or patches.

The benchmark's tracer patches ``LinearFormMatrix.specialize`` and the
``MultiPoly`` operators on their classes, and reads functions under every
module that imports them; its workloads and instance draws call
``generic_rank`` and the other package-root functions listed below, and
pass ``samples=`` to ``run_pipeline``.  A refactor that drops one of them
breaks the benchmark, so it fails here too.
"""

import mgimplicit
from helpers import golden_instance
from mgimplicit import complexes, implicitize, linalg, multipoly
from mgimplicit.complexes import LinearFormMatrix
from mgimplicit.multipoly import MultiPoly


def test_patched_methods_are_defined_on_their_classes():
    assert "specialize" in LinearFormMatrix.__dict__
    for op in ("__mul__", "__add__", "__sub__"):
        assert op in MultiPoly.__dict__


def test_shared_functions_are_one_object_under_every_name():
    assert implicitize.exact_div is multipoly.exact_div is mgimplicit.exact_div
    assert complexes.nullspace_basis is linalg.nullspace_basis
    # the package-root names the workloads and instance draws call
    for name in (
        "generic_rank",
        "representation_matrix",
        "suggest_nu",
        "rank",
        "eval_at",
        "parse_poly",
        "parameter_ring",
        "load_problem",
    ):
        assert callable(getattr(mgimplicit, name)), name
    assert callable(mgimplicit.ProblemInstance.from_polys)


def test_run_pipeline_accepts_the_benchmark_call():
    result = mgimplicit.run_pipeline(golden_instance(), None, samples=4)
    assert result.verified
