"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import random
import re
import sys
from pathlib import Path

import pytest

import instances
import mgimplicit as mg
import run
from tracer import Tracer
from workloads import PipelineOp, QueryOp, make_ops, run_pass

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 7
# a 4x4 square instance and a tiny represent instance keep these tests fast
SMALL = instances.Spec("p1p1_1_2", instances.P1P1, (1, 2))
SMALL_REPRESENT = instances.Spec("p1p1_1_2", instances.P1P1, (1, 2), shape=(4, 4))


def ok_frac(res):
    attempted = len(res.latency)
    return run.end_to_end([1.0], [res], attempted, len(res.failures))["ok_frac"][0]


def small_op():
    return PipelineOp(mg, "square_det", instances.draw(mg, "square_det", SMALL, SEED), SEED)


@pytest.mark.parametrize("workload", sorted(instances.WORKLOADS))
def test_same_seed_same_instances(workload):
    a = instances.build(mg, workload, SEED)
    b = instances.build(mg, workload, SEED)
    c = instances.build(mg, workload, SEED + 1)
    key = lambda items: [(i.texts, i.draws, i.nu, i.on_points, i.off_targets) for i in items]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_golden_coefficients_match_the_tests():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import helpers
    finally:
        sys.path.pop(0)
    assert instances.GOLDEN_COEFFS == helpers.GOLDEN_COEFFS


def test_correct_outputs_pass():
    op = small_op()
    res = run_pass([op, op])
    assert not res.failures
    assert ok_frac(res) == 1.0


def test_perturbed_delta_fails():
    op = small_op()
    honest = op.run

    def perturbed():
        result = honest()
        result.delta = result.delta + 1
        return result

    op.run = perturbed
    res = run_pass([op])
    assert "vanish" in res.failures[op.key]
    assert ok_frac(res) < 1


def test_wrong_expected_degree_fails(monkeypatch):
    op = small_op()
    monkeypatch.setattr(instances.Spec, "expected_degree", property(lambda self: 5))
    res = run_pass([op])
    assert "degree" in res.failures[op.key]
    assert ok_frac(res) < 1


def test_changed_json_fails():
    op = small_op()
    assert not run_pass([op]).failures
    op.first_json = op.first_json.replace('"verified": true', '"verified": false')
    assert ok_frac(run_pass([op])) < 1


def test_flipped_membership_verdict_fails():
    item = instances.draw(mg, "represent", SMALL_REPRESENT, SEED)
    ops = make_ops(mg, "represent", [item], SEED)
    assert not run_pass(ops).failures
    query = next(op for op in ops if isinstance(op, QueryOp))
    query.expected = not query.expected
    res = run_pass(ops)
    assert list(res.failures) == [query.key]
    assert ok_frac(res) < 1


def test_exception_counts_as_failure():
    op = small_op()

    def boom():
        raise ValueError("boom")

    op.run = boom
    res = run_pass([op, small_op()])
    assert res.failures == {op.key: "ValueError: boom"}
    assert ok_frac(res) < 1


def test_forced_base_point_is_simple():
    spec = instances.WIDE_GCD[1]  # (1, 2) forms without u*v^2
    rng = random.Random(0)
    forms = [instances._random_form_coeffs(spec, rng) for _ in range(4)]
    assert instances._base_point_simple(spec, forms, spec.dropped[0])
    # with no s*v^2 term no form has a linear part in s there
    flat = [{e: c for e, c in f.items() if e != (1, 0, 0, 2)} for f in forms]
    assert not instances._base_point_simple(spec, flat, spec.dropped[0])


def test_tracer_wraps_every_binding_and_restores():
    originals = (mg.multipoly.exact_div, mg.implicitize.exact_div, mg.exact_div, mg.MultiPoly.__mul__)
    tracer = Tracer()
    with tracer.installed(mg):
        assert mg.implicitize.exact_div is mg.multipoly.exact_div is mg.exact_div
        assert mg.multipoly.exact_div is not originals[0]
        assert mg.complexes.nullspace_basis.__wrapped__ is mg.linalg.nullspace_basis.__wrapped__
        assert mg.MultiPoly.__mul__ is not originals[3]
    assert (mg.multipoly.exact_div, mg.implicitize.exact_div, mg.exact_div, mg.MultiPoly.__mul__) == originals


def test_self_times_sum_to_the_traced_run():
    op = small_op()
    tracer = Tracer()
    with tracer.installed(mg):
        res = run_pass([op])
    assert tracer.stat("implicitize.run_pipeline").calls == 1
    assert tracer.stat("multipoly.mul").calls > 0
    assert tracer.stat("multipoly.gcd_poly").calls == 0
    top = tracer.stat("implicitize.run_pipeline").total_s
    assert sum(st.self_s for st in tracer.stats.values()) == pytest.approx(top, rel=1e-9)
    assert top <= res.run_s


def test_metric_names_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = make_ops(mg, "square_det", [instances.draw(mg, "square_det", SMALL, SEED)], SEED)
    untraced, traced = run.measure(ops, 0, mg, Tracer())
    e2e = run.end_to_end([1.0], untraced, 1, 0)
    layers = run.per_layer(untraced, traced, ({}, {}))
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(e2e)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layers)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(instances.WORKLOADS)
    for name in list(e2e) + list(layers) + list(instances.WORKLOADS):
        assert NAME.fullmatch(name), name
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == v[1] for k, v in {**e2e, **layers}.items())
