"""The benchmark's own checks; run ``python -m pytest perfbench/checks.py``.

The file name does not match ``test_*.py``, so the tier-1 suite at the
repository root does not collect it.  Workloads run here at a small
``scale`` so the checks take seconds.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import repro  # noqa: E402

from perfbench import measure, spans  # noqa: E402
from perfbench.oracle import reference  # noqa: E402
from perfbench.workloads import KAPPA, WORKLOADS  # noqa: E402

SMALL = {"paper_default": 0.1, "small_batches": 0.05, "md_yukawa": 0.1,
         "rcb_let": 0.1}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    wl = WORKLOADS[name]
    a, b, c = (wl.inputs(s, SMALL[name]) for s in (3, 3, 4))
    assert np.array_equal(a.particles.positions, b.particles.positions)
    assert all(np.array_equal(p, q) for p, q in zip(a.charges, b.charges))
    if wl.n_steps:
        assert np.array_equal(a.position(7), b.position(7))
        assert not np.array_equal(a.position(7), a.position(6))
    assert np.array_equal(a.sample, b.sample)
    assert not np.array_equal(a.particles.positions, c.particles.positions)


@pytest.mark.parametrize("kernel", ["coulomb", "yukawa"])
def test_oracle_agrees_with_the_library_near_the_origin(kernel):
    p = repro.random_cube(600, seed=0)
    k = repro.YukawaKernel(KAPPA) if kernel == "yukawa" else repro.CoulombKernel()
    phi, force = reference(kernel, KAPPA, p.positions, p.positions,
                           p.charges, forces=True)
    direct = repro.direct_sum(p.positions, p.positions, p.charges, k)
    assert np.allclose(phi, direct, rtol=1e-10, atol=0)
    res = repro.BarycentricTreecode(
        k, repro.TreecodeParams(max_leaf_size=1000, max_batch_size=1000)
    ).compute(p, compute_forces=True)  # one leaf: every pair is direct
    assert np.allclose(force, res.forces, rtol=1e-9, atol=1e-9)


def test_oracle_is_translation_invariant():
    p = repro.random_cube(200, seed=1)
    a, _ = reference("coulomb", KAPPA, p.positions, p.positions,
                     p.charges)
    shifted = p.positions + 1e4
    b, _ = reference("coulomb", KAPPA, shifted, shifted, p.charges)
    assert np.allclose(a, b, rtol=1e-9)


@pytest.mark.parametrize("name", ["md_yukawa", "rcb_let", "small_batches"])
def test_traced_cycle_is_bitwise_equal_and_covered(name):
    run = measure.Run(WORKLOADS[name], 2, SMALL[name])
    before = spans.snapshot()
    untraced = run.cycle()
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer):
        traced = run.cycle(tracer)
    assert spans.snapshot() == before
    assert not run.failures
    assert traced.digests == untraced.digests
    assert abs(spans.coverage(tracer, traced.wall) - 1.0) < 0.05
    layers = spans.layer_metrics(tracer)
    assert layers["backends.execute_s"] > 0
    assert layers["interaction_lists.build_s"] > 0
    assert (layers["dynamic.update_s"] > 0) == (name == "md_yukawa")
    assert (layers["partition.rcb_s"] > 0) == (name == "rcb_let")


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = spans.snapshot()
    with pytest.raises(RuntimeError):
        with spans.Instrumentation(spans.Tracer()):
            assert spans.snapshot() != before
            raise RuntimeError("boom")
    assert spans.snapshot() == before


def test_span_self_times_telescope():
    tracer = spans.Tracer()
    with tracer.span("op.apply"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(10_000))
        with tracer.span("b"):
            sum(range(10_000))
    root = tracer.roots("op.apply")[0]
    total = sum(s.self_time for s in tracer.spans)
    assert total == pytest.approx(root.duration, rel=1e-9)


def test_summary_reports_a_tail_only_with_ten_samples_beyond_it():
    assert measure.summary(range(39))["tail"] is None
    assert measure.summary(range(40))["tail"][0] == 75
    s = measure.summary(range(100))
    assert s["tail"] == (90, 89) and s["median"] == 49.5


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wl = WORKLOADS["rcb_let"]
    run, e2e = measure.measure(wl, 5, 0.0, scale=SMALL["rcb_let"])
    assert not run.failures
    assert sorted(e2e) == sorted(m["name"] for m in bench["end_to_end"])
    run, layers, _ = measure.trace(wl, 5, scale=SMALL["rcb_let"])
    assert not run.failures
    assert sorted(layers) == sorted(m["name"] for m in bench["per_layer"])
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


def test_no_process_outlives_a_traced_run():
    from perfbench import run as bench

    run, _, _ = measure.trace(WORKLOADS["rcb_let"], 6, scale=SMALL["rcb_let"])
    assert not run.failures
    # The multiprocessing backend's pool is gone; its shared-memory
    # resource tracker is not, until it is stopped.
    assert bench._children()
    bench._stop_children()
    assert bench._children() == []
