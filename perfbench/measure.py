"""Closed-loop measurement of one workload.

One caller in one process issues each operation after the previous one
returns.  A run warms up (a discarded ``prepare`` and first apply),
then repeats the workload's cycle until ``seconds`` have passed, with
at least :data:`MIN_CYCLES` cycles.  Every apply and step is checked
against the oracle; a check that fails is counted, never retried.

The traced run follows an untraced cycle with a traced one, so the
difference between them is the tracing overhead and their potentials
must agree bit for bit.  It then times the other backends on the same
prepared plan and an O(N^2) direct sum.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro
from repro.core.backends import get_backend

from .oracle import relative_error
from .spans import Instrumentation, Tracer, coverage, layer_metrics, snapshot
from .workloads import Workload

MIN_CYCLES = 2
#: An untraced cycle repeats ``prepare`` until this many seconds of
#: prepares have run (at least once), so a cheap prepare still gives
#: ``setup_s`` a median over many samples.
PREPARE_SECONDS = 1.0
#: Backends timed on the same plan in the traced run.
MATRIX = ("numpy", "fused", "batched", "multiprocessing")
#: |trace.coverage - 1| above this fails the traced run.
COVERAGE_SLACK = 0.05


@dataclass
class Cycle:
    setups: list = field(default_factory=list)
    first: float = 0.0
    applies: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    wall: float = 0.0
    digests: list = field(default_factory=list)
    final_err: float = float("nan")
    aborted: bool = False
    session: object = None
    #: The first steady apply's result, and the simulated devices'
    #: (launches, bytes_h2d) before and after it.
    apply_result: object = None
    counters: tuple = ()
    #: RMA (bytes, operations) after prepare and the first apply.
    rma: tuple = (0, 0)
    #: ``memory_stats()`` total after the steady applies.  Taken before
    #: any MD step: the update scratch is zero after a rebuilding step,
    #: which would make the figure depend on the last step's path.
    session_bytes: int = 0


def _devices(session) -> list:
    return session.devices if hasattr(session, "devices") else [session.device]


def _device_totals(session) -> tuple[int, int]:
    devs = _devices(session)
    return (
        sum(d.counters.launches for d in devs),
        sum(d.counters.bytes_h2d for d in devs),
    )


def _plans(session) -> list:
    return session.plans if hasattr(session, "plans") else [session.plan]


class Run:
    """Inputs, oracle values and failure ledger of one workload run."""

    def __init__(self, wl: Workload, seed: int, scale: float = 1.0) -> None:
        self.wl = wl
        self.inputs = wl.inputs(seed, scale)
        self._refs = {0: self.inputs.references(wl, 0)}
        self.driver = wl.make_driver()
        self.attempted = 0
        self.failures: list[str] = []
        #: eq. 16 error of the last operation of the first measured cycle.
        self.final_err = float("nan")

    def ref(self, step: int, i: int):
        """Oracle values for charge vector ``i`` after ``step`` MD steps
        (computed on first use)."""
        if step not in self._refs:
            self._refs[step] = self.inputs.references(self.wl, step)
        return self._refs[step][i]

    # -- one operation ---------------------------------------------------
    @staticmethod
    def _timed(tracer, kind, fn):
        ctx = tracer.span("op." + kind) if tracer else contextlib.nullcontext()
        t0 = perf_counter()
        with ctx:
            out = fn()
        return out, perf_counter() - t0

    def _check(self, session, key, res, cycle: Cycle) -> None:
        """``key`` is ``(step, charge index)`` of the operation."""
        wl = self.wl
        idx = self.inputs.sample
        phi_ref, f_ref = self.ref(*key)
        reasons = []
        phi = res.potential
        if not np.all(np.isfinite(phi)):
            reasons.append("non-finite potential")
        err = relative_error(phi[idx], phi_ref)
        if not err <= wl.tol:
            reasons.append(f"rel_err {err:.3g} > {wl.tol:g}")
        digest = hashlib.sha256(phi.tobytes())
        if f_ref is not None:
            ferr = relative_error(res.forces[idx], f_ref)
            if not ferr <= wl.force_tol:
                reasons.append(f"force rel_err {ferr:.3g} > {wl.force_tol:g}")
            digest.update(res.forces.tobytes())
        health = session.health_stats()
        if (health["retries"] or health["pool_rebuilds"]
                or health["fallbacks"] or health["degraded_to"]):
            reasons.append(f"health {health}")
        if reasons:
            self.failures.append(f"{wl.name} {key}: " + "; ".join(reasons))
        cycle.digests.append(digest.hexdigest())
        cycle.final_err = err

    def _apply(self, session, i):
        return session.apply(
            self.inputs.charges[i], compute_forces=self.wl.forces
        )

    def _step(self, session, j):
        session.update_geometry(self.inputs.position(j))
        return self._apply(session, -1)

    # -- one cycle -------------------------------------------------------
    def cycle(self, tracer: Tracer | None = None, *, warm_up=False,
              repeat_prepare=False) -> Cycle:
        """prepare, first apply, steady applies, MD steps.  ``warm_up``
        stops after the first apply; ``repeat_prepare`` repeats the
        prepare for :data:`PREPARE_SECONDS` and keeps the last session."""
        wl = self.wl
        c = Cycle()
        particles = self.inputs.particles
        t0 = perf_counter()
        kind = "prepare"
        try:
            while True:
                session, dt = self._timed(
                    tracer, kind,
                    lambda: self.driver.prepare(particles),
                )
                c.setups.append(dt)
                if not repeat_prepare or sum(c.setups) >= PREPARE_SECONDS:
                    break
                session = None
                gc.collect()
            kind = "first_apply"
            self.attempted += 1
            res, c.first = self._timed(
                tracer, kind, lambda: self._apply(session, 0)
            )
            self._check(session, (0, 0), res, c)
            if hasattr(session, "comm"):
                c.rma = (
                    sum(s.bytes_remote for s in session.comm.stats),
                    sum(s.ops for s in session.comm.stats),
                )
            if not warm_up:
                kind = "apply"
                for i in range(1, 1 + wl.n_applies):
                    before = _device_totals(session)
                    self.attempted += 1
                    res, dt = self._timed(
                        tracer, kind, lambda: self._apply(session, i)
                    )
                    c.applies.append(dt)
                    self._check(session, (0, i), res, c)
                    if c.apply_result is None:
                        c.apply_result = res
                        c.counters = (before, _device_totals(session))
                c.session_bytes = session.memory_stats()["total_bytes"]
                kind = "step"
                for j in range(1, 1 + wl.n_steps):
                    self.attempted += 1
                    res, dt = self._timed(
                        tracer, kind, lambda: self._step(session, j)
                    )
                    c.steps.append(dt)
                    self._check(session, (j, -1), res, c)
        except Exception as exc:  # a failed operation ends the run
            if kind == "prepare":
                self.attempted += 1
            self.failures.append(
                f"{wl.name} {kind}: {type(exc).__name__}: {exc}"
            )
            c.aborted = True
            return c
        c.wall = perf_counter() - t0
        c.session = session
        return c


# -- statistics ------------------------------------------------------------

def summary(samples) -> dict:
    """Median plus the highest of p75/p90/p95/p99 that has at least ten
    samples beyond it (none below 40 samples)."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail": None}
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            k = min(n - 1, int(np.ceil(p / 100 * n)) - 1)
            out["tail"] = (p, xs[k])
            break
    return out


def _metric(samples, unit) -> dict:
    s = summary(samples)
    return {"value": s["median"], "unit": unit, "n": s["n"], "tail": s["tail"]}


# -- the two kinds of run --------------------------------------------------

def _loop(seconds: float, body) -> list:
    """Call ``body()`` until the next call would end past the deadline
    (at least :data:`MIN_CYCLES` times), or until a cycle aborts."""
    out = []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        c = body()
        out.append(c)
        if c.aborted:
            break
        if len(out) >= MIN_CYCLES and perf_counter() + (
                perf_counter() - t0) > deadline:
            break
    return out


def _fresh(run: Run, **kw):
    """Cycle runner that drops the previous cycle's session before the
    next prepare, so every cycle starts from the same heap."""
    last: list = []

    def body(tracer=None):
        for c in last:
            c.session = None
        last.clear()
        gc.collect()
        c = run.cycle(tracer, **kw)
        last.append(c)
        return c
    return body


def measure(wl: Workload, seed: int, seconds: float, *, scale=1.0):
    """End-to-end metrics of one untraced run."""
    run = Run(wl, seed, scale)
    run.cycle(warm_up=True)
    cycles = _loop(seconds, _fresh(run, repeat_prepare=True))
    ok = [c for c in cycles if not c.aborted]
    metrics = {}
    if ok:
        metrics["setup_s"] = _metric([t for c in ok for t in c.setups], "s")
        metrics["first_apply_s"] = _metric([c.first for c in ok], "s")
        metrics["apply_s"] = _metric(
            [t for c in ok for t in c.applies], "s")
        # md_yukawa: new positions through update_geometry + a force
        # apply, one sample per cycle: the mean of its steps.  Steps are
        # bimodal (an update that rebuilds, or the first one on a
        # session, also records the traversal), so a median over single
        # steps jumps with the seed's share of costly steps.  Every
        # cycle replays the same steps, so the share does not depend on
        # how many cycles fit in the run.
        # Static workloads have no warm path to new positions, so a step
        # there is the cold prepare + first apply.
        metrics["step_s"] = _metric(
            [statistics.mean(c.steps) for c in ok] if wl.n_steps
            else [c.setups[-1] + c.first for c in ok], "s")
        # Accurate digits, -log10 of the eq. 16 error.  The error itself
        # moves by tens of percent with the random charges of a seed.
        run.final_err = ok[0].final_err
        metrics["err_digits"] = _metric([-np.log10(run.final_err)], "digits")
        metrics["session_mb"] = _metric([ok[0].session_bytes / 1e6], "MB")
    metrics["peak_rss_mb"] = _metric(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB")
    metrics["ok_frac"] = _metric(
        [(run.attempted - len(run.failures)) / max(1, run.attempted)],
        "ratio")
    return run, metrics


def trace(wl: Workload, seed: int, *, scale=1.0):
    """Per-layer metrics of one traced run, plus the traced cycle's
    ``setup_s``, ``apply_s`` and ``step_s`` they are set against.

    The traced run does a fixed amount of work: one untraced and one
    traced cycle, the backend matrix and the direct sum."""
    run = Run(wl, seed, scale)
    run.cycle(warm_up=True)
    tracer = Tracer()
    before = snapshot()
    body = _fresh(run)
    c0 = body()
    with Instrumentation(tracer):
        c1 = body(tracer)
    if snapshot() != before:
        run.failures.append(f"{wl.name}: wrappers left installed")
    out = {}
    if c0.aborted or c1.aborted:
        return run, out, {}
    if c0.digests != c1.digests:
        run.failures.append(
            f"{wl.name}: traced potentials differ from untraced ones")
    out.update(layer_metrics(tracer))
    out["trace.overhead_frac"] = c1.wall / c0.wall - 1.0
    out["trace.coverage"] = coverage(tracer, c1.wall)
    if abs(out["trace.coverage"] - 1.0) > COVERAGE_SLACK:
        run.failures.append(
            f"{wl.name}: span self times cover "
            f"{out['trace.coverage']:.3f} of the traced wall time")
    out.update(_structure(c1, run))
    # Layer times are shares of the traced operations that contain them.
    context = {
        "setup_s": c1.setups[0],
        "apply_s": statistics.mean(c1.applies),
        "step_s": statistics.mean(c1.steps or [c1.setups[0] + c1.first]),
    }
    out.update(_backend_matrix(run, c1.session))
    out.update(_direct(run, statistics.median(c0.applies)))
    out["backends.evals_per_s"] = (
        out["backends.kernel_evals"] / out["backends.execute_s"])
    n = run.inputs.particles.n
    out["direct.work_ratio"] = out["backends.kernel_evals"] / (n * n)
    return run, out, context


def _structure(c: Cycle, run: Run) -> dict:
    """Deterministic counts of the traced cycle's session."""
    s = c.session
    trees = s.trees if hasattr(s, "trees") else [s.tree]
    batch_sets = s.batch_sets if hasattr(s, "batch_sets") else [s.batches]
    moment_sets = s.moment_sets if hasattr(s, "moment_sets") else [s.moments]
    plans = _plans(s)
    layouts = [p.batched_layout for p in plans if p.batched_layout]
    evals = [p.interactions_total() for p in plans]
    out = {
        "tree.n_nodes": sum(len(t) for t in trees),
        "tree.depth": max(t.max_level for t in trees),
        "tree.n_batches": sum(len(b) for b in batch_sets),
        "moments.n_clusters": sum(m.n_clusters for m in moment_sets),
        "plan.n_segments": sum(p.n_segments for p in plans),
        "plan.coverage": float(np.mean([ly.coverage() for ly in layouts])),
        "plan.padding_waste": float(
            np.mean([ly.padding_waste() for ly in layouts])),
        "backends.kernel_evals": sum(evals),
        "distributed.imbalance": max(evals) / float(np.mean(evals)),
        "mpi.rma_bytes": c.rma[0],
        "mpi.rma_ops": c.rma[1],
    }
    phases = s.phases if isinstance(s.phases, list) else [s.phases]
    res = c.apply_result
    agg = (res.aggregate_phases() if hasattr(res, "aggregate_phases")
           else res.phases)
    (l0, b0), (l1, b1) = c.counters
    out.update({
        "device.sim_setup_s": max(p.setup for p in phases),
        "device.sim_precompute_s": agg.precompute,
        "device.sim_compute_s": agg.compute,
        "device.launches": l1 - l0,
        "device.bytes_h2d": b1 - b0,
    })
    return out


def _backend_matrix(run: Run, session) -> dict:
    """Each backend's execute time on the same prepared plans after one
    warm-up execute; all must agree with the batched potentials."""
    wl = run.wl
    kernel = run.driver.kernel
    plans = _plans(session)
    devs = _devices(session)
    mp = repro.MultiprocessingBackend(n_workers=os.cpu_count() or 1)
    out, phis = {}, {}
    try:
        for name in MATRIX:
            b = mp if name == "multiprocessing" else get_backend(name)
            for timed in (False, True):
                t0 = perf_counter()
                phi = [
                    b.execute(p, kernel, d, dtype=np.float64,
                              compute_forces=wl.forces)[0]
                    for p, d in zip(plans, devs)
                ]
                dt = perf_counter() - t0
            out[f"backends.execute_s.{name}"] = dt
            phis[name] = np.concatenate(phi)
    finally:
        mp.close()
    for name, phi in phis.items():
        err = relative_error(phi, phis["batched"])
        if not err <= wl.tol:
            run.failures.append(
                f"{wl.name}: backend {name} differs from batched by {err:.3g}")
    return out


def _direct(run: Run, apply_s: float) -> dict:
    """Potential-only O(N^2) direct sum through ``repro.direct_sum``."""
    x = run.inputs.particles.positions
    t0 = perf_counter()
    repro.direct_sum(x, x, run.inputs.charges[0], run.driver.kernel)
    dt = perf_counter() - t0
    return {"direct.direct_sum_s": dt, "direct.vs_direct": dt / apply_s}
