#!/usr/bin/env python3
"""Wall-clock benchmark of the barycentric Lagrange treecode.

Run from the repository root::

    python3 perfbench/run.py --workload md_yukawa --seed 1 --seconds 50
    python3 perfbench/run.py --workload rcb_let --seed 1 --trace 1
    python3 perfbench/run.py --seed 1          # every workload in turn

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that reports per-layer
metrics.  Each workload runs in its own process (``--workload all``
starts one per workload), and the library under test is imported from
``src/`` next to this directory.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any check fails.  Nothing is written to
disk.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("paper_default", "small_batches", "md_yukawa", "rcb_let")
END_TO_END = (
    "setup_s", "first_apply_s", "apply_s", "step_s", "err_digits",
    "peak_rss_mb", "session_mb", "ok_frac",
)


def _pin_threads() -> int:
    """Run BLAS/OpenMP single-threaded (set before numpy loads).

    The load is one caller on one core.  On a shared two-core host a
    second BLAS thread left apply times no shorter but let them swing
    with whatever else ran on the other core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the library sources; identifies a checkout that is
    not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(SRC):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or None


def provenance(seed: int, blas_threads: int, load_start: float) -> dict:
    import numpy as np

    import repro

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in
                ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "mp_workers": os.cpu_count(),
        "numba": "numba" in repro.available_backends(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def _unit(name: str) -> str:
    if name.endswith("evals_per_s"):
        return "1/s"
    if name.endswith("_s") or ".execute_s." in name:
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith(("frac", "coverage", "padding_waste", "imbalance",
                      "vs_direct", "work_ratio")):
        return "ratio"
    return "count"


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _report_end_to_end(metrics: dict, run) -> None:
    for name in END_TO_END:
        m = metrics.get(name)
        if m is None:
            print(f"  {name:<16} missing (the run aborted)")
            continue
        tail = (f"p{m['tail'][0]}={_fmt(m['tail'][1])}" if m["tail"]
                else "no tail percentile (<40 samples)")
        print(f"  {name:<16} {_fmt(m['value']):>12} {m['unit']:<6} "
              f"median of n={m['n']}; {tail}")
    print(f"  {'rel_err':<16} {_fmt(run.final_err):>12} {'ratio':<6} "
          f"eq. 16 at {len(run.inputs.sample)} sampled targets, last "
          f"operation of the first cycle (err_digits = -log10 rel_err)")
    failed_frac = len(run.failures) / max(1, run.attempted)
    print(f"  {'failed_frac':<16} {_fmt(failed_frac):>12} {'ratio':<6} "
          f"{len(run.failures)} of {run.attempted} operations failed")


def _report_trace(metrics: dict, context: dict) -> None:
    for name in sorted(metrics):
        print(f"  {name:<34} {_fmt(metrics[name]):>14} {_unit(name)}")
    if not metrics:
        return
    print(f"  backends.execute_s.numba         skipped: "
          f"{'measured elsewhere' if context['numba'] else 'not installed'}")
    setup, apply_s, step = context["setup_s"], context["apply_s"], \
        context["step_s"]
    share = (metrics["interaction_lists.build_s"]
             + metrics["plan.compile_s"]) / setup
    print(f"  map: interaction_lists.build_s + plan.compile_s = "
          f"{share:.0%} of setup_s ({_fmt(setup)} s)")
    print(f"  map: backends.execute_s = "
          f"{metrics['backends.execute_s'] / apply_s:.0%} of apply_s "
          f"({_fmt(apply_s)} s)")
    upd = metrics["dynamic.update_s"]
    print("  map: dynamic.update_s " + (
        f"= {upd / step:.0%} of step_s ({_fmt(step)} s)" if upd
        else "absent (no geometry updates)"))
    print(f"  direct: the treecode does {metrics['direct.work_ratio']:.2f}x "
          f"the kernel evaluations of a direct sum; direct_sum_s / apply_s "
          f"= {metrics['direct.vs_direct']:.2f}")


def _children() -> list[int]:
    """PIDs whose parent is this process (read from /proc/*/stat)."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name is in parentheses and may hold spaces.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def _stop_children() -> None:
    """Stop every process this run started and wait until each ended.

    The multiprocessing backend of the traced run shuts its pool down
    itself, but ``multiprocessing`` keeps a shared-memory resource
    tracker alive until the interpreter exits, and the tracker would
    then outlive this process for a moment.  Unlink any block the
    library still owns, stop the tracker, then kill any other child:
    by now nothing of the run is still working.
    """
    mp = sys.modules.get("repro.core.backends.multiproc")
    if mp is not None:
        mp.audit_shared_memory(reclaim=True)
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def run_one(args) -> int:
    try:
        return _run_one(args)
    finally:
        _stop_children()


def _run_one(args) -> int:
    blas_threads = _pin_threads()
    load_start = os.getloadavg()[0]
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the library sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print(f"== {wl.name}  seed={args.seed}  trace={args.trace}  "
          f"closed loop: 1 caller, 1 process, backend batched")
    print(f"   why: {wl.why}")
    if args.trace:
        run, values, context = measure.trace(wl, args.seed)
        context["numba"] = "numba" in repro.available_backends()
        _report_trace(values, context)
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in values.items()}
    else:
        run, full = measure.measure(wl, args.seed, args.seconds)
        _report_end_to_end(full, run)
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in full.items()}
    for f in run.failures:
        print(f"  FAILED: {f}")
    print("provenance " + json.dumps(
        provenance(args.seed, blas_threads, load_start)))
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            res = json.loads(lines[-1])
        except ValueError:
            return proc.returncode or 1
        total["correct"] &= res["correct"] and proc.returncode == 0
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
