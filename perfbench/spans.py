"""Per-layer spans recorded from outside the library.

:class:`Instrumentation` wraps the layers' public functions where the
drivers import them, and public methods on their classes, with a
:class:`Tracer` span; leaving the ``with`` block restores every
original attribute.  The library itself is not modified.  Spans nest:
each records its parent, and the benchmark opens one root span per
operation (``op.prepare``, ``op.first_apply``, ``op.apply``,
``op.step``) so every layer span is attributed to the operation that
caused it.
"""

from __future__ import annotations

import functools
from time import perf_counter

import repro
import repro.core.dynamic as dynamic_mod
import repro.core.session as session_mod
import repro.core.treecode as treecode_mod
import repro.distributed.driver as distributed_mod
from repro.core.plan import ExecutionPlan
from repro.core.session import SessionCore
from repro.tree.batches import TargetBatches
from repro.tree.octree import ClusterTree

_MISSING = object()


class Span:
    __slots__ = ("name", "parent", "root", "start", "end", "child", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.root = self if parent is None else parent.root
        self.child = 0.0
        self.attrs = None
        self.end = 0.0
        self.start = perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def has_ancestor(self, names) -> bool:
        p = self.parent
        while p is not None:
            if p.name in names:
                return True
            p = p.parent
        return False


class Tracer:
    """In-memory span recorder; spans are kept until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str) -> "_Open":
        return _Open(self, name)

    def roots(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == kind]


class _Open:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        stack = self.tracer._stack
        self.span = Span(self.name, stack[-1] if stack else None)
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        sp = self.span
        sp.end = perf_counter()
        self.tracer._stack.pop()
        if sp.parent is not None:
            sp.parent.child += sp.duration
        self.tracer.spans.append(sp)


def _lists_counts(lists):
    return {
        "mac_evals": lists.mac_evals,
        "n_approx": lists.n_approx,
        "n_direct": lists.n_direct,
    }


def _update_counts(res):
    return {
        "rebuilt": int(res.rebuilt),
        "rebinned_fraction": res.rebinned_fraction,
        "patched_groups": res.n_patched_groups,
    }


_KERNEL_METHODS = (
    "potential", "force",
    "pairwise", "pairwise_fused", "pairwise_batched",
    "pairwise_gradient", "pairwise_gradient_fused",
    "pairwise_gradient_batched", "force_batched",
)


def wrap_targets() -> list:
    """``(owner, attribute, span name, counts)`` for every wrapped layer
    entry point; ``counts`` maps the return value to span attributes."""
    t = [
        (ClusterTree, "__init__", "tree.build", None),
        (TargetBatches, "__init__", "tree.batches", None),
        (ClusterTree, "rebin", "dynamic.rebin", None),
        (TargetBatches, "rebin", "dynamic.rebin", None),
        (ExecutionPlan, "ensure_batched_layout", "plan.layout", None),
        (ExecutionPlan, "refresh_weights", "plan.refresh_weights", None),
        (ExecutionPlan, "patch_groups", "dynamic.patch", None),
        (ExecutionPlan, "refresh_geometry", "dynamic.refresh_geometry", None),
        (SessionCore, "precompute", "session.precompute", None),
        (SessionCore, "execute_plan", "session.execute_plan", None),
        (SessionCore, "update_geometry", "dynamic.update", _update_counts),
        (session_mod, "refresh_moments", "moments.refresh", None),
        (dynamic_mod, "record_traversal", "dynamic.record", None),
        (dynamic_mod, "verify_traversal", "dynamic.verify", None),
        (dynamic_mod, "patch_interaction_lists", "dynamic.patch", None),
        (dynamic_mod, "refresh_moment_geometry", "dynamic.moments", None),
        (distributed_mod, "rcb_partition", "partition.rcb", None),
        (distributed_mod, "build_let_geometry", "distributed.let", None),
        (distributed_mod, "refresh_let_charges", "distributed.let_refresh",
         None),
        # The distributed driver compiles its rank plans in this method
        # rather than through compile_plan.
        (repro.DistributedBLTC, "_compile_rank_plan", "plan.compile", None),
    ]
    for mod in (treecode_mod, distributed_mod):
        t.append((mod, "build_interaction_lists", "interaction_lists.build",
                  _lists_counts))
        t.append((mod, "prepare_moment_grids", "moments.grids", None))
    t.append((treecode_mod, "compile_plan", "plan.compile", None))
    for cls in (repro.NumpyBackend, repro.FusedBackend, repro.BatchedBackend,
                repro.MultiprocessingBackend, repro.ModelBackend):
        t.append((cls, "execute", "backends.execute", None))
    for cls in (repro.CoulombKernel, repro.YukawaKernel):
        for meth in _KERNEL_METHODS:
            t.append((cls, meth, "kernels.eval", None))
    return t


def _wrap(tracer: Tracer, fn, name: str, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
            if counts is not None:
                sp.attrs = counts(out)
            return out

    return traced


def snapshot() -> dict:
    """The current attribute of every wrap target, by identity."""
    return {
        (id(owner), attr): owner.__dict__.get(attr, _MISSING)
        for owner, attr, _, _ in wrap_targets()
    }


class Instrumentation:
    """Installs the wrappers on enter and restores the originals on
    exit, also when the traced block raises."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list = []

    def __enter__(self) -> Tracer:
        for owner, attr, name, counts in wrap_targets():
            own = owner.__dict__.get(attr, _MISSING)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, _wrap(
                self.tracer, getattr(owner, attr), name, counts
            ))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved.clear()


# -- per-layer metrics ---------------------------------------------------

#: metric -> (span name, operation kind, ancestor names that exclude a
#: span).  The value is the time spent in the outermost such spans,
#: averaged over the traced operations of that kind.
LAYER_TIMES = {
    "tree.build_s": ("tree.build", "op.prepare", ("tree.batches",)),
    "tree.batches_s": ("tree.batches", "op.prepare", ()),
    "interaction_lists.build_s": (
        "interaction_lists.build", "op.prepare", ()),
    "moments.grids_s": ("moments.grids", "op.prepare", ()),
    "moments.refresh_s": ("moments.refresh", "op.apply", ()),
    "plan.compile_s": ("plan.compile", "op.prepare", ()),
    "plan.layout_s": ("plan.layout", "op.first_apply", ()),
    "plan.refresh_weights_s": ("plan.refresh_weights", "op.apply", ()),
    "session.precompute_s": ("session.precompute", "op.apply", ()),
    "session.execute_plan_s": ("session.execute_plan", "op.apply", ()),
    "backends.execute_s": ("backends.execute", "op.apply", ()),
    "kernels.eval_s": ("kernels.eval", "op.apply", ()),
    "dynamic.update_s": ("dynamic.update", "op.step", ()),
    "dynamic.rebin_s": ("dynamic.rebin", "op.step", ()),
    "dynamic.record_s": ("dynamic.record", "op.step", ()),
    "dynamic.verify_s": ("dynamic.verify", "op.step", ()),
    "dynamic.patch_s": ("dynamic.patch", "op.step", ()),
    "dynamic.moments_s": ("dynamic.moments", "op.step", ()),
    "dynamic.refresh_geometry_s": (
        "dynamic.refresh_geometry", "op.step", ()),
    "partition.rcb_s": ("partition.rcb", "op.prepare", ()),
    "distributed.let_s": ("distributed.let", "op.prepare", ()),
    "distributed.let_refresh_s": (
        "distributed.let_refresh", "op.apply", ()),
}


def _outermost(tracer: Tracer, name: str, kind: str, exclude=()):
    skip = (name,) + tuple(exclude)
    return [
        s for s in tracer.spans
        if s.name == name and s.root.name == kind
        and not s.has_ancestor(skip)
    ]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-operation layer times and counts from the recorded spans."""
    n_ops = {
        kind: len(tracer.roots(kind))
        for kind in ("op.prepare", "op.first_apply", "op.apply", "op.step")
    }
    out = {}
    for metric, (name, kind, exclude) in LAYER_TIMES.items():
        spans = _outermost(tracer, name, kind, exclude)
        out[metric] = sum(s.duration for s in spans) / max(1, n_ops[kind])
    kernel_calls = _outermost(tracer, "kernels.eval", "op.apply")
    out["kernels.calls"] = len(kernel_calls) / max(1, n_ops["op.apply"])
    lists = _outermost(tracer, "interaction_lists.build", "op.prepare")
    for key in ("mac_evals", "n_approx", "n_direct"):
        out[f"interaction_lists.{key}"] = (
            sum(s.attrs[key] for s in lists) / max(1, n_ops["op.prepare"])
        )
    updates = _outermost(tracer, "dynamic.update", "op.step")
    steps = max(1, n_ops["op.step"])
    out["dynamic.rebuilds"] = sum(s.attrs["rebuilt"] for s in updates) / steps
    out["dynamic.rebinned_frac"] = (
        sum(s.attrs["rebinned_fraction"] for s in updates) / steps
    )
    out["dynamic.patched_groups"] = (
        sum(s.attrs["patched_groups"] for s in updates) / steps
    )
    return out


def coverage(tracer: Tracer, wall: float) -> float:
    """Sum of all span self times over the traced wall time."""
    return sum(s.self_time for s in tracer.spans) / wall
