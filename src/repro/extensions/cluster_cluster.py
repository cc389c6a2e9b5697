"""Barycentric cluster-cluster treecode via dual tree traversal.

The last of the paper's Sec. 5 treecode variants ("barycentric
cluster-particle and cluster-cluster treecodes", refs. [30]-[32]; the
authors later published this as the BLDTT).  Both the targets and the
sources carry cluster trees; a dual traversal classifies node pairs
(T, S):

* MAC passes and both clusters are large enough -- *cluster-cluster*:
  the source cluster's modified charges interact with the target
  cluster's Chebyshev grid, ``psi^T_k += sum_m G(t_k, s_m) qhat^S_m``,
  at O((n+1)^6) cost independent of the cluster populations;
* MAC passes but only the source side is large -- *particle-cluster*
  (the BLTC interaction): targets interact with the source grid;
* MAC passes but only the target side is large -- *cluster-particle*:
  source particles accumulate onto the target grid;
* MAC passes and neither side qualifies, or the MAC fails at two leaves
  -- *direct*;
* otherwise the larger node is split and the traversal recurses.

A final interpolation pass sends each target cluster's accumulated grid
potentials to its own particles with the barycentric basis.  The scheme
reduces the asymptotic complexity from O(N log N) toward O(N), which is
why it is the natural next step after the BLTC.

The four pair classes are compiled into one
:class:`~repro.core.plan.ExecutionPlan` -- one group per receiving
target block (a target cluster's Chebyshev grid for cc/cp pairs, a
target node's particles for pc/direct pairs), one segment per
contributing source block -- and executed by the backend named in
``params.backend``, sharing the launch-charging path with the BLTC.

Geometry vs. charges: the trees, traversal classification, group
structure, source-cluster Chebyshev grids and downward-interpolation
basis all depend only on positions.  :meth:`DualTreeTreecode.prepare`
captures them once; :meth:`PreparedDualTree.apply` re-moments the
source clusters on the cached grids and rewrites the plan's weight
buffer in place per charge vector.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_PARAMS, TreecodeParams
from ..core.backends import get_backend
from ..core.dynamic import GeometryUpdateResult, RebuildGeometryUpdater
from ..core.mac import mac_geometric
from ..core.moments import prepare_moment_grids
from ..core.plan import PlanBuilder
from ..core.session import (
    DualTreeWeightSource,
    GeometryState,
    SessionCore,
    format_health_stats,
    format_memory_stats,
)
from ..core.treecode import TreecodeResult
from ..gpu.device import make_device
from ..interpolation.grid import ChebyshevGrid3D
from ..kernels.base import Kernel
from ..perf.machine import GPU_TITAN_V, MachineSpec
from ..perf.timer import PhaseTimes, Stopwatch
from ..tree.octree import ClusterTree
from ..workloads import ParticleSet
from ._downward import downward_basis, downward_pass, target_positions

__all__ = ["DualTreeTreecode", "PreparedDualTree"]


class _DTGeometry:
    """Charge-independent state of one dual-tree evaluation."""

    __slots__ = (
        "s_tree", "t_tree", "cc_pairs", "pc_pairs", "cp_pairs",
        "direct_pairs", "mac_evals", "t_grids", "grid_groups",
        "node_groups", "group_keys", "group_segs", "grid_slot",
        "n_targets", "target_pos", "source_pos",
    )


class DualTreeTreecode:
    """Barycentric cluster-cluster treecode (dual tree traversal).

    ``max_leaf_size`` caps the source tree, ``max_batch_size`` the target
    tree (mirroring the BLTC's NL/NB roles).  ``prepare``/``apply`` split
    the evaluation along the charge-dependence boundary for repeated
    evaluation; ``compute`` is ``prepare`` + one ``apply``.
    """

    def __init__(
        self,
        kernel: Kernel,
        params: TreecodeParams = DEFAULT_PARAMS,
        *,
        machine: MachineSpec = GPU_TITAN_V,
        async_streams: bool = True,
    ) -> None:
        self.kernel = kernel
        self.params = params
        self.machine = machine
        self.async_streams = bool(async_streams)

    # ------------------------------------------------------------------
    # Geometry: trees, dual traversal, receiving-group structure
    # ------------------------------------------------------------------
    def _build_trees(self, source_pos, target_pos) -> _DTGeometry:
        params = self.params
        g = _DTGeometry()
        g.source_pos = source_pos
        g.target_pos = target_pos
        g.n_targets = target_pos.shape[0]
        g.s_tree = ClusterTree(
            source_pos,
            params.max_leaf_size,
            aspect_ratio_splitting=params.aspect_ratio_splitting,
            shrink_to_fit=params.shrink_to_fit,
        )
        g.t_tree = ClusterTree(
            target_pos,
            params.max_batch_size,
            aspect_ratio_splitting=params.aspect_ratio_splitting,
            shrink_to_fit=params.shrink_to_fit,
        )
        return g

    def _traverse(self, g: _DTGeometry) -> None:
        """Dual traversal -> the four classified pair lists."""
        params = self.params
        n_ip = params.n_interpolation_points
        g.cc_pairs = []
        g.pc_pairs = []
        g.cp_pairs = []
        g.direct_pairs = []
        g.mac_evals = 0
        stack = [(0, 0)]
        while stack:
            ti, si = stack.pop()
            t_nd = g.t_tree.nodes[ti]
            s_nd = g.s_tree.nodes[si]
            dist = float(np.linalg.norm(t_nd.center - s_nd.center))
            g.mac_evals += 1
            if mac_geometric(t_nd.radius, s_nd.radius, dist, params.theta):
                s_ok = (not params.size_check) or n_ip < s_nd.count
                t_ok = (not params.size_check) or n_ip < t_nd.count
                if s_ok and t_ok:
                    g.cc_pairs.append((ti, si))
                elif s_ok:
                    g.pc_pairs.append((ti, si))
                elif t_ok:
                    g.cp_pairs.append((ti, si))
                else:
                    g.direct_pairs.append((ti, si))
                continue
            t_leaf = t_nd.is_leaf
            s_leaf = s_nd.is_leaf
            if t_leaf and s_leaf:
                g.direct_pairs.append((ti, si))
            elif s_leaf or (not t_leaf and t_nd.radius >= s_nd.radius):
                stack.extend((c, si) for c in t_nd.children)
            else:
                stack.extend((ti, c) for c in s_nd.children)

    def _build_groups(self, g: _DTGeometry) -> None:
        """Group the four pair classes by receiving target block.

        Grid groups (cluster Chebyshev grids, fed by cc and cp pairs)
        accumulate into psi rows appended after the particle outputs;
        particle groups (target nodes, fed by pc and direct pairs)
        accumulate straight into the potentials.  The four passes append
        in a fixed order, so each group's segments are kind-contiguous
        by construction.  Segments reference their source block by key
        (``("moments", si)`` or ``("particles", si)``) -- the shared
        gather's dedup key and the prepared session's weight-refresh
        key.
        """
        params = self.params
        n_ip = params.n_interpolation_points
        g.t_grids = {}
        g.grid_groups = {}
        g.node_groups = {}
        g.group_keys = []
        g.group_segs = []

        def grid_group(ti: int) -> int:
            grp = g.grid_groups.get(ti)
            if grp is None:
                nd = g.t_tree.nodes[ti]
                g.t_grids[ti] = ChebyshevGrid3D.for_box(
                    nd.box.lo, nd.box.hi, params.degree
                )
                grp = len(g.group_keys)
                g.grid_groups[ti] = grp
                g.group_keys.append(("grid", ti))
                g.group_segs.append([])
            return grp

        def node_group(ti: int) -> int:
            grp = g.node_groups.get(ti)
            if grp is None:
                grp = len(g.group_keys)
                g.node_groups[ti] = grp
                g.group_keys.append(("node", ti))
                g.group_segs.append([])
            return grp

        for ti, si in g.cc_pairs:
            g.group_segs[grid_group(ti)].append(
                ("cluster-cluster", ("moments", si), n_ip)
            )
        for ti, si in g.pc_pairs:
            g.group_segs[node_group(ti)].append(
                ("particle-cluster", ("moments", si), n_ip)
            )
        for ti, si in g.cp_pairs:
            g.group_segs[grid_group(ti)].append(
                ("cluster-particle", ("particles", si),
                 g.s_tree.nodes[si].count)
            )
        for ti, si in g.direct_pairs:
            g.group_segs[node_group(ti)].append(
                ("direct", ("particles", si), g.s_tree.nodes[si].count)
            )

    def _compile_plan(self, g: _DTGeometry, moments, *, numerics: bool):
        """Compile the four pair classes into one geometry-only plan;
        each apply fills the weights through the segments' share keys."""
        params = self.params
        n_ip = params.n_interpolation_points
        builder = PlanBuilder(
            g.n_targets + n_ip * len(g.t_grids),
            numerics=numerics,
            deferred_weights=True,
            batched=params.batched,
        )
        g.grid_slot = {}
        next_row = g.n_targets
        for grp, (key, ti) in enumerate(g.group_keys):
            if key == "grid":
                rows = np.arange(next_row, next_row + n_ip, dtype=np.intp)
                g.grid_slot[ti] = next_row
                next_row += n_ip
                if numerics:
                    builder.add_group(
                        targets=g.t_grids[ti].points, out_index=rows
                    )
                else:
                    builder.add_group(size=n_ip)
            else:
                if numerics:
                    idx = g.t_tree.node_indices(ti)
                    builder.add_group(
                        targets=g.target_pos[idx], out_index=idx
                    )
                else:
                    builder.add_group(size=g.t_tree.nodes[ti].count)
            for kind, skey, size in g.group_segs[grp]:
                if not numerics:
                    builder.add_segment(kind, size=size)
                    continue
                if builder.has_shared(skey):
                    builder.add_segment(kind, share_key=skey)
                    continue
                what, si = skey
                if what == "moments":
                    pts = moments.grid(si).points
                else:
                    pts = g.source_pos[g.s_tree.node_indices(si)]
                builder.add_segment(kind, points=pts, share_key=skey)
        return builder.build()

    def _build_geometry_state(
        self, source_pos, target_pos, device, phases, *,
        numerics: bool, cache_basis: bool,
    ):
        """Build the full charge-independent geometry on ``device``.

        The body of :meth:`prepare`, shared with the rebuild updater:
        charges the setup phase for both tree builds, the position
        upload (charges travel per apply) and the dual traversal, then
        builds the source clusters' Chebyshev grids (with the Lagrange
        basis when ``cache_basis``), the receiving groups, the plan
        skeleton and the downward interpolation basis.  Returns
        ``(GeometryState, basis)``.
        """
        g = self._build_trees(source_pos, target_pos)
        device.host_work(
            source_pos.shape[0] * (g.s_tree.max_level + 1)
            + target_pos.shape[0] * (g.t_tree.max_level + 1)
        )
        phases.setup += device.take_phase()
        device.upload(source_pos.nbytes + target_pos.nbytes)
        self._traverse(g)
        device.host_work(g.mac_evals * 4)
        phases.setup += device.take_phase()
        moments = prepare_moment_grids(
            g.s_tree, self.params, numerics=numerics, cache_basis=cache_basis
        )
        self._build_groups(g)
        plan = self._compile_plan(g, moments, numerics=numerics)
        basis = (
            downward_basis(g.t_tree, g.t_grids, g.target_pos)
            if numerics else {}
        )
        state = GeometryState(plan=plan, tree=g.s_tree, moments=moments, aux=g)
        return state, basis

    # -- dynamic-geometry hooks (see repro.core.dynamic) ----------------
    def _session_positions(self, core):
        """(source, target) position arrays of a prepared session."""
        g = core.geometry.aux
        return g.source_pos, g.target_pos

    def _rebuild_geometry_state(self, core, source_pos, target_pos, phases):
        """Rebuild the full geometry on the session's device, charging
        the same setup work as :meth:`prepare`."""
        moments = core.geometry.moments
        return self._build_geometry_state(
            source_pos, target_pos, core.device, phases,
            numerics=core.geometry.plan.has_numerics,
            cache_basis=bool(moments.basis) or not moments.grids,
        )

    def _downward_pass(
        self, g, basis, out_flat, out, device, *, numerics: bool = True
    ) -> None:
        downward_pass(
            self.params, g.t_tree, g.t_grids, g.grid_slot, basis,
            out_flat, out, device, numerics=numerics,
        )

    def _stats(self, g: _DTGeometry, n_sources: int, device) -> dict:
        c = device.counters
        return {
            "kernel": self.kernel.name,
            "machine": self.machine.name,
            "scheme": "cluster-cluster (dual tree traversal)",
            "n_sources": n_sources,
            "n_targets": g.n_targets,
            "n_source_nodes": len(g.s_tree),
            "n_target_nodes": len(g.t_tree),
            "n_cc_pairs": len(g.cc_pairs),
            "n_pc_pairs": len(g.pc_pairs),
            "n_cp_pairs": len(g.cp_pairs),
            "n_direct_pairs": len(g.direct_pairs),
            "mac_evals": g.mac_evals,
            "launches": c.launches,
            "kernel_evaluations": c.interactions,
            "by_kind": {k: tuple(v) for k, v in c.by_kind.items()},
            "busy_by_kind": dict(c.busy_by_kind),
        }

    # ------------------------------------------------------------------
    def compute(
        self,
        sources: ParticleSet,
        targets: np.ndarray | ParticleSet | None = None,
    ) -> TreecodeResult:
        """Potential at every target due to all sources.

        Implemented as :meth:`prepare` + one
        :meth:`PreparedDualTree.apply`; the phases are the prepare
        phases plus the apply phases.  The one-shot run does not cache
        the source clusters' Lagrange basis (each is used once).
        """
        session = self._prepare(sources, targets, cache_basis=False)
        result = session.apply(sources.charges)
        result.phases = session.phases + result.phases
        result.wall_seconds += session.wall_seconds
        return result

    def prepare(
        self,
        sources: ParticleSet,
        targets: np.ndarray | ParticleSet | None = None,
    ) -> "PreparedDualTree":
        """Capture the charge-independent state for repeated evaluation.

        Builds both trees, runs the dual traversal, caches the source
        clusters' Chebyshev grids (with Lagrange basis), the receiving
        groups, the geometry-only plan skeleton and the downward
        interpolation basis; setup is charged here once.  Each
        :meth:`PreparedDualTree.apply` then charges the charge upload,
        the moment kernels and the compute phase.
        """
        return self._prepare(sources, targets, cache_basis=True)

    def _prepare(self, sources, targets, *, cache_basis: bool):
        """Body of :meth:`prepare`; :meth:`compute` skips the basis
        cache."""
        params = self.params
        numerics = get_backend(params.backend).needs_numerics
        device = make_device(self.machine, async_streams=self.async_streams)
        phases = PhaseTimes()
        watch = Stopwatch()
        with watch:
            geometry, basis = self._build_geometry_state(
                sources.positions, target_positions(sources, targets),
                device, phases, numerics=numerics, cache_basis=cache_basis,
            )
        core = SessionCore(
            kernel=self.kernel,
            params=params,
            backend=params.backend,
            device=device,
            geometry=geometry,
            weight_source=DualTreeWeightSource(),
            n_charges=sources.n,
            # The dual-tree scheme consumes modified charges on-device.
            moments_download=False,
            geometry_updater=RebuildGeometryUpdater(self),
        )
        return PreparedDualTree(
            driver=self,
            core=core,
            basis=basis,
            phases=phases,
            wall_seconds=watch.elapsed,
        )


class PreparedDualTree:
    """A dual-tree session with fixed geometry (see ``prepare``).

    Session state lives in the shared
    :class:`~repro.core.session.SessionCore` (``.core``); this shell
    adds the downward interpolation pass after the plan execution.
    """

    def __init__(
        self, *, driver, core, basis, phases, wall_seconds,
    ) -> None:
        self.driver = driver
        self.core = core
        self.basis = basis
        #: Setup-phase cost charged once at prepare time.
        self.phases = phases
        self.wall_seconds = wall_seconds

    # -- session-core delegation ---------------------------------------
    @property
    def backend(self):
        return self.core.backend

    @property
    def device(self):
        return self.core.device

    @property
    def geometry(self):
        return self.core.geometry.aux

    @property
    def moments(self):
        return self.core.geometry.moments

    @property
    def plan(self):
        return self.core.geometry.plan

    @property
    def n_sources(self) -> int:
        return self.core.n_charges

    @property
    def n_applies(self) -> int:
        return self.core.n_applies

    def geometry_key(self) -> str:
        """Stable content hash of the prepared geometry (cache key)."""
        return self.core.geometry_key()

    def memory_stats(self) -> dict:
        """Resident bytes by category (see ``SessionCore.memory_stats``)."""
        return self.core.memory_stats()

    def health_stats(self) -> dict:
        """Fault-tolerance counters (see ``SessionCore.health_stats``)."""
        return self.core.health_stats()

    def update_geometry(
        self,
        new_positions: np.ndarray,
        *,
        targets: np.ndarray | None = None,
    ) -> GeometryUpdateResult:
        """Move the session to new particle positions.

        The dual-tree scheme rebuilds its geometry wholesale (see
        :class:`~repro.core.dynamic.RebuildGeometryUpdater`) -- same
        bitwise-parity guarantee as the BLTC's incremental path,
        without the patching machinery.  The refreshed downward basis
        replaces ``self.basis``.
        """
        result = self.core.update_geometry(new_positions, targets=targets)
        if result.basis is not None:
            self.basis = result.basis
        if result.phases is not None:
            self.phases += result.phases
        self.wall_seconds += result.wall_seconds
        return result

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"<PreparedDualTree n_sources={self.n_sources} "
            f"n_targets={g.n_targets} n_applies={self.n_applies} "
            f"{format_memory_stats(self.memory_stats())} "
            f"{format_health_stats(self.health_stats())}>"
        )

    def apply(self, charges: np.ndarray) -> TreecodeResult:
        """Evaluate the prepared geometry for one or many charge vectors.

        Re-moments the source clusters on the cached grids (the moment
        kernels are charged per apply), rewrites the plan's weight
        buffer in place and runs the accumulation + downward
        interpolation; no setup time is charged.  An ``(N, n_rhs)`` block evaluates every column in one
        pass and returns an ``(M, n_rhs)`` potential, column ``j``
        bitwise equal to a solo apply of ``charges[:, j]``.
        """
        driver = self.driver
        core = self.core
        g = self.geometry
        charges, multi, n_rhs = core.charge_block(charges)
        device = core.device
        numerics = core.plan.has_numerics
        phases = PhaseTimes()
        watch = Stopwatch()

        with watch:
            core.precompute(charges, phases, numerics=numerics, n_rhs=n_rhs)
            out_flat, _ = core.execute_plan(
                charges, phases, numerics=numerics,
                multi=multi, n_rhs=n_rhs, download_potentials=False,
            )
            out = out_flat[:g.n_targets].copy()

            driver._downward_pass(
                g, self.basis, out_flat, out, device, numerics=numerics
            )
            device.download(out.nbytes)
            phases.compute += device.take_phase()

        core.n_applies += 1
        stats = driver._stats(g, self.n_sources, device)
        stats["n_applies"] = core.n_applies
        return TreecodeResult(
            potential=out,
            phases=phases,
            wall_seconds=watch.elapsed,
            stats=stats,
        )
