"""Barycentric cluster-particle treecode (paper Sec. 5 / refs. [30-32]).

The BLTC approximates *particle-cluster* interactions by interpolating
the kernel with respect to the source variable (eq. 8).  The
cluster-particle scheme is the transpose: interpolate with respect to the
*target* variable over clusters of targets,

    phi(x) ~ sum_k L_k1(x_1) L_k2(x_2) L_k3(x_3) psi_k,
    psi_k  = sum_{y_j in S} G(t_k, y_j) q_j,

where ``t_k`` are Chebyshev grid points spanning the target cluster's box
and S is a well-separated batch of sources.  The scheme proceeds in three
stages, each with the same direct-sum structure that made the BLTC
GPU-friendly:

1. *Traversal* -- batches of sources are traversed against the target
   cluster tree under the same two-condition MAC (the size condition now
   compares ``(n+1)^3`` against the number of *targets* in the cluster).
2. *Accumulation* -- accepted (cluster, batch) pairs add kernel sums into
   the cluster's grid potentials ``psi_k``; failed leaf pairs add
   directly into the leaf targets' potentials.  This stage is compiled
   into an :class:`~repro.core.plan.ExecutionPlan` -- one group per
   receiving target block (a cluster's Chebyshev grid or a leaf's
   particles), one segment per contributing source batch -- and executed
   by the backend named in ``params.backend``, exactly like the BLTC's
   compute phase.
3. *Downward interpolation* -- each cluster's accumulated ``psi`` is
   interpolated to its own target particles with the barycentric basis
   (removable singularities handled as in Sec. 2.3).

Cluster-particle is advantageous when there are many more targets than
sources (Boateng & Krasny, ref. [32]); the ablation benchmark exercises
exactly that regime.

Every piece of the scheme except the source charges is geometry:
:meth:`ClusterParticleTreecode.prepare` captures the trees, traversal
lists, receiving-group structure, plan skeleton and the downward
interpolation basis once, and
:meth:`PreparedClusterParticle.apply` re-evaluates for new charges by
refreshing the plan's weight buffer in place (a source batch's weights
are just its charges -- this scheme has no moment stage).
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_PARAMS, TreecodeParams
from ..core.backends import get_backend
from ..core.dynamic import GeometryUpdateResult, RebuildGeometryUpdater
from ..core.interaction_lists import LocalTreeAdapter, traverse_batch
from ..core.treecode import TreecodeResult
from ..core.plan import PlanBuilder
from ..core.session import (
    BatchChargeWeightSource,
    GeometryState,
    SessionCore,
    format_health_stats,
    format_memory_stats,
)
from ..gpu.device import make_device
from ..interpolation.grid import ChebyshevGrid3D
from ..kernels.base import Kernel
from ..perf.machine import GPU_TITAN_V, MachineSpec
from ..perf.timer import PhaseTimes, Stopwatch
from ..tree.batches import TargetBatches
from ..tree.octree import ClusterTree
from ..workloads import ParticleSet
from ._downward import downward_basis, downward_pass, target_positions

__all__ = ["ClusterParticleTreecode", "PreparedClusterParticle"]


class _CPGeometry:
    """Charge-independent state of one cluster-particle evaluation."""

    __slots__ = (
        "tree", "batches", "lists", "mac_evals", "grids",
        "group_keys", "group_batches", "grid_groups", "direct_groups",
        "grid_slot", "n_targets", "target_pos",
    )


class ClusterParticleTreecode:
    """Kernel-independent barycentric cluster-particle treecode.

    API mirrors :class:`~repro.core.treecode.BarycentricTreecode`:
    ``compute(sources, targets)`` returns a :class:`TreecodeResult`, and
    ``prepare(sources, targets)`` opens a charge-refreshable session.
    ``max_leaf_size`` caps *target* clusters; ``max_batch_size`` caps
    *source* batches.
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
    # Geometry: traversal + receiving-group structure (charge-free)
    # ------------------------------------------------------------------
    def _build_geometry(
        self, source_pos: np.ndarray, target_pos: np.ndarray
    ) -> _CPGeometry:
        """Trees, traversal lists and receiving groups; no device events."""
        params = self.params
        g = _CPGeometry()
        g.target_pos = target_pos
        g.n_targets = target_pos.shape[0]
        g.tree = ClusterTree(
            target_pos,
            params.max_leaf_size,
            aspect_ratio_splitting=params.aspect_ratio_splitting,
            shrink_to_fit=params.shrink_to_fit,
        )
        g.batches = TargetBatches(
            source_pos,
            params.max_batch_size,
            aspect_ratio_splitting=params.aspect_ratio_splitting,
            shrink_to_fit=params.shrink_to_fit,
        )
        adapter = LocalTreeAdapter(g.tree)
        g.lists = []
        g.mac_evals = 0
        for b in range(len(g.batches)):
            node = g.batches.batch(b)
            approx, direct, evals = traverse_batch(
                node.center, node.radius, adapter, params
            )
            g.lists.append((approx, direct))
            g.mac_evals += evals

        # Group the accepted pairs by receiving target block.
        # Approximated target clusters receive on their Chebyshev grids
        # (output rows beyond n_targets); failed leaf pairs receive on
        # the leaf's own particles.
        g.grids = {}
        g.grid_groups = {}
        g.direct_groups = {}
        g.group_keys = []
        g.group_batches = []
        for b, (approx, direct) in enumerate(g.lists):
            for c in approx:
                grp = g.grid_groups.get(c)
                if grp is None:
                    nd = g.tree.nodes[c]
                    g.grids[c] = ChebyshevGrid3D.for_box(
                        nd.box.lo, nd.box.hi, params.degree
                    )
                    grp = len(g.group_keys)
                    g.grid_groups[c] = grp
                    g.group_keys.append(("approx", c))
                    g.group_batches.append([])
                g.group_batches[grp].append(b)
            for c in direct:
                grp = g.direct_groups.get(c)
                if grp is None:
                    grp = len(g.group_keys)
                    g.direct_groups[c] = grp
                    g.group_keys.append(("direct", c))
                    g.group_batches.append([])
                g.group_batches[grp].append(b)
        return g

    def _compile_plan(self, g: _CPGeometry, *, numerics: bool):
        """Compile the geometry-only accumulation plan over the
        receiving groups.

        The share key of every segment is its source-batch index (the
        same rows serve approx and direct receivers), which doubles as
        the weight-refresh key through which each apply fills the
        weight buffer with that batch's charges.
        """
        params = self.params
        n_ip = params.n_interpolation_points
        grid_rows = n_ip * len(g.grids)
        builder = PlanBuilder(
            g.n_targets + grid_rows,
            numerics=numerics,
            deferred_weights=True,
            batched=params.batched,
        )
        src_points_cache: dict[int, np.ndarray] = {}
        g.grid_slot = {}
        next_row = g.n_targets
        for grp, (kind, c) in enumerate(g.group_keys):
            if kind == "approx":
                rows = np.arange(next_row, next_row + n_ip, dtype=np.intp)
                g.grid_slot[c] = next_row
                next_row += n_ip
                if numerics:
                    builder.add_group(
                        targets=g.grids[c].points, out_index=rows
                    )
                else:
                    builder.add_group(size=n_ip)
            else:
                idx = g.tree.node_indices(c)
                if numerics:
                    builder.add_group(
                        targets=g.target_pos[idx], out_index=idx
                    )
                else:
                    builder.add_group(size=idx.shape[0])
            for b in g.group_batches[grp]:
                if not numerics:
                    builder.add_segment(kind, size=g.batches.batch(b).count)
                elif builder.has_shared(b):
                    builder.add_segment(kind, share_key=b)
                else:
                    pts = src_points_cache.get(b)
                    if pts is None:
                        pts = g.batches.batch_points(b)
                        src_points_cache[b] = pts
                    builder.add_segment(kind, points=pts, share_key=b)
        return builder.build()

    def _build_geometry_state(
        self, source_pos, target_pos, device, phases, *, numerics: bool
    ):
        """Build the full charge-independent geometry on ``device``.

        The body of :meth:`prepare`, shared with the rebuild updater:
        charges the setup phase for the tree builds, the position
        upload (charges travel per apply) and the traversal, compiles
        the plan skeleton and evaluates the downward interpolation
        basis.  Returns ``(GeometryState, basis)``.
        """
        g = self._build_geometry(source_pos, target_pos)
        device.host_work(
            g.n_targets * (g.tree.max_level + 1)
            + source_pos.shape[0] * (g.batches.max_level + 1)
        )
        phases.setup += device.take_phase()
        device.upload(source_pos.nbytes + target_pos.nbytes)
        device.host_work(g.mac_evals * 4)
        phases.setup += device.take_phase()
        plan = self._compile_plan(g, numerics=numerics)
        basis = (
            downward_basis(g.tree, g.grids, g.target_pos) if numerics else {}
        )
        state = GeometryState(
            plan=plan, tree=g.tree, batches=g.batches, lists=g.lists, aux=g
        )
        return state, basis

    # -- dynamic-geometry hooks (see repro.core.dynamic) ----------------
    def _session_positions(self, core):
        """(source, target) position arrays of a prepared session."""
        g = core.geometry.aux
        return g.batches.positions, g.target_pos

    def _rebuild_geometry_state(self, core, source_pos, target_pos, phases):
        """Rebuild the full geometry on the session's device, charging
        the same setup work as :meth:`prepare`."""
        return self._build_geometry_state(
            source_pos, target_pos, core.device, phases,
            numerics=core.geometry.plan.has_numerics,
        )

    def _downward_pass(
        self, g, basis, out_flat, out, device, *, numerics: bool = True
    ) -> None:
        downward_pass(
            self.params, g.tree, g.grids, g.grid_slot, basis,
            out_flat, out, device, numerics=numerics,
        )

    def _stats(self, g: _CPGeometry, n_sources: int, device) -> dict:
        n_approx = sum(
            len(g.group_batches[grp]) for grp in g.grid_groups.values()
        )
        n_direct = sum(
            len(g.group_batches[grp]) for grp in g.direct_groups.values()
        )
        c = device.counters
        return {
            "kernel": self.kernel.name,
            "machine": self.machine.name,
            "scheme": "cluster-particle",
            "n_sources": n_sources,
            "n_targets": g.n_targets,
            "n_tree_nodes": len(g.tree),
            "n_batches": len(g.batches),
            "n_approx_interactions": n_approx,
            "n_direct_interactions": n_direct,
            "n_clusters_with_grid": len(g.grids),
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
        :meth:`PreparedClusterParticle.apply`; the phases are the
        prepare phases plus the apply phases.
        """
        session = self.prepare(sources, targets)
        result = session.apply(sources.charges)
        result.phases = session.phases + result.phases
        result.wall_seconds += session.wall_seconds
        return result

    def prepare(
        self,
        sources: ParticleSet,
        targets: np.ndarray | ParticleSet | None = None,
    ) -> "PreparedClusterParticle":
        """Capture the charge-independent state for repeated evaluation.

        Ships the positions, runs the traversal, compiles the
        geometry-only plan skeleton and caches the downward
        interpolation basis; the setup phase is charged here once.
        Each :meth:`PreparedClusterParticle.apply` then costs only the
        charge upload, the accumulation launches and the downward pass.
        """
        params = self.params
        numerics = get_backend(params.backend).needs_numerics
        device = make_device(self.machine, async_streams=self.async_streams)
        phases = PhaseTimes()
        watch = Stopwatch()
        with watch:
            geometry, basis = self._build_geometry_state(
                sources.positions, target_positions(sources, targets),
                device, phases, numerics=numerics,
            )
        core = SessionCore(
            kernel=self.kernel,
            params=params,
            backend=params.backend,
            device=device,
            geometry=geometry,
            weight_source=BatchChargeWeightSource(),
            n_charges=sources.n,
            geometry_updater=RebuildGeometryUpdater(self),
        )
        return PreparedClusterParticle(
            driver=self,
            core=core,
            basis=basis,
            phases=phases,
            wall_seconds=watch.elapsed,
        )


class PreparedClusterParticle:
    """A cluster-particle session with fixed geometry (see ``prepare``).

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

        The cluster-particle scheme rebuilds its geometry wholesale
        (see :class:`~repro.core.dynamic.RebuildGeometryUpdater`) --
        same bitwise-parity guarantee as the BLTC's incremental path,
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
            f"<PreparedClusterParticle n_sources={self.n_sources} "
            f"n_targets={g.n_targets} n_applies={self.n_applies} "
            f"{format_memory_stats(self.memory_stats())} "
            f"{format_health_stats(self.health_stats())}>"
        )

    def apply(self, charges: np.ndarray) -> TreecodeResult:
        """Evaluate the prepared geometry for one or many charge vectors.

        Uploads the charges, rewrites the plan's weight buffer in place
        (a segment's weights are its source batch's charges) and runs
        the accumulation + downward interpolation; no setup time is
        charged.  An ``(N, n_rhs)`` block evaluates every column in one
        pass and returns an ``(M, n_rhs)`` potential, column ``j``
        bitwise equal to a solo apply of ``charges[:, j]``.
        """
        driver = self.driver
        core = self.core
        g = self.geometry
        charges, multi, n_rhs = core.charge_block(charges)
        device = core.device
        phases = PhaseTimes()
        watch = Stopwatch()
        numerics = core.plan.has_numerics

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
