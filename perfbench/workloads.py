"""The benchmark's four workloads.

Each workload fixes a particle distribution, a kernel, treecode
parameters and one *cycle* of operations.  A cycle is what one caller
does in a closed loop: ``prepare()``, a first ``apply`` on the fresh
session, ``n_applies`` steady applies and, on md_yukawa, ``n_steps``
steps of ``update_geometry`` plus a force apply.  Every cycle repeats
the same operations: md_yukawa's cycles each prepare at the start of
the trajectory and replay its first ``n_steps`` steps, so a run's mix
of incremental and rebuilding updates does not depend on how many
cycles fit in it.  Every workload pins the batched backend.

``BENCHMARK.json`` lists md_yukawa and rcb_let, which between them
reach every layer.  paper_default and small_batches run on request
(``--workload``, or ``--workload all``): on a shared two-core host
their apply and prepare times vary by tens of percent between runs
unless a run measures for longer than the benchmark's time budget
allows for four workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro

from .oracle import reference

#: Yukawa inverse Debye length; the paper's numerical results use 0.5.
KAPPA = 0.5
#: md_yukawa: velocity spread and time step of the drift.
MD_SIGMA = 0.02
MD_DT = 0.001
#: md_yukawa's eight Gaussian blobs (spread 0.08, as in
#: ``repro.gaussian_clusters``) sit at fixed centres 0.45 or more apart.
#: The seed draws the particles, charges and velocities, but not the
#: blob layout, which otherwise moves the run time and the error by
#: tens of percent from one seed to the next.
MD_CENTERS = np.random.default_rng(0).uniform(-1.0, 1.0, (8, 3))
MD_SPREAD = 0.08


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kernel: str
    n: int
    params: dict
    #: Relative 2-norm error an operation must stay below.
    tol: float
    distribution: str = "cube"
    n_ranks: int = 0
    forces: bool = False
    n_applies: int = 1
    n_steps: int = 0
    force_tol: float = 0.0
    #: Targets sampled for the error check (paper Sec. 4, eq. 16).
    n_sample: int = 1000

    def make_kernel(self):
        if self.kernel == "yukawa":
            return repro.YukawaKernel(KAPPA)
        return repro.CoulombKernel()

    def make_driver(self):
        params = repro.TreecodeParams(backend="batched", **self.params)
        if self.n_ranks:
            return repro.DistributedBLTC(
                self.make_kernel(), params, n_ranks=self.n_ranks
            )
        return repro.BarycentricTreecode(self.make_kernel(), params)

    def inputs(self, seed: int, scale: float = 1.0) -> "Inputs":
        """Deterministic inputs for ``seed``; ``scale`` shrinks N."""
        s_part, s_charge, s_vel, s_sample = (
            int(c.generate_state(1)[0])
            for c in np.random.SeedSequence(seed).spawn(4)
        )
        n = max(1, int(round(self.n * scale)))
        if self.distribution == "clusters":
            rng = np.random.default_rng(s_part)
            which = rng.integers(0, len(MD_CENTERS), n)
            pos = MD_CENTERS[which] + rng.normal(0.0, MD_SPREAD, (n, 3))
            particles = repro.ParticleSet(pos, rng.uniform(-1.0, 1.0, n))
        else:
            particles = repro.random_cube(n, seed=s_part)
        velocity = None
        if self.n_steps:
            # MD: charges stay fixed, positions drift every step.
            charges = [particles.charges] * (1 + self.n_applies)
            velocity = np.random.default_rng(s_vel).normal(
                0.0, MD_SIGMA, (n, 3))
        else:
            charges = list(repro.charge_waveform(
                particles, 1 + self.n_applies, seed=s_charge
            ))
        sample = np.sort(np.random.default_rng(s_sample).choice(
            n, size=min(n, self.n_sample), replace=False
        ))
        return Inputs(particles, charges, velocity, sample)


@dataclass
class Inputs:
    """Generated particles, the charge vector of each apply of a cycle,
    the MD velocities (None on static workloads) and the sampled target
    indices."""

    particles: object
    charges: list
    velocity: np.ndarray | None
    sample: np.ndarray

    def position(self, step: int) -> np.ndarray:
        """Particle positions after ``step`` MD steps."""
        x0 = self.particles.positions
        return x0 if step == 0 else x0 + (step * MD_DT) * self.velocity

    def references(self, wl: Workload, step: int) -> list:
        """Oracle ``(phi, forces)`` at the sample for each charge vector,
        with the particles at ``position(step)``."""
        x = self.position(step)
        t = x[self.sample]
        if wl.forces:
            # MD charges are one array reused by every apply.
            ref = reference(wl.kernel, KAPPA, t, x, self.charges[0],
                            forces=True)
            return [ref] * len(self.charges)
        phi, _ = reference(wl.kernel, KAPPA, t, x,
                           np.column_stack(self.charges))
        return [(phi[:, i], None) for i in range(len(self.charges))]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="paper_default",
            why=(
                "the paper's own regime (theta=0.8, n=8, NL=NB=2000): "
                "backend execute is ~99% of an apply, prepare is tiny"
            ),
            kernel="coulomb", n=20_000,
            params=dict(theta=0.8, degree=8, max_leaf_size=2000,
                        max_batch_size=2000),
            tol=1e-6, n_applies=1,
        ),
        Workload(
            name="small_batches",
            why=(
                "NL=NB=60, n=2: interaction lists dominate prepare and "
                "the apply is Python-overhead-bound over 238k segments"
            ),
            kernel="coulomb", n=30_000,
            params=dict(theta=0.8, degree=2, max_leaf_size=60,
                        max_batch_size=60),
            tol=3e-2, n_applies=2,
        ),
        Workload(
            name="md_yukawa",
            why=(
                "the only workload that moves particles: update_geometry "
                "steps (incremental or rebuild), forces, Yukawa, clusters"
            ),
            kernel="yukawa", n=12_000, distribution="clusters",
            params=dict(theta=0.7, degree=3, max_leaf_size=100,
                        max_batch_size=100),
            tol=3e-3, forces=True, n_applies=2, n_steps=10, force_tol=3e-2,
            # Every step of the trajectory needs its own oracle pass.
            n_sample=300,
        ),
        Workload(
            name="rcb_let",
            why=(
                "DistributedBLTC on 4 simulated ranks: RCB partition, "
                "LET build and RMA windows are measured only here"
            ),
            kernel="coulomb", n=32_000, n_ranks=4,
            params=dict(theta=0.8, degree=4, max_leaf_size=200,
                        max_batch_size=200),
            tol=1e-3, n_applies=2,
        ),
    )
}
