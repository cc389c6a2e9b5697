"""Difference-based O(S*N) reference potentials and forces.

The treecode and ``repro.direct_sum`` both form squared distances as
|t|^2 + |s|^2 - 2 t.s inside ``kernel.potential``, so ``direct_sum``
shares any defect of that arithmetic with the code under test.  This
oracle imports nothing from ``repro``: it forms every pair's difference
t - s explicitly and evaluates the Coulomb or Yukawa kernel on it.
Coincident pairs contribute zero, as the library defines for singular
kernels.
"""

from __future__ import annotations

import numpy as np

#: Target rows per chunk; bounds the (rows, N, 3) difference temporary.
CHUNK = 32


def reference(
    kernel: str,
    kappa: float,
    targets: np.ndarray,
    sources: np.ndarray,
    charges: np.ndarray,
    *,
    forces: bool = False,
):
    """Potentials (and forces) at ``targets`` due to all ``sources``.

    ``kernel`` is ``"coulomb"`` (1/r) or ``"yukawa"`` (exp(-kappa r)/r).
    ``charges`` is ``(N,)`` or ``(N, R)``; the potential has shape
    ``(S,)`` or ``(S, R)``.  With ``forces`` the second return value is
    the force per unit target charge, -grad_t phi, of shape ``(S, 3)``
    (single charge vector only); otherwise it is None.
    """
    if kernel not in ("coulomb", "yukawa"):
        raise ValueError(f"unknown kernel {kernel!r}")
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    if forces and charges.ndim != 1:
        raise ValueError("forces need a single charge vector")
    phi = np.zeros((targets.shape[0],) + charges.shape[1:])
    force = np.zeros((targets.shape[0], 3)) if forces else None
    for lo in range(0, targets.shape[0], CHUNK):
        d = targets[lo:lo + CHUNK, None, :] - sources[None, :, :]
        r = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
        hit = r == 0.0
        r[hit] = 1.0
        g = 1.0 / r
        if kernel == "yukawa":
            g *= np.exp(-kappa * r)
        g[hit] = 0.0
        phi[lo:lo + CHUNK] = g @ charges
        if forces:
            # -grad_t G = (1 + kappa r) G / r^2 * (t - s); kappa = 0 is
            # the Coulomb case.
            k = kappa if kernel == "yukawa" else 0.0
            w = g * (1.0 + k * r) / (r * r) * charges
            force[lo:lo + CHUNK] = np.einsum("ij,ijk->ik", w, d)
    return phi, force


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Relative 2-norm error, paper eq. 16."""
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
