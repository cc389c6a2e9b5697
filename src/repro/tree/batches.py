"""Target batches (paper Sec. 2.4 and 3.2).

Targets are organized into geometrically localized batches of at most
``NB`` particles using *the same partitioning routine* as the source tree;
when targets and sources are the same particle set with ``NB == NL`` the
batches are equivalent to the source-tree leaves, as in the paper's tests.

Batching is what gives the GPU implementation its outer level of
parallelism: one kernel launch processes one (batch, cluster) pair, one
thread block per target in the batch.
"""

from __future__ import annotations

import numpy as np

from .box import Box
from .octree import ClusterTree, RebinResult, TreeNode

__all__ = ["TargetBatches"]


class TargetBatches:
    """The set of localized target batches ``{B}``.

    Thin wrapper over a :class:`ClusterTree` built on the target particles
    with leaf cap ``NB``; the batches are the tree's leaves.  Exposes the
    per-batch quantities the MAC and the execution plan need.
    """

    def __init__(
        self,
        positions: np.ndarray,
        max_batch_size: int,
        *,
        aspect_ratio_splitting: bool = True,
        shrink_to_fit: bool = True,
    ) -> None:
        self._tree = ClusterTree(
            positions,
            max_batch_size,
            aspect_ratio_splitting=aspect_ratio_splitting,
            shrink_to_fit=shrink_to_fit,
        )
        self._leaves: list[TreeNode] = self._tree.leaves()

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def n_targets(self) -> int:
        return self._tree.n_particles

    @property
    def max_level(self) -> int:
        """Depth of the underlying batch tree (host-side build cost)."""
        return self._tree.max_level

    @property
    def perm(self) -> np.ndarray:
        """Permutation of target indices; batch ``b`` owns a slice of it."""
        return self._tree.perm

    @property
    def positions(self) -> np.ndarray:
        """(n_targets, 3) target coordinates (the batch tree's array)."""
        return self._tree.positions

    @property
    def tree(self) -> ClusterTree:
        """The underlying batch tree (its leaves are the batches)."""
        return self._tree

    def rebin(self, new_positions: np.ndarray) -> RebinResult:
        """Incrementally re-bin the batch tree for moved targets.

        Delegates to :meth:`ClusterTree.rebin`; on success the cached
        leaf list stays valid because the tree mutates its ``TreeNode``
        objects in place.  Batch ``b``'s node index in the masks is
        ``self.batch(b).index``.
        """
        return self._tree.rebin(new_positions)

    def batch(self, b: int) -> TreeNode:
        """The ``b``-th batch node."""
        return self._leaves[b]

    def batch_indices(self, b: int) -> np.ndarray:
        """Original target indices of batch ``b``."""
        return self._tree.node_indices(self._leaves[b])

    def batch_points(self, b: int) -> np.ndarray:
        """Coordinates of the targets in batch ``b``."""
        return self._tree.node_points(self._leaves[b])

    def batch_box(self, b: int) -> Box:
        return self._leaves[b].box

    def centers(self) -> np.ndarray:
        """(n_batches, 3) batch centers."""
        return np.array([nd.center for nd in self._leaves])

    def radii(self) -> np.ndarray:
        """(n_batches,) batch radii."""
        return np.array([nd.radius for nd in self._leaves])

    def sizes(self) -> np.ndarray:
        """(n_batches,) number of targets per batch."""
        return np.array([nd.count for nd in self._leaves], dtype=np.intp)

    def validate(self) -> None:
        """Structural invariants (delegates to the underlying tree)."""
        self._tree.validate()
        assert sum(nd.count for nd in self._leaves) == self.n_targets
