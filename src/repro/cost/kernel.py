"""Vectorised grid costing: one numpy pass per plan over the whole ESS.

:class:`GridKernel` is the batch-evaluation layer between the cost model
and the exploration space. Everything the grid hot path used to compute
one location at a time -- plan cost surfaces, spill-mode subtree
profiles, seed/probe assignments -- is produced here as whole-grid
tensors in a single elementwise pass, then sliced.

The kernel's contract is **bit-identity**: every value it returns is
IEEE-identical to the scalar path's, because the cost algebra is a pure
elementwise composition of ``*``, ``+``, ``np.maximum`` and ``np.log2``,
and those operations produce the same float64 results whether applied to
Python scalars, 1-D arrays or mesh tensors (DESIGN.md §13). That is what
lets the vectorised builds and the spill tensors replace the per-cell
code without perturbing a single grid, contour or sweep result.

Plan cost surfaces are computed once per plan: the exploration space
deduplicates plans by signature before asking for a surface and keeps
the result on the plan, so the kernel caches only the spill-mode
subtree tensors that many truths slice.
"""

from collections import OrderedDict

import numpy as np

#: Cap on cached subtree surfaces per kernel: high-dimensional grids
#: make each tensor grid-sized, so the cache is bounded like the
#: engine-level profile cache it replaces.
SUBTREE_SURFACE_CAP = 256


class GridKernel:
    """Batch cost evaluation of plans over one selectivity grid.

    Parameters
    ----------
    grid:
        A :class:`~repro.ess.grid.SelectivityGrid` (duck-typed: only
        ``values``, ``shape``, ``dims`` and ``meshes()`` are used).
    epps:
        Predicate names, one per grid dimension, in dimension order.
    cost_model:
        The :class:`~repro.cost.model.CostModel` evaluating plan trees.
    """

    def __init__(self, grid, epps, cost_model):
        self.grid = grid
        self.epps = tuple(epps)
        self.cost_model = cost_model
        self._flat = None
        self._mesh = None
        self._subtrees = OrderedDict()

    # ------------------------------------------------------------------
    # assignments

    def flat_assignment(self):
        """``{epp: (grid.size,) values}`` covering every grid point."""
        if self._flat is None:
            meshes = self.grid.meshes()
            self._flat = {
                name: meshes[d].ravel()
                for d, name in enumerate(self.epps)
            }
        return self._flat

    def mesh_assignment(self):
        """``{epp: grid-shaped mesh}`` for tensor-valued evaluation."""
        if self._mesh is None:
            meshes = self.grid.meshes()
            self._mesh = {
                name: meshes[d] for d, name in enumerate(self.epps)
            }
        return self._mesh

    def gather_assignment(self, indices):
        """Batch assignment for a list of grid index tuples.

        Values are gathered from the grid's own per-dimension arrays,
        so position ``i`` carries bitwise the same floats as
        ``space.assignment_at(indices[i])``.
        """
        coords = np.asarray(indices, dtype=np.int64).reshape(
            len(indices), self.grid.dims)
        return {
            name: self.grid.values[d][coords[:, d]]
            for d, name in enumerate(self.epps)
        }

    # ------------------------------------------------------------------
    # plan cost surfaces

    def plan_surface(self, tree):
        """Grid-shaped cost surface of ``tree`` (one vectorised pass).

        The returned array is read-only: the space keeps it as the
        plan's cost surface for its whole life.
        """
        surface = np.asarray(
            self.cost_model.cost(tree, self.flat_assignment())
        ).reshape(self.grid.shape)
        surface.flags.writeable = False
        return surface

    # ------------------------------------------------------------------
    # spill-mode subtree surfaces

    def subtree_surface(self, plan_id, node):
        """Grid-shaped cost of the subtree rooted at ``node``.

        One mesh evaluation replaces the per-truth 1-D profiles the
        simulated engine used to recompute for every hidden location;
        a spill profile is then just a 1-D slice of this tensor at the
        truth's coordinates (:meth:`spill_profile`).
        """
        key = (plan_id, node.node_id)
        surface = self._subtrees.get(key)
        if surface is not None:
            self._subtrees.move_to_end(key)
            return surface
        surface = np.asarray(
            self.cost_model.subtree_cost(node, self.mesh_assignment()),
            dtype=float,
        )
        if surface.shape != tuple(self.grid.shape):
            surface = np.broadcast_to(
                surface, self.grid.shape).astype(float)
        surface.flags.writeable = False
        self._subtrees[key] = surface
        while len(self._subtrees) > SUBTREE_SURFACE_CAP:
            self._subtrees.popitem(last=False)
        return surface

    def spill_profile(self, plan_id, node, dim, qa_index):
        """Subtree cost along dimension ``dim`` at truth ``qa_index``.

        Bitwise equal to evaluating the subtree with the spilled epp
        swept over ``grid.values[dim]`` and every other epp pinned to
        its true value (the engine's legacy formulation).
        """
        surface = self.subtree_surface(plan_id, node)
        slicer = tuple(
            slice(None) if d == dim else int(qa_index[d])
            for d in range(self.grid.dims)
        )
        return surface[slicer]
