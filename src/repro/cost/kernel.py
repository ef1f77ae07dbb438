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
subtree tensors that many truths slice. Those are evaluated on an open
mesh, so each spans only the axes of the epps its subtree reads.
"""

import operator

import numpy as np

from repro.common.lru import BoundedCache

#: Bytes of subtree surfaces kept per kernel. A surface spans only the
#: axes its subtree reads, so the budget holds the working set of the
#: paper suite's default-resolution sweeps: 9.6 MiB (603 surfaces) for
#: exhaustive SpillBound on 6D_Q91 at resolution 6, 1.5 MiB for
#: SpillBound and AlignedBound on 5D_Q19 at resolution 8.
SUBTREE_SURFACE_BYTES = 16 << 20


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
        self._subtrees = BoundedCache(SUBTREE_SURFACE_BYTES,
                                      weigh=operator.attrgetter("nbytes"))

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
        """``{epp: open mesh}`` for tensor-valued evaluation: epp ``d``'s
        grid values along axis ``d``, size 1 on every other axis."""
        if self._mesh is None:
            meshes = np.meshgrid(*self.grid.values, indexing="ij",
                                 sparse=True)
            self._mesh = dict(zip(self.epps, meshes))
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
        """Cost of the subtree rooted at ``node`` over the grid, at its
        own dimensionality.

        The surface has the grid's number of axes, full size on the axes
        of the epps the subtree reads and size 1 on the rest; broadcast
        to the grid it is the full-mesh evaluation, bit for bit. One
        evaluation replaces the per-truth 1-D profiles the simulated
        engine used to recompute for every hidden location; a spill
        profile is then a 1-D slice of it at the truth's coordinates
        (:meth:`spill_profile`).
        """
        key = (plan_id, node.node_id)
        surface = self._subtrees.get(key)
        if surface is not None:
            return surface
        surface = np.asarray(
            self.cost_model.subtree_cost(node, self.mesh_assignment()),
            dtype=float,
        )
        surface.flags.writeable = False
        return self._subtrees.setdefault(key, surface)

    def spill_profile(self, plan_id, node, dim, qa_index):
        """Subtree cost along dimension ``dim`` at truth ``qa_index``.

        Bitwise equal to evaluating the subtree with the spilled epp
        swept over ``grid.values[dim]`` and every other epp pinned to
        its true value (the engine's legacy formulation).
        """
        surface = self.subtree_surface(plan_id, node)
        slicer = tuple(
            slice(None) if d == dim else
            0 if size == 1 else int(qa_index[d])
            for d, size in enumerate(surface.shape)
        )
        return surface[slicer]
