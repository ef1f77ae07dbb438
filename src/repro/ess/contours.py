"""Iso-cost contours over the optimal cost surface (paper §2.5).

Contour costs double from ``C_min`` up to ``C_max`` (the doubling factor
is configurable for the §4.2 cost-ratio ablation). On the discrete grid
a location belongs to contour ``IC_i`` when its optimal cost fits under
``CC_i`` while stepping one grid cell up along some dimension overshoots
it -- the staircase frontier of the hypograph. By PCM this frontier
*dominates* the hypograph: every location with cost <= ``CC_i`` is
dominated by some contour member, which is what makes budgeted execution
of contour plans a complete search procedure.

The *effective* contour (used after some selectivities are exactly
learnt) is the frontier of the cost surface restricted to the subspace
where learnt dimensions are pinned to their discovered values.
"""

import itertools
import math
import operator

import numpy as np

from repro.common.errors import DiscoveryError
from repro.common.lru import BoundedCache

#: Slices kept per contour set. A benchmark sweep round reads at most
#: 5,295 distinct slices of one contour set (4D_Q91 at resolution 5;
#: AlignedBound re-reads nearly every slice SpillBound computed), and a
#: smaller LRU loses nearly all of those hits.
SLICE_CACHE_SLOTS = 8192


class ContourSlice:
    """Members of one (possibly dimension-restricted) contour.

    Attributes
    ----------
    coords:
        ``(M, D)`` int array of member grid indices (full-space coords).
    plan_ids:
        ``(M,)`` int array: POSP plan id at each member.
    """

    __slots__ = ("coords", "plan_ids")

    def __init__(self, coords, plan_ids):
        self.coords = coords
        self.plan_ids = plan_ids

    def __len__(self):
        return self.coords.shape[0]

    @property
    def is_empty(self):
        return self.coords.shape[0] == 0


class ContourSet:
    """The doubling iso-cost contours ``IC_1 .. IC_m`` of a space."""

    def __init__(self, space, ratio=2.0):
        if not space.built:
            raise DiscoveryError("space must be built before drawing contours")
        if ratio <= 1.0:
            raise DiscoveryError("contour cost ratio must exceed 1")
        self.space = space
        self.ratio = ratio
        self.costs = _contour_costs(space.c_min, space.c_max, ratio)
        #: Place value of each dimension's pinned index in a
        #: :meth:`pin_key`: mixed radix ``shape[d] + 1``, so an unpinned
        #: dimension contributes 0.
        self._radix = list(itertools.accumulate(
            (n + 1 for n in space.grid.shape[:-1]), operator.mul,
            initial=1))
        self._slice_cache = BoundedCache(SLICE_CACHE_SLOTS)

    def __len__(self):
        return len(self.costs)

    def cost(self, i):
        """Cost ``CC_i`` of contour ``i`` (0-based index)."""
        return self.costs[i]

    # ------------------------------------------------------------------

    def pin_key(self, fixed):
        """A plain int naming the pinned assignment ``fixed`` (dimension
        -> grid index): equal exactly when the assignments are."""
        radix = self._radix
        return sum((index + 1) * radix[d] for d, index in fixed.items())

    def members(self, i, fixed=None):
        """Contour ``i`` restricted to pinned dimensions.

        ``fixed`` maps dimension -> grid index for exactly-learnt epps.
        Results are kept in a :class:`BoundedCache` of
        :data:`SLICE_CACHE_SLOTS` slices, keyed by contour and
        :meth:`pin_key`.
        """
        fixed = fixed or {}
        key = self.pin_key(fixed) * len(self.costs) + i
        slice_ = self._slice_cache.get(key)
        if slice_ is None:
            slice_ = self._slice_cache.setdefault(
                key, self._compute_members(i, fixed))
        return slice_

    def _compute_members(self, i, fixed):
        space = self.space
        dims = space.grid.dims
        cc = self.costs[i]
        slicer = tuple(
            fixed[d] if d in fixed else slice(None) for d in range(dims)
        )
        reduced = space.opt_cost[slicer]
        if reduced.ndim == 0:
            # Every dimension pinned: the single point is the frontier
            # iff it fits the budget.
            if float(reduced) <= cc:
                coords = np.array(
                    [[fixed[d] for d in range(dims)]], dtype=np.int64
                )
            else:
                coords = np.empty((0, dims), dtype=np.int64)
            plan_ids = space.plan_at[slicer].reshape(-1)[: len(coords)]
            return ContourSlice(coords, plan_ids)

        mask = _frontier_mask(reduced, cc)
        reduced_coords = np.argwhere(mask)
        coords = np.empty((reduced_coords.shape[0], dims), dtype=np.int64)
        free_dims = [d for d in range(dims) if d not in fixed]
        for axis, d in enumerate(free_dims):
            coords[:, d] = reduced_coords[:, axis]
        for d, idx in fixed.items():
            coords[:, d] = idx
        plan_ids = space.plan_at[tuple(coords.T)].astype(np.int64)
        return ContourSlice(coords, plan_ids)

    # ------------------------------------------------------------------

    def contour_of(self, index):
        """Smallest contour (0-based) whose cost covers location ``index``.

        This is the ``k+1`` of the paper's analysis: the contour on which
        the discovery process can terminate for truth ``index``.
        """
        cost = self.space.optimal_cost(index)
        for i, cc in enumerate(self.costs):
            if cost <= cc * (1 + 1e-12):
                return i
        raise DiscoveryError("location cost exceeds the last contour")

    def plans_on(self, i, plan_at=None):
        """Distinct plan ids on contour ``i`` (optionally from a reduced
        plan diagram given as an alternative ``plan_at`` array)."""
        members = self.members(i)
        if plan_at is None:
            return sorted(set(int(p) for p in members.plan_ids))
        ids = plan_at[tuple(members.coords.T)]
        return sorted(set(int(p) for p in ids))

    def max_density(self, plan_at=None):
        """Plan cardinality of the densest contour (the paper's rho)."""
        return max(len(self.plans_on(i, plan_at)) for i in range(len(self)))


def _contour_costs(c_min, c_max, ratio):
    """Geometric cost ladder from ``c_min`` to ``c_max`` (both included)."""
    if c_min <= 0:
        raise DiscoveryError("minimum cost must be positive")
    if c_max < c_min:
        raise DiscoveryError("cost surface violates PCM (c_max < c_min)")
    if math.isclose(c_max, c_min, rel_tol=1e-12):
        return [c_max]
    steps = math.ceil(math.log(c_max / c_min, ratio) - 1e-12)
    costs = [c_min * ratio**i for i in range(steps)]
    # When c_max lands on (or within float noise of) the last geometric
    # rung, appending it verbatim would duplicate the rung -- a zero-width
    # contour that burns one full doubling budget for no new coverage.
    while costs and costs[-1] * (1 + 1e-9) >= c_max:
        costs.pop()
    costs.append(c_max)
    return costs


def _frontier_mask(cost_array, cc):
    """Boolean staircase-frontier mask of ``{q : cost(q) <= cc}``."""
    below = cost_array <= cc
    exceed = np.zeros_like(below)
    ndim = cost_array.ndim
    for axis in range(ndim):
        current = [slice(None)] * ndim
        nxt = [slice(None)] * ndim
        current[axis] = slice(0, -1)
        nxt[axis] = slice(1, None)
        shifted = np.zeros_like(below)
        shifted[tuple(current)] = cost_array[tuple(nxt)] > cc
        exceed |= shifted
    mask = below & exceed
    # The reduced-space terminus has no dominating neighbour; by PCM it
    # fits under cc only when the whole slice does, in which case it *is*
    # the frontier.
    terminus = tuple(s - 1 for s in cost_array.shape)
    if below[terminus]:
        mask[terminus] = True
    return mask
