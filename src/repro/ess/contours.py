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
where learnt dimensions are pinned to their discovered values. One pass
over a pinned slice finds its frontier cells on every contour at once
(:func:`_contour_levels`).
"""

import itertools
import math
import operator

import numpy as np

from repro.common.errors import DiscoveryError
from repro.common.lru import MEMO_ROWS, BoundedCache


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
        #: :meth:`pin_key` -> that pin's :meth:`_band`. Every pin a
        #: step choice asks about keys a memo row, so the memo's bound
        #: covers them.
        self._bands = BoundedCache(MEMO_ROWS)

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
        The members are read off the pin's band, computed once per
        :meth:`pin_key` and kept in a :class:`BoundedCache` of
        :data:`~repro.common.lru.MEMO_ROWS` bands.
        """
        fixed = fixed or {}
        key = self.pin_key(fixed)
        band = self._bands.get(key)
        if band is None:
            band = self._bands.setdefault(key, self._band(fixed))
        coords, plan_ids, lower, upper = band
        on = (lower <= i) & (upper > i)
        return ContourSlice(coords[on].astype(np.int64),
                            plan_ids[on].astype(np.int64))

    def _band(self, fixed):
        """Every contour's members in the slice pinned at ``fixed``.

        The cells on some contour (:func:`_contour_levels`), in C
        order, as ``(coords, plan_ids, lower, upper)`` with full-space
        coords, in the smallest integer types that hold them.
        """
        space = self.space
        dims = space.grid.dims
        # Pinned axes keep size 1: they have no +1 neighbour, and a
        # cell's index in the slice plus the pin is its coordinate.
        slicer = tuple(
            slice(fixed[d], fixed[d] + 1) if d in fixed else slice(None)
            for d in range(dims)
        )
        lower, upper = _contour_levels(space.opt_cost[slicer], self.costs)
        flat = np.flatnonzero(lower < upper)
        coords = np.transpose(np.unravel_index(flat, lower.shape)) + [
            fixed.get(d, 0) for d in range(dims)]
        small = np.min_scalar_type(max(len(self.costs), *space.grid.shape))
        return (coords.astype(small), space.plan_at[slicer].ravel()[flat],
                lower.ravel()[flat].astype(small),
                upper.ravel()[flat].astype(small))

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


def _contour_levels(cost_array, costs):
    """Per cell of ``cost_array``, the range of contours of the ladder
    ``costs`` whose staircase frontier holds it.

    ``lower`` is the first contour whose cost covers the cell and
    ``upper`` the largest ``lower`` of its +1 neighbours; an axis past
    the edge adds nothing, and every contour fits at the terminus. A
    cell is on contour ``i`` exactly when ``lower <= i < upper``: it fits
    ``CC_i`` while a step up overshoots it, or it is the terminus and
    the whole array fits. ``searchsorted`` decides ``lower <= i`` by the
    same float comparison as ``cost <= CC_i``.
    """
    lower = np.searchsorted(costs, cost_array, side="left")
    upper = np.zeros_like(lower)
    for axis in range(lower.ndim):
        head = (slice(None),) * axis
        inner = upper[head + (slice(0, -1),)]
        np.maximum(inner, lower[head + (slice(1, None),)], out=inner)
    upper[(-1,) * lower.ndim] = len(costs)
    return lower, upper
