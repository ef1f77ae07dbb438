"""Synthetic exploration spaces: hand-crafted cost geometries.

The paper's geometric intuition (Fig. 2's hyperbolic contours, Fig. 5's
crossing-plan choices, the Theorem 4.6 adversary) lives on *surfaces*,
not on any particular optimizer. :class:`SyntheticSpace` lets tests and
examples build an ESS directly from cost functions -- each synthetic
plan is a function of the selectivity vector, must satisfy PCM, and
declares which dimension it spills on -- while exposing exactly the
interface the discovery algorithms and the simulated engine consume.

Includes two ready-made constructions:

* :func:`textbook_space` -- a 2D space with several plans per contour,
  mirroring the paper's running example;
* :func:`spike_space` -- a D-dimensional adversarial family in the
  spirit of Theorem 4.6's lower bound: the truth hides along one of D
  axes, forcing any half-space-pruning discovery to pay per dimension,
  so the empirical MSO grows with D.
"""

import numpy as np

from repro.common.errors import DiscoveryError
from repro.ess.grid import SelectivityGrid
from repro.ess.space import PlanInfo


class _SyntheticQuery:
    """Duck-typed query: just enough for the discovery algorithms."""

    def __init__(self, dims, name="synthetic"):
        self.name = name
        self.epps = tuple("e%d" % (d + 1) for d in range(dims))

    @property
    def dimensions(self):
        return len(self.epps)

    def epp_index(self, name):
        try:
            return self.epps.index(name)
        except ValueError:
            raise DiscoveryError(
                "%r is not a synthetic epp" % (name,)
            ) from None


class _SpillNode:
    """Stand-in for a plan-tree spill node: identifies (plan, epp)."""

    __slots__ = ("node_id", "plan_name", "epp", "fraction", "cost_fn",
                 "dims")

    def __init__(self, node_id, plan_name, epp, fraction, cost_fn, dims):
        self.node_id = node_id
        self.plan_name = plan_name
        self.epp = epp
        self.fraction = fraction
        self.cost_fn = cost_fn
        self.dims = dims

    def walk(self):
        yield self


class _SyntheticCostModel:
    """Evaluates synthetic subtree costs for the simulated engine."""

    def __init__(self, query):
        self.query = query

    def subtree_cost(self, node, assignment=None):
        sels = [assignment[name] for name in self.query.epps]
        return node.fraction * node.cost_fn(*sels)


class SyntheticPlan:
    """One synthetic plan: a PCM cost function plus spill behaviour.

    Parameters
    ----------
    name:
        Display label.
    cost_fn:
        ``f(s_1, ..., s_D) -> cost`` -- must broadcast over numpy arrays
        and be strictly increasing in every argument (PCM).
    spill_dims:
        Dimension indices this plan can spill on, in total-order
        precedence (first unresolved wins), default: all dimensions.
    spill_fraction:
        Subtree-cost share of the full plan cost for spill executions.
    """

    def __init__(self, name, cost_fn, spill_dims=None, spill_fraction=0.5):
        if not 0 < spill_fraction <= 1:
            raise DiscoveryError("spill fraction must be in (0, 1]")
        self.name = name
        self.cost_fn = cost_fn
        self.spill_dims = spill_dims
        self.spill_fraction = spill_fraction


class SyntheticSpace:
    """An ExplorationSpace-compatible object over synthetic plans."""

    #: Synthetic surfaces are closures, not catalog-derived arrays; the
    #: artifact cache's disk tier must skip them (memory tier is fine).
    persistable = False

    def __init__(self, dims, plans, resolution=16, s_min=1e-4,
                 grid=None, validate_pcm=True, name="synthetic"):
        self.query = _SyntheticQuery(dims, name=name)
        self.grid = grid or SelectivityGrid(dims, resolution, s_min=s_min)
        self.cost_model = _SyntheticCostModel(self.query)
        self.plans = []
        self._build(plans, validate_pcm)
        self.built = True

    # ------------------------------------------------------------------

    def _build(self, plans, validate_pcm):
        meshes = self.grid.meshes()
        costs = []
        for plan_id, spec in enumerate(plans):
            cost = np.asarray(spec.cost_fn(*meshes), dtype=float)
            if cost.shape != self.grid.shape:
                raise DiscoveryError(
                    "plan %r cost does not broadcast over the grid"
                    % spec.name)
            if validate_pcm:
                for axis in range(self.grid.dims):
                    if not np.all(np.diff(cost, axis=axis) > 0):
                        raise DiscoveryError(
                            "plan %r violates PCM along dimension %d"
                            % (spec.name, axis))
            dims = spec.spill_dims
            if dims is None:
                dims = tuple(range(self.grid.dims))
            spill_order = []
            for d in dims:
                epp = self.query.epps[d]
                node = _SpillNode(plan_id, spec.name, epp,
                                  spec.spill_fraction, spec.cost_fn, dims)
                spill_order.append((epp, node, frozenset((epp,))))
            self.plans.append(
                PlanInfo(plan_id, None, cost, spill_order))
            costs.append(cost)
        stack = np.stack(costs)
        self.plan_at = np.argmin(stack, axis=0).astype(np.int32)
        self.opt_cost = np.min(stack, axis=0)

    # ------------------------------------------------------------------
    # ExplorationSpace API subset

    def assignment_at(self, index):
        return {
            name: float(self.grid.values[d][index[d]])
            for d, name in enumerate(self.query.epps)
        }

    def optimal_cost(self, index):
        return float(self.opt_cost[index])

    def optimal_plan(self, index):
        return self.plans[int(self.plan_at[index])]

    def probe_plan(self, location, epp):
        """Constrained optimizer hook: synthetic spaces cannot invent
        new plans, so induced-alignment probes come up empty."""
        return None

    def spill_profile(self, plan_info, epp, node, qa_index):
        """Spill profile as a slice of the plan's cost surface.

        Synthetic subtree cost is ``fraction * cost_fn(*sels)`` and the
        registered surface is ``cost_fn(*meshes)``, so the profile is a
        1-D slice of the surface scaled by the node's fraction --
        bitwise equal to the engine's per-truth evaluation, with no
        re-walk of the cost function per hidden location.
        """
        dim = self.query.epp_index(epp)
        slicer = tuple(
            slice(None) if d == dim else int(qa_index[d])
            for d in range(self.grid.dims)
        )
        return node.fraction * plan_info.cost[slicer]

    @property
    def c_min(self):
        return float(self.opt_cost[self.grid.origin])

    @property
    def c_max(self):
        return float(self.opt_cost[self.grid.terminus])

    def posp_size(self):
        return int(np.unique(self.plan_at).size)


# ----------------------------------------------------------------------
# ready-made constructions


def textbook_space(resolution=32, base=1000.0):
    """A 2D space shaped like the paper's running example (Fig. 2).

    Several plans trade off sensitivity to the two dimensions, so each
    doubling contour is covered by multiple plans with hyperbolic-ish
    segments, and spill choices differ per dimension.
    """
    plans = [
        SyntheticPlan(
            "balanced",
            lambda x, y: base * (1 + 400 * x + 400 * y + 3000 * x * y),
        ),
        SyntheticPlan(
            "x-light",
            lambda x, y: base * (1.2 + 60 * x + 900 * y + 3000 * x * y),
            spill_dims=(0, 1),
        ),
        SyntheticPlan(
            "y-light",
            lambda x, y: base * (1.2 + 900 * x + 60 * y + 3000 * x * y),
            spill_dims=(1, 0),
        ),
        SyntheticPlan(
            "corner",
            lambda x, y: base * (2.0 + 30 * x + 30 * y + 1200 * x * y),
        ),
    ]
    return SyntheticSpace(2, plans, resolution=resolution, s_min=1e-4)


def spike_space(dims, resolution=12, base=1000.0, steep=4000.0):
    """A D-dimensional adversarial family (Theorem 4.6 flavour).

    Every plan is cheap near the origin but each dimension can
    independently blow the cost up; a plan spilling on dimension ``j``
    reveals only that dimension. When the truth hides high along a
    single unknown axis, a deterministic discovery must spend contour
    budgets probing dimensions one by one, so the incurred MSO grows
    with ``D`` -- the behaviour the lower bound formalises.
    """
    plans = []
    for j in range(dims):
        def cost_fn(*sels, _j=j):
            total = base
            for d, s in enumerate(sels):
                weight = 900.0 if d == _j else 1000.0
                total = total + base * weight * s
            cross = sels[0]
            for s in sels[1:]:
                cross = cross * s
            return total + base * steep * cross
        plans.append(SyntheticPlan(
            "probe-%d" % (j + 1), cost_fn, spill_dims=(j,),
        ))
    return SyntheticSpace(dims, plans, resolution=resolution, s_min=1e-3)
