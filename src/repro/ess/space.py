"""The exploration space: POSP plans and the optimal cost surface.

:class:`ExplorationSpace` materialises, over a :class:`SelectivityGrid`,
the search space the paper's algorithms consume: for every grid location
``q``, the optimal plan ``P_q`` and its cost ``Cost(P_q, q)`` (the
Optimal Cost Surface of Fig. 3).

Two build modes:

* ``exact`` -- the optimal plan at every grid point: one batched DP
  pass over the whole grid (kernel mode), or one scalar DP call per
  point (``kernel=False``, the golden-grid reference). Ground truth.
* ``fast`` -- optimize at seed locations (corners + random sample), then
  cost every discovered plan over the whole grid with vectorised numpy
  evaluation and take the argmin; iteratively validated against exact DP
  at random probes until no better plan is found. This is the standard
  plan-diagram approximation.

Both modes cost each distinct plan once over the whole grid and fold
the surfaces into the running argmin. Because the argmin is taken over
*true optimizer plans*, the resulting surface still satisfies Plan Cost
Monotonicity, and every cost it reports is achievable by a real plan;
the only approximation risk of ``fast`` is missing a plan whose
optimality region evaded both seeding and validation probes.
"""

import zlib

import numpy as np

from repro.common.errors import DiscoveryError, OptimizerError
from repro.common.rng import make_rng
from repro.cost.kernel import GridKernel
from repro.cost.model import CostModel
from repro.ess.grid import SelectivityGrid
from repro.optimizer.dp import Optimizer
from repro.plans.pipelines import epp_total_order
from repro.plans.nodes import JOIN_LIKE

#: Hypercube corner enumeration cap for seeding: 2**D corners up to
#: ``D = 6`` (the paper's maximum dimensionality), then the first 64
#: corners only -- the enumeration is exponential in D and would
#: otherwise dominate the whole build beyond a few more dimensions.
MAX_CORNER_SEEDS = 64

#: Exact-DP validation probes per round of a fast build.
VALIDATE_PROBES = 96

#: Validation rounds after which a fast build stops even if the last
#: round still found a better plan.
MAX_VALIDATE_ROUNDS = 12


def seed_indices(grid, count, rng, corners=True):
    """Seed locations for a fast build: corners, centre, random picks.

    Corner enumeration is capped at :data:`MAX_CORNER_SEEDS` (all
    ``2**D`` corners through ``D = 6``, the first 64 beyond), keeping
    high-dimensional seeding linear in ``count`` instead of exponential
    in ``D``. The rng draw sequence is independent of the cap, so
    capped and uncapped builds at ``D <= 6`` are identical.
    """
    seeds = []
    if corners:
        for mask in range(min(2 ** grid.dims, MAX_CORNER_SEEDS)):
            seeds.append(tuple(
                grid.shape[d] - 1 if (mask >> d) & 1 else 0
                for d in range(grid.dims)
            ))
        seeds.append(tuple(r // 2 for r in grid.shape))
    picks = rng.integers(0, grid.size, size=count)
    seeds.extend(grid.unflat(int(p)) for p in picks)
    return seeds


class PlanInfo:
    """A POSP plan plus everything precomputed about it.

    Attributes
    ----------
    id:
        Dense integer id for the owning space's POSP plans (its index
        in ``plans``); a probe plan's id is derived from its signature
        (:meth:`ExplorationSpace.probe_plan`).
    tree:
        Finalised plan tree.
    cost:
        ndarray of plan cost at every grid location (grid-shaped).
    spill_order:
        List of ``(epp_name, node, subtree_epp_names)`` in the plan's
        spill total order (paper §3.1.3).
    """

    __slots__ = ("id", "tree", "cost", "spill_order")

    def __init__(self, plan_id, tree, cost, spill_order):
        self.id = plan_id
        self.tree = tree
        self.cost = cost
        self.spill_order = spill_order

    def spill_target(self, remaining):
        """First unresolved epp this plan can spill on, or ``None``.

        ``remaining`` is the set of not-yet-learnt epp names. The chosen
        node's subtree must contain no other unresolved epp.
        """
        remaining = set(remaining)
        for name, node, subtree_epps in self.spill_order:
            if name in remaining and (subtree_epps & remaining) <= {name}:
                return name, node
        return None

    def label(self):
        return "P%d" % (self.id + 1)

    def __repr__(self):
        return "PlanInfo(%s)" % self.label()


class ExplorationSpace:
    """POSP + optimal cost surface over a selectivity grid."""

    def __init__(
        self,
        query,
        resolution=None,
        s_min=1e-6,
        grid=None,
        kernel=True,
    ):
        if query.dimensions < 1:
            raise OptimizerError(
                "query %r declares no error-prone predicates" % query.name
            )
        self.query = query
        self.cost_model = CostModel(query)
        self.optimizer = Optimizer(query, self.cost_model)
        if grid is None:
            if resolution is None:
                resolution = default_resolution(query.dimensions)
            grid = SelectivityGrid(query.dimensions, resolution, s_min=s_min)
        self.grid = grid
        #: The POSP universe: every plan the build (or an archive load)
        #: registered, in registration order. Fixed once ``built``.
        self.plans = []
        self._signatures = {}
        #: :meth:`probe_plan`'s answer per ``(location, epp)``.
        self._probes = {}
        #: Probe plans outside ``plans``, by their signature-derived id.
        self._probe_plans = {}
        self._flat_meshes = None
        self.plan_at = None
        self.opt_cost = None
        self.built = False
        #: Batch-evaluate the grid hot path (builds, costing, spill
        #: profiles) through :class:`~repro.cost.kernel.GridKernel`.
        #: ``False`` keeps the legacy one-location-at-a-time path; the
        #: two produce bit-identical spaces (DESIGN.md §13), so the
        #: flag is an execution detail, not part of the artifact
        #: content address.
        self.kernel_enabled = bool(kernel)
        self._kernel = None
        #: Number of leading plans already folded into the surface
        #: (incremental ``_refresh_surface`` bookkeeping).
        self._surface_count = 0

    @property
    def kernel(self):
        """The space's :class:`GridKernel`, or ``None`` when disabled."""
        if not self.kernel_enabled:
            return None
        if self._kernel is None:
            self._kernel = GridKernel(
                self.grid, self.query.epps, self.cost_model)
        return self._kernel

    # ------------------------------------------------------------------
    # assignments

    def assignment_at(self, index):
        """``{epp_name: selectivity}`` for a grid index tuple."""
        return {
            name: float(self.grid.values[d][index[d]])
            for d, name in enumerate(self.query.epps)
        }

    def _grid_assignment(self):
        """Vectorised assignment covering every grid point (flattened)."""
        if self._flat_meshes is None:
            meshes = self.grid.meshes()
            self._flat_meshes = {
                name: meshes[d].ravel()
                for d, name in enumerate(self.query.epps)
            }
        return self._flat_meshes

    # ------------------------------------------------------------------
    # plan registry

    def register_plan(self, tree):
        """Add a finalised plan to the registry (deduplicated); return info."""
        return self.register_plan_with_cost(tree, None)

    def register_plan_with_cost(self, tree, cost):
        """Register a plan with a precomputed cost surface.

        ``cost=None`` computes the surface via vectorised costing; a
        provided array (e.g. from a persisted archive) is trusted
        verbatim, skipping the cost model entirely. A built space's
        plans are fixed: a new plan raises :class:`DiscoveryError`.
        """
        signature = tree.signature()
        if signature not in self._signatures:
            if self.built:
                raise DiscoveryError(
                    "a built space's plan universe is fixed")
            info = self._plan_info(len(self.plans), tree, cost)
            self.plans.append(info)
            self._signatures[signature] = info
        return self._signatures[signature]

    def _plan_info(self, plan_id, tree, cost):
        """A :class:`PlanInfo` for ``tree``, costing its surface unless
        ``cost`` is given."""
        if cost is None:
            kernel = self.kernel
            if kernel is not None:
                cost = kernel.plan_surface(tree)
            else:
                cost = np.asarray(
                    self.cost_model.cost(tree, self._grid_assignment())
                ).reshape(self.grid.shape)
        else:
            cost = np.asarray(cost, dtype=float).reshape(self.grid.shape)
        spill_order = []
        for name, node in epp_total_order(tree, self.query.epps):
            subtree_epps = set()
            for member in node.walk():
                if isinstance(member, JOIN_LIKE):
                    subtree_epps.update(member.predicate_names)
            subtree_epps &= set(self.query.epps)
            spill_order.append((name, node, frozenset(subtree_epps)))
        return PlanInfo(plan_id, tree, cost, spill_order)

    def probe_plan(self, location, epp):
        """The cheapest plan spilling on ``epp`` at grid ``location``
        (the constrained optimizer call of paper §6.1), or ``None``.

        The DP runs once per ``(location, epp)`` per space. A plan the
        build registered comes back as itself; any other plan is kept
        outside ``plans``, one :class:`PlanInfo` per signature, so its
        surface is costed once per space. Its id is ``len(plans)`` plus
        the CRC32 of its signature: a pure function of the plan, so no
        answer, record or trace depends on which probes ran before.
        Two probe plans sharing an id would alias in the id-keyed
        caches (the kernel's subtree surfaces, SpillBound's spill
        targets), so that raises :class:`DiscoveryError`.
        """
        key = (tuple(int(i) for i in location), epp)
        if key not in self._probes:
            result = self.optimize_at(key[0], spilling_on=epp)
            self._probes.setdefault(key, None if result is None
                                    else self._probe_info(result.plan))
        return self._probes[key]

    def _probe_info(self, tree):
        signature = tree.signature()
        built = self._signatures.get(signature)
        if built is not None:
            return built
        plan_id = len(self.plans) \
            + zlib.crc32(repr(signature).encode("utf-8"))
        info = self._probe_plans.get(plan_id)
        if info is None:
            info = self._probe_plans.setdefault(
                plan_id, self._plan_info(plan_id, tree, None))
        if info.tree.signature() != signature:
            raise DiscoveryError(
                "probe plans %r and %r share id %d"
                % (signature, info.tree.signature(), plan_id))
        return info

    def optimize_at(self, index, spilling_on=None):
        """Exact DP call at a grid index; returns an :class:`OptimizedPlan`
        (``None`` when no plan spills on ``spilling_on``)."""
        assignment = self.assignment_at(index)
        if spilling_on is None:
            return self.optimizer.optimize(assignment)
        return self.optimizer.optimize_spilling_on(spilling_on, assignment)

    # ------------------------------------------------------------------
    # build

    def build(self, mode="fast", rng=0):
        """Materialise ``plan_at`` and ``opt_cost``; returns ``self``."""
        if mode == "exact":
            self._build_exact()
        elif mode == "fast":
            self._build_fast(make_rng(rng))
        else:
            raise OptimizerError("unknown build mode %r" % mode)
        self.built = True
        return self

    def _build_exact(self):
        if self.kernel_enabled:
            # One vectorised DP pass over the entire grid instead of
            # ``grid.size`` scalar optimizer invocations. Registering
            # each DP variant at its first cell in C order registers
            # the same plans in the same order as the per-cell loop.
            batch = self.optimizer.optimize_batch(self._grid_assignment())
            for pos in batch.first_positions():
                self.register_plan(batch.plan_for(pos))
        else:
            for index in self.grid.indices():
                self.register_plan(self.optimize_at(index).plan)
        self._refresh_surface()

    def _build_fast(self, rng):
        grid = self.grid
        seeds = self._seed_indices(min(max(64, grid.size // 16), 768), rng)
        # Per-build DP resolution memo: the DP is deterministic per
        # assignment and register_plan dedups by signature, so batching
        # only the not-yet-resolved indices -- duplicates within a draw,
        # probe locations already covered by the seed batch -- registers
        # the same plans in the same order as the scalar path.
        resolved = {}

        def _resolve(indices):
            fresh = [index for index in dict.fromkeys(indices)
                     if index not in resolved]
            if fresh:
                batch = self.optimizer.optimize_batch(
                    self.kernel.gather_assignment(fresh))
                for pos, index in enumerate(fresh):
                    resolved[index] = (batch, pos)

        if self.kernel_enabled:
            # The batch DP's cost is dominated by the per-join Python
            # loop, not the batch width, so when the seed draw already
            # rivals the grid size it is cheaper to resolve every cell
            # in the one pass and make all validation rounds free.
            if grid.size <= len(seeds):
                _resolve(list(grid.indices()))
            _resolve(seeds)
            for index in seeds:
                batch, pos = resolved[index]
                self.register_plan(batch.plan_for(pos))
        else:
            for index in seeds:
                self.register_plan(self.optimize_at(index).plan)
        self._refresh_surface()
        # Iterative validation: probe random locations with exact DP and
        # absorb any strictly better plan we had missed. The kernel path
        # draws the same probes and batches the DP; the acceptance test
        # compares the same floats, so both paths register the same
        # plans in the same order.
        for _round in range(MAX_VALIDATE_ROUNDS):
            probes = self._seed_indices(VALIDATE_PROBES, rng, corners=False)
            grew = False
            if self.kernel_enabled:
                _resolve(probes)
                for index in probes:
                    batch, pos = resolved[index]
                    if batch.cost_at(pos) < \
                            self.opt_cost[index] * (1 - 1e-9):
                        self.register_plan(batch.plan_for(pos))
                        grew = True
            else:
                for index in probes:
                    result = self.optimize_at(index)
                    if result.cost < self.opt_cost[index] * (1 - 1e-9):
                        self.register_plan(result.plan)
                        grew = True
            if grew:
                self._refresh_surface()
            else:
                break

    def _seed_indices(self, count, rng, corners=True):
        return seed_indices(self.grid, count, rng, corners=corners)

    def _refresh_surface(self):
        """Fold registered plan surfaces into ``plan_at``/``opt_cost``.

        The fold starts from plan 0 and visits each plan once, across
        calls (the first ``_surface_count`` are already folded): a new
        surface updates the running min/argmin where strictly cheaper.
        That is array-identical to ``np.argmin``/``np.min`` over the
        stack of all surfaces -- strict ``<`` keeps the earliest plan id
        on ties, exactly like argmin's first-occurrence rule -- without
        ever allocating the ``(plans, *grid)`` stack.
        """
        start = self._surface_count
        if start == 0:
            self.opt_cost = np.array(self.plans[0].cost, dtype=float)
            self.plan_at = np.zeros(self.grid.shape, dtype=np.int32)
            start = 1
        for info in self.plans[start:]:
            better = info.cost < self.opt_cost
            np.copyto(self.opt_cost, info.cost, where=better)
            np.copyto(self.plan_at, np.int32(info.id), where=better)
        self._surface_count = len(self.plans)

    # ------------------------------------------------------------------
    # spill profiles

    def spill_profile(self, plan_info, epp, node, qa_index):
        """Spill-mode subtree cost profile along ``epp``'s dimension.

        A 1-D slice of the kernel's subtree surface at the truth's
        coordinates -- bitwise what the engine's legacy per-truth
        evaluation produced, computed once per (plan, node) instead of
        once per hidden location. Returns ``None`` when the kernel is
        disabled, telling the engine to fall back to its own path.
        """
        kernel = self.kernel
        if kernel is None:
            return None
        dim = self.query.epp_index(epp)
        return kernel.spill_profile(plan_info.id, node, dim, qa_index)

    # ------------------------------------------------------------------
    # lookups

    def optimal_cost(self, index):
        """Optimal (oracle) cost at a grid index tuple."""
        return float(self.opt_cost[index])

    def optimal_plan(self, index):
        """POSP plan at a grid index tuple."""
        return self.plans[int(self.plan_at[index])]

    @property
    def c_min(self):
        """Minimum cost on the surface (at the origin, by PCM)."""
        return float(self.opt_cost[self.grid.origin])

    @property
    def c_max(self):
        """Maximum cost on the surface (at the terminus, by PCM)."""
        return float(self.opt_cost[self.grid.terminus])

    def posp_size(self):
        """Number of distinct plans actually optimal somewhere."""
        return int(np.unique(self.plan_at).size)

    def __repr__(self):
        status = "built" if self.built else "unbuilt"
        return "ExplorationSpace(%s, %s, plans=%d, %s)" % (
            self.query.name,
            self.grid,
            len(self.plans),
            status,
        )


def default_resolution(dims):
    """Grid resolution keeping exhaustive sweeps laptop-scale per D."""
    table = {1: 256, 2: 48, 3: 20, 4: 12, 5: 8, 6: 6}
    return table.get(dims, 5)
