"""Empirical MSO / ASO via exhaustive enumeration (paper §6.2.3-6.2.4).

The paper assesses each algorithm "by explicitly and exhaustively
considering each and every location in the ESS to be qa": the maximum of
the per-location sub-optimalities is the empirical MSO, the mean is the
ASO (Eq. 8, uniform prior over locations).
"""

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER


class SweepResult:
    """Per-location sub-optimalities for one algorithm over a space.

    ``extras`` aggregates per-run accounting across the sweep (guarded
    runs report ``degraded`` and ``degraded_reasons`` tallies there, and
    traced runs an ``obs`` metrics snapshot), so reports can distinguish
    *why* locations degraded without keeping every :class:`RunResult`
    alive.

    Sampled sweeps produce a flat array over the sample; ``sample_flats``
    then records which flat grid index each position corresponds to, and
    ``grid_shape`` the geometry of the full grid, so
    :meth:`worst_location` can map back to a real grid coordinate.
    """

    __slots__ = ("algorithm", "sub_optimalities", "shape", "extras",
                 "sample_flats", "grid_shape")

    def __init__(self, algorithm, sub_optimalities, shape, extras=None,
                 sample_flats=None, grid_shape=None):
        self.algorithm = algorithm
        self.sub_optimalities = sub_optimalities
        self.shape = shape
        self.extras = extras or {}
        self.sample_flats = sample_flats
        self.grid_shape = grid_shape

    @property
    def mso(self):
        """Empirical MSO: worst sub-optimality over all locations."""
        return float(self.sub_optimalities.max())

    @property
    def aso(self):
        """Eq. (8): mean sub-optimality under a uniform location prior."""
        return float(self.sub_optimalities.mean())

    def worst_location(self):
        """Grid index tuple attaining the empirical MSO.

        For a sampled sweep the worst position in the sample is mapped
        through ``sample_flats`` back onto the full grid, so the answer
        is always a coordinate of the *space*, never an offset into the
        sample.
        """
        flat = int(np.argmax(self.sub_optimalities))
        if self.sample_flats is not None:
            shape = self.grid_shape if self.grid_shape is not None \
                else self.shape
            return tuple(int(i) for i in np.unravel_index(
                int(self.sample_flats[flat]), shape))
        return tuple(int(i) for i in np.unravel_index(flat, self.shape))

    def fraction_below(self, threshold):
        """Fraction of locations with sub-optimality below ``threshold``.

        For a sampled sweep this is the fraction *of the sample* -- an
        unbiased estimate of the grid-wide fraction, not an exact count.
        """
        return float(np.mean(self.sub_optimalities < threshold))

    def __repr__(self):
        return "SweepResult(%s, MSO=%.2f, ASO=%.2f)" % (
            self.algorithm, self.mso, self.aso
        )


class SweepAccumulator:
    """Order-sensitive fold of per-run outcomes into one sweep result.

    The one place that knows what a run adds to a sweep: its
    sub-optimality, its degradation (count and reason histogram), its
    obs-metric snapshot, AlignedBound's ``max_penalty`` (a max, present
    once a run reports one) and its ``spent``, ``retries`` and
    ``wasted_cost`` (sums, always present). Both the serial sweep below
    and the parallel backend's parent-side merge
    (:mod:`repro.session.parallel_sweep`) fold runs through this class,
    *in grid-location order*. That shared path is what makes parallel
    results bit-identical to serial ones: float addition is not
    associative, so the fold order is part of the contract -- not an
    implementation detail.
    """

    __slots__ = ("subopts", "degraded", "reasons", "obs", "max_penalty",
                 "spent", "retries", "wasted_cost")

    def __init__(self):
        self.subopts = []
        self.degraded = 0
        #: reason -> count, in first-occurrence order (insertion order
        #: is preserved into the extras dict and hence the journal).
        self.reasons = {}
        self.obs = None
        self.max_penalty = None
        self.spent = 0.0
        self.retries = 0
        self.wasted_cost = 0.0

    @staticmethod
    def distil(result):
        """What one :class:`~repro.algorithms.base.RunResult` adds to a
        sweep, as the tuple a worker process ships back: ``(sub_optimality,
        degraded, reason, obs, max_penalty, spent, retries,
        wasted_cost)``."""
        extras = result.extras
        return (result.sub_optimality, bool(extras.get("degraded")),
                extras.get("degraded_reason"), extras.get("obs"),
                extras.get("max_penalty"), float(result.total_cost),
                int(extras.get("retries", 0)),
                float(extras.get("wasted_cost") or 0.0))

    def add(self, run):
        """Fold one run, given as :meth:`distil`'s tuple."""
        (sub, degraded, reason, obs, max_penalty, spent, retries,
         wasted) = run
        self.subopts.append(sub)
        if degraded:
            self.degraded += 1
            reason = reason or "unknown"
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if obs is not None:
            if self.obs is None:
                self.obs = MetricsRegistry()
            self.obs.merge(obs)
        if max_penalty is not None:
            self.max_penalty = max_penalty if self.max_penalty is None \
                else max(self.max_penalty, max_penalty)
        self.spent += spent
        self.retries += retries
        self.wasted_cost += wasted

    def extras(self):
        """The sweep-level extras dict (the degradation tally and the
        sums always present, so consumers never have to guess whether a
        missing key means "clean" or "not tracked")."""
        tally = {"degraded": self.degraded,
                 "degraded_reasons": dict(self.reasons)}
        if self.max_penalty is not None:
            tally["max_penalty"] = self.max_penalty
        tally["spent"] = self.spent
        tally["retries"] = self.retries
        tally["wasted_cost"] = self.wasted_cost
        if self.obs is not None:
            tally["obs"] = self.obs.snapshot()
        return tally

    def result(self, algorithm, flats, sampled, grid_shape):
        """The :class:`SweepResult` of the runs folded so far, over the
        visit list ``flats`` of a grid of shape ``grid_shape``: flat for
        a sampled sweep, grid-shaped otherwise."""
        subopts = np.array(self.subopts, dtype=float)
        if sampled:
            return SweepResult(algorithm, subopts, (len(flats),),
                               extras=self.extras(),
                               sample_flats=list(flats),
                               grid_shape=tuple(grid_shape))
        return SweepResult(algorithm, subopts.reshape(grid_shape),
                           grid_shape, extras=self.extras())


def sample_locations(grid, sample, rng):
    """``(positions' flat grid indices, sampled?)`` for one sweep unit.

    The single authority on which locations a (possibly sampled) sweep
    visits and in what order: the serial sweep and the parallel
    backend's chunk planner both call this, so the same ``rng`` draws
    the same locations no matter how execution is scheduled.
    """
    total = grid.size
    if sample is not None and sample < total:
        flats = np.random.default_rng(rng).choice(
            total, size=sample, replace=False)
        return [int(f) for f in flats], True
    return list(range(total)), False


def exhaustive_sweep(algorithm, sample=None, rng=None, progress=None,
                     engine_factory=None, tracer=NULL_TRACER):
    """Run ``algorithm`` with every grid location as the hidden truth.

    Parameters
    ----------
    algorithm:
        Any :class:`repro.algorithms.base.RobustAlgorithm`.
    sample:
        Optional cap on the number of locations (uniformly sampled
        without replacement); ``None`` sweeps the full grid.
    rng:
        Seed/generator for the sampling (ignored for full sweeps).
    progress:
        Optional callback ``f(done, total)`` for long sweeps.
    engine_factory:
        Optional ``f(qa_index) -> engine`` substituting the execution
        environment per run (e.g. a cost-model-error engine).
    tracer:
        Trace sink handed to every run (one stream for the sweep).

    Returns a :class:`SweepResult` whose array is grid-shaped for full
    sweeps and flat for sampled sweeps. What each run adds to the sweep
    (degradation, spend, retries, penalties) is folded into
    ``SweepResult.extras`` by :class:`SweepAccumulator`.
    """
    grid = algorithm.space.grid
    acc = SweepAccumulator()
    flats, sampled = sample_locations(grid, sample, rng)
    # One vectorised unravel for the whole visit list instead of a
    # per-location divmod walk (same order, same coordinates).
    coords = np.unravel_index(np.asarray(flats, dtype=np.int64),
                              grid.shape)
    locations = list(zip(*(axis.tolist() for axis in coords)))
    for pos, index in enumerate(locations):
        engine = engine_factory(index) if engine_factory else None
        acc.add(acc.distil(algorithm.run(index, engine=engine,
                                         tracer=tracer)))
        if progress:
            progress(pos + 1, len(flats))
    return acc.result(algorithm.name, flats, sampled, grid.shape)
