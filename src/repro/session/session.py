"""The session layer: one construction path above the cost model.

:class:`RobustSession` owns the full query -> exploration space ->
contour set -> engine -> algorithm lifecycle that experiments, examples,
benchmarks and the CLI previously re-wired by hand at every call site.
It threads every space/contour request through a content-addressed
:class:`~repro.session.cache.ArtifactCache` (in-memory LRU + optional
on-disk archives), so a (query, resolution, build-mode) artifact is
built once and reused across experiments, CLI invocations and sweeps --
the §7 "offline, amortizable activity" made operational.

Session defaults (resolution, build mode, engine spec, guard policy)
are constructor arguments; every method takes per-call overrides.
Queries are accepted as :class:`~repro.query.query.Query` objects or
registered workload names (``"4D_Q91"``).
"""

from repro.algorithms import (
    AlignedBound,
    NativeOptimizer,
    Oracle,
    PlanBouquet,
    SpillBound,
)
from repro.algorithms.randomized import RandomizedPlanBouquet
from repro.common.errors import DiscoveryError
from repro.ess.contours import ContourSet
from repro.ess.space import ExplorationSpace
from repro.obs.tracer import NULL_TRACER
from repro.robustness import DiscoveryGuard, RetryPolicy
from repro.session.cache import ArtifactCache, SpaceKey
from repro.session.registry import BreakerBoard, EngineSpec

#: name -> factory(space, contours, **kwargs). Contour-free baselines
#: simply ignore the contours argument.
ALGORITHMS = {
    "oracle": lambda space, contours, **kw: Oracle(space),
    "native": lambda space, contours, **kw: NativeOptimizer(space),
    "planbouquet": lambda space, contours, **kw: PlanBouquet(
        space, contours, **kw),
    "randomized": lambda space, contours, **kw: RandomizedPlanBouquet(
        space, contours, **kw),
    "spillbound": lambda space, contours, **kw: SpillBound(space, contours),
    "alignedbound": lambda space, contours, **kw: AlignedBound(
        space, contours),
}


class RobustSession:
    """Single construction path for robust query processing artifacts.

    Parameters
    ----------
    cache_dir:
        Optional directory for the on-disk artifact tier; ``None``
        keeps caching in-memory only.
    memory_slots:
        LRU capacity of the in-memory tier.
    resolution, mode, s_min, rng:
        Space-build defaults (same meaning as
        :class:`~repro.ess.space.ExplorationSpace`).
    ratio:
        Default contour cost ratio (the paper's doubling ladder).
    engine_spec:
        Default execution environment, as an
        :class:`~repro.session.registry.EngineSpec` or spec string.
    database:
        Row store for ``row``/``vectorized`` engine specs.
    guard:
        Attach a :class:`~repro.robustness.guard.DiscoveryGuard` to
        every algorithm the session hands out: ``True`` for the default
        :class:`RetryPolicy`, or a policy instance.
    breaker:
        Per-engine circuit breaking for guarded runs: ``True`` for a
        default :class:`~repro.session.registry.BreakerBoard`, or a
        board instance. Units sharing a substrate then share its
        breaker -- after its threshold of consecutive engine crashes
        later runs fast-fail to the native fallback.
    """

    def __init__(self, cache_dir=None, memory_slots=None, resolution=None,
                 mode="fast", s_min=1e-6, rng=0, ratio=2.0,
                 engine_spec="simulated", database=None, guard=None,
                 breaker=None, tracer=None, kernel=True):
        kwargs = {} if memory_slots is None else \
            {"memory_slots": memory_slots}
        self.cache = ArtifactCache(cache_dir=cache_dir, **kwargs)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            self.cache.tracer = self.tracer
        self.resolution = resolution
        self.mode = mode
        self.s_min = s_min
        self.rng = rng
        self.ratio = ratio
        self.engine_spec = EngineSpec.parse(engine_spec)
        self.database = database
        if guard is True:
            guard = RetryPolicy()
        self.guard_policy = guard
        if breaker is True:
            breaker = BreakerBoard()
        self.breakers = breaker
        #: Batch-evaluate grid hot paths through the vectorised
        #: :class:`~repro.cost.kernel.GridKernel`; ``False`` keeps the
        #: legacy scalar paths (bit-identical output either way).
        self.kernel = bool(kernel)

    # ------------------------------------------------------------------
    # resolution of inputs

    def query(self, query):
        """Resolve a workload name to a :class:`Query` (pass-through
        for Query objects)."""
        if isinstance(query, str):
            from repro.harness.workloads import workload
            return workload(query)
        return query

    def _build_knobs(self, resolution, mode, rng, s_min):
        return (
            self.resolution if resolution is None else resolution,
            self.mode if mode is None else mode,
            self.rng if rng is None else rng,
            self.s_min if s_min is None else s_min,
        )

    # ------------------------------------------------------------------
    # artifacts

    def space(self, query, resolution=None, mode=None, rng=None,
              s_min=None, cache=True):
        """The built exploration space for ``query`` (cached).

        ``cache=False`` bypasses both tiers: a fresh space is built and
        not stored (used when the caller mutates catalogs between
        builds, e.g. the wall-clock experiment's scaled data).
        """
        query = self.query(query)
        resolution, mode, rng, s_min = self._build_knobs(
            resolution, mode, rng, s_min)
        builder = self._builder(query, resolution, mode, rng, s_min)
        if not cache:
            return builder()
        key = SpaceKey.of(query, resolution=resolution, mode=mode,
                          s_min=s_min, rng=rng)
        return self.cache.space(key, query, builder)

    def contours(self, query, ratio=None, **space_kwargs):
        """The contour set for ``query`` (cached with its space)."""
        return self.space_and_contours(query, ratio=ratio,
                                       **space_kwargs)[1]

    def space_and_contours(self, query, ratio=None, resolution=None,
                           mode=None, rng=None, s_min=None, cache=True):
        """The ``(space, contours)`` pair every algorithm consumes."""
        query = self.query(query)
        ratio = self.ratio if ratio is None else ratio
        resolution, mode, rng, s_min = self._build_knobs(
            resolution, mode, rng, s_min)
        builder = self._builder(query, resolution, mode, rng, s_min)
        if not cache:
            space = builder()
            return space, ContourSet(space, ratio=ratio)
        key = SpaceKey.of(query, resolution=resolution, mode=mode,
                          s_min=s_min, rng=rng)
        return self.cache.contours(key, query, builder, ratio)

    def contours_for(self, space, ratio=None):
        """Contours for a space built outside the session (synthetic
        geometries, adopted archives). Cached per space object."""
        ratio = self.ratio if ratio is None else ratio
        cache = getattr(space, "_session_contours", None)
        if cache is None:
            cache = {}
            try:
                space._session_contours = cache
            except AttributeError:
                # __slots__-restricted space: build uncached.
                self.cache.stats.contour_builds += 1
                return ContourSet(space, ratio=ratio)
        contours = cache.get(ratio)
        if contours is None:
            self.cache.stats.contour_builds += 1
            contours = ContourSet(space, ratio=ratio)
            cache[ratio] = contours
        else:
            self.cache.stats.contour_hits += 1
        return contours

    def _builder(self, query, resolution, mode, rng, s_min):
        self_building = getattr(query, "build_space", None)
        if self_building is not None:
            # Self-building queries (q-error regime workloads) own their
            # space construction; the session still provides the cache
            # key, the memory tier and the contour cache around it.
            def build_synthetic():
                return self_building(resolution=resolution, s_min=s_min,
                                     rng=rng)

            return build_synthetic

        def build():
            space = ExplorationSpace(query, resolution=resolution,
                                     s_min=s_min, kernel=self.kernel)
            return space.build(mode=mode, rng=rng)

        return build

    # ------------------------------------------------------------------
    # engines and algorithms

    def engine(self, query, qa_index=None, spec=None, database=None,
               **build_overrides):
        """Build the session's (or ``spec``'s) engine hiding ``qa_index``."""
        spec = self.engine_spec if spec is None else EngineSpec.parse(spec)
        space = query if isinstance(query, ExplorationSpace) \
            else self.space(query)
        return spec.build(space, qa_index=qa_index,
                          database=database or self.database,
                          **build_overrides)

    def algorithm(self, algorithm="spillbound", query=None, space=None,
                  contours=None, guard=None, ratio=None, resolution=None,
                  deadline=None, breaker=None, **kwargs):
        """An algorithm instance wired to cached artifacts.

        ``algorithm`` is a registry name, a class with the
        ``(space, contours)`` constructor, or an already-built
        instance (returned as-is, possibly guarded). Extra ``kwargs``
        (``lam=``, ``seed=``) go to the algorithm factory. With a
        session guard policy (or ``guard=`` override) the instance is
        wrapped in a :class:`DiscoveryGuard`; ``deadline=`` and
        ``breaker=`` attach durability watchdogs to that guard (and
        imply a default one when the session has none). A session-level
        :class:`BreakerBoard` supplies the per-engine breaker when
        neither ``guard=`` nor ``breaker=`` is given, so an explicit
        ``guard=False`` returns the bare instance and an explicit policy
        gets only the watchdogs it is handed.
        """
        instance = None
        if not isinstance(algorithm, (str, type)):
            instance = algorithm
        else:
            if space is None:
                if query is None:
                    raise DiscoveryError(
                        "algorithm() needs query= or space=")
                space, contours = self.space_and_contours(
                    query, ratio=ratio, resolution=resolution)
            elif contours is None:
                contours = self.contours_for(space, ratio=ratio)
            if isinstance(algorithm, str):
                try:
                    factory = ALGORITHMS[algorithm]
                except KeyError:
                    raise DiscoveryError(
                        "unknown algorithm %r (registered: %s)"
                        % (algorithm, ", ".join(sorted(ALGORITHMS)))
                    ) from None
                instance = factory(space, contours, **kwargs)
            else:
                instance = algorithm(space, contours, **kwargs)
        policy = self.guard_policy if guard is None else guard
        if policy is True:
            policy = RetryPolicy()
        if breaker is None and guard is None and self.breakers is not None:
            breaker = self.breakers.breaker_for(self.engine_spec)
        if not policy and (deadline is not None or breaker is not None):
            # Watchdogs live on the guard; requesting one implies it.
            policy = RetryPolicy()
        if policy:
            instance = DiscoveryGuard(instance, policy=policy,
                                      deadline=deadline, breaker=breaker)
        return instance

    # ------------------------------------------------------------------
    # running

    def run(self, query, qa_index=None, algorithm="spillbound",
            engine=None, spec=None, checkpoint=None, guard=None,
            tracer=None, **kwargs):
        """One discovery run at a hidden truth; returns a ``RunResult``.

        ``qa_index=None`` places the truth at 70% along every dimension
        (the CLI's historical default). ``engine`` short-circuits
        engine construction; otherwise ``spec`` (or the session
        default) builds one. ``tracer`` overrides the session's trace
        sink for this run.
        """
        query = self.query(query)
        algo = self.algorithm(algorithm, query=query, guard=guard, **kwargs)
        space = algo.space
        if qa_index is None:
            qa_index = tuple(int(r * 0.7) for r in space.grid.shape)
        else:
            qa_index = tuple(qa_index)
        if engine is None:
            wants_default = spec is None \
                and self.engine_spec == EngineSpec.parse("simulated")
            if not wants_default:
                engine = self.engine(space, qa_index=qa_index, spec=spec)
        return algo.run(qa_index, engine=engine, checkpoint=checkpoint,
                        tracer=self.tracer if tracer is None else tracer)

    def sweep(self, query, algorithm="spillbound", sample=None, rng=0,
              spec=None, progress=None, **kwargs):
        """Exhaustive (or sampled) empirical MSO/ASO for one algorithm.

        One :class:`~repro.session.sweep.SweepDriver` unit over the
        instance :meth:`algorithm` builds (guarded at most once), on
        ``spec`` or else the session's engine spec.
        """
        from repro.session.sweep import SweepDriver

        instance = self.algorithm(algorithm, query=query, **kwargs)
        driver = SweepDriver(self, sample=sample, rng=rng,
                             progress=progress, engine_spec=spec)
        (record,) = driver.run([query], [instance])
        return record.sweep

    # ------------------------------------------------------------------

    @property
    def stats(self):
        """Cache effectiveness counters for this session."""
        return self.cache.stats

    def __repr__(self):
        return "RobustSession(%d cached spaces, %s, engine=%s)" % (
            len(self.cache), self.stats.describe(),
            self.engine_spec.describe())


# ----------------------------------------------------------------------
# process-wide default session (shared by build_space, experiments, CLI)

_DEFAULT_SESSION = None


def default_session():
    """The process-wide session behind the legacy entry points.

    ``repro.harness.workloads.build_space``, the experiment drivers and
    the CLI all share this instance, so artifacts built by any of them
    are reused by all of them.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = RobustSession()
    return _DEFAULT_SESSION


def set_default_session(session):
    """Replace the process-wide session (e.g. to add a disk cache
    tier); returns the previous one."""
    global _DEFAULT_SESSION
    previous = _DEFAULT_SESSION
    _DEFAULT_SESSION = session
    return previous
