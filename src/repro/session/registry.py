"""Declarative engine registry and spec parsing.

Execution environments used to be composed by hand at every call site
(``FaultyEngine(space, qa, plan=..., base=NoisyEngine(...))``). An
:class:`EngineSpec` names the same composition declaratively::

    simulated
    simulated+noisy(delta=0.3,seed=13)
    simulated+noisy(delta=0.3)+faulty(crash=0.2,seed=5)
    row(delta=1.0)
    row(backend=sqlite,delta=0.5)
    vectorized(delta=0.5)

The first segment picks a **base** environment from :data:`BASE_ENGINES`
(``simulated``, ``row``, ``vectorized``); each further ``+layer(...)``
segment wraps it with a registered **layer** from :data:`ENGINE_LAYERS`
(``noisy``, ``faulty``). The ``row`` base selects its execution
substrate with ``backend=`` (a name from
:data:`repro.ir.backends.BACKENDS`: ``native``, ``vectorized`` or
``sqlite``); ``vectorized`` is the fixed-substrate shorthand for
``row(backend=vectorized)``. Specs are plain data: parse once, ``build()``
per hidden truth. Fault-free builds are execution-identical to the
hand-written composition they replace (tested), so the registry is a
naming layer, not a new semantics.

New bases/layers register via :func:`register_base` /
:func:`register_layer`, keeping the vocabulary open for future
substrates (a network-attached engine, a disk-spill simulator, ...).
"""

import threading

from repro.common.errors import DiscoveryError
from repro.engine.faulty import FaultPlan, FaultyEngine
from repro.engine.noisy import NoisyEngine
from repro.engine.simulated import SimulatedEngine

#: name -> factory(space, qa_index, database, **kwargs) -> engine
BASE_ENGINES = {}

#: name -> factory(engine, space, qa_index, **kwargs) -> engine
ENGINE_LAYERS = {}


def register_base(name):
    """Class decorator-style registration of a base engine factory."""
    def deco(factory):
        BASE_ENGINES[name] = factory
        return factory
    return deco


def register_layer(name):
    """Registration of a wrapping layer factory."""
    def deco(factory):
        ENGINE_LAYERS[name] = factory
        return factory
    return deco


# ----------------------------------------------------------------------
# built-in bases


@register_base("simulated")
def _simulated(space, qa_index, database, **kwargs):
    if kwargs:
        raise DiscoveryError(
            "simulated engine takes no arguments, got %r" % (kwargs,))
    if qa_index is None:
        raise DiscoveryError("simulated engine needs a qa_index")
    return SimulatedEngine(space, qa_index)


def _row_backed(space, database, default_backend, **kwargs):
    from repro.executor.rowengine import RowBackedEngine
    from repro.ir.backends import BACKENDS

    if database is None:
        raise DiscoveryError(
            "row-backed engines need a database; pass database= to the "
            "session or the build call")
    allowed = {"delta", "backend", "fail", "fail_seed"}
    unknown = set(kwargs) - allowed
    if unknown:
        raise DiscoveryError(
            "unknown row-engine arguments %s" % sorted(unknown))
    backend = kwargs.pop("backend", default_backend)
    if backend not in BACKENDS:
        raise DiscoveryError(
            "unknown execution backend %r (registered: %s)"
            % (backend, ", ".join(sorted(BACKENDS))))
    return RowBackedEngine(space, database, backend=backend, **kwargs)


@register_base("row")
def _row(space, qa_index, database, **kwargs):
    # qa_index is discovered from the data, not injected; an explicit
    # one is ignored by design (the truth lives in the rows).
    return _row_backed(space, database, "native", **kwargs)


@register_base("vectorized")
def _vectorized(space, qa_index, database, **kwargs):
    if "backend" in kwargs:
        raise DiscoveryError(
            "the vectorized base is fixed to its substrate; use "
            "row(backend=...) to pick one")
    return _row_backed(space, database, "vectorized", **kwargs)


# ----------------------------------------------------------------------
# built-in layers


@register_layer("noisy")
def _noisy(engine, space, qa_index, **kwargs):
    if type(engine) is not SimulatedEngine:
        raise DiscoveryError(
            "the noisy layer replaces the simulated base; it cannot "
            "wrap %r" % type(engine).__name__)
    allowed = {"delta", "seed"}
    unknown = set(kwargs) - allowed
    if unknown:
        raise DiscoveryError(
            "unknown noisy-layer arguments %s" % sorted(unknown))
    if "seed" in kwargs:
        kwargs["seed"] = int(kwargs["seed"])
    return NoisyEngine(space, engine.qa_index, **kwargs)


@register_layer("latency")
def _latency(engine, space, qa_index, **kwargs):
    from repro.engine.latency import LatencyEngine

    allowed = {"ms"}
    unknown = set(kwargs) - allowed
    if unknown:
        raise DiscoveryError(
            "unknown latency-layer arguments %s" % sorted(unknown))
    return LatencyEngine(engine, **kwargs)


@register_layer("faulty")
def _faulty(engine, space, qa_index, **kwargs):
    # The layer speaks the plan's own knob vocabulary, plus seed.
    knobs = set(FaultPlan.knobs()) | {"seed"}
    unknown = set(kwargs) - knobs
    if unknown:
        raise DiscoveryError(
            "unknown faulty-layer arguments %s (expected %s)"
            % (sorted(unknown), ", ".join(sorted(knobs))))
    seed = int(kwargs.pop("seed", 0))
    plan = FaultPlan.from_knobs(kwargs, seed=seed)
    # A plain SimulatedEngine base is the FaultyEngine's own default
    # semantics; passing it as base= would be equivalent but slower.
    base = None if type(engine) is SimulatedEngine else engine
    return FaultyEngine(space, engine.qa_index, plan=plan, base=base)


# ----------------------------------------------------------------------
# the spec


class EngineSpec:
    """Parsed, buildable description of an execution environment.

    ``base`` names an entry of :data:`BASE_ENGINES`; ``base_args`` its
    keyword arguments; ``layers`` is a tuple of ``(name, kwargs)``
    pairs applied left to right. Instances are immutable value objects:
    equal specs build equal engines.
    """

    __slots__ = ("base", "base_args", "layers")

    def __init__(self, base="simulated", base_args=None, layers=()):
        if base not in BASE_ENGINES:
            raise DiscoveryError(
                "unknown base engine %r (registered: %s)"
                % (base, ", ".join(sorted(BASE_ENGINES))))
        for name, _kwargs in layers:
            if name not in ENGINE_LAYERS:
                raise DiscoveryError(
                    "unknown engine layer %r (registered: %s)"
                    % (name, ", ".join(sorted(ENGINE_LAYERS))))
        self.base = base
        self.base_args = dict(base_args or {})
        self.layers = tuple((name, dict(kwargs)) for name, kwargs in layers)

    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec):
        """Parse ``"base(arg=v)+layer(arg=v)+..."`` into a spec.

        An :class:`EngineSpec` instance passes through unchanged, so
        APIs can accept either form. A leading ``+`` means "layers on
        the default simulated base" (``"+faulty(crash=0.2)"``).
        """
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, str) or not spec.strip():
            raise DiscoveryError("engine spec must be a non-empty string")
        text = spec.strip()
        if text.startswith("+"):
            text = "simulated" + text
        segments = [s.strip() for s in text.split("+")]
        if any(not s for s in segments):
            raise DiscoveryError("empty segment in engine spec %r" % spec)
        base, base_args = _parse_segment(segments[0])
        layers = [_parse_segment(s) for s in segments[1:]]
        return cls(base, base_args, layers)

    def describe(self):
        """Canonical string form (parses back to an equal spec)."""
        return "+".join(
            [_format_segment(self.base, self.base_args)]
            + [_format_segment(n, k) for n, k in self.layers]
        )

    # ------------------------------------------------------------------

    def build(self, space, qa_index=None, database=None, **overrides):
        """Construct the engine over ``space`` hiding ``qa_index``.

        ``overrides`` are knob arguments merged into the *last* faulty
        layer's (e.g. ``seed=``), the hook sweeps use to vary fault
        seeds per unit or location without re-parsing the spec.
        """
        engine = BASE_ENGINES[self.base](
            space, qa_index, database, **self.base_args)
        for pos, (name, kwargs) in enumerate(self.layers):
            if overrides and pos == len(self.layers) - 1 \
                    and name == "faulty":
                kwargs = dict(kwargs, **overrides)
            engine = ENGINE_LAYERS[name](engine, space, qa_index, **kwargs)
        return engine

    # ------------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, EngineSpec)
                and self.base == other.base
                and self.base_args == other.base_args
                and self.layers == other.layers)

    def __hash__(self):
        return hash(self.describe())

    def __repr__(self):
        return "EngineSpec(%r)" % self.describe()


# ----------------------------------------------------------------------
# per-engine circuit breakers


class BreakerBoard:
    """One :class:`~repro.robustness.durable.CircuitBreaker` per engine.

    Breakers are keyed by the spec's canonical string
    (:meth:`EngineSpec.describe`), so every unit of a sweep that runs on
    the same substrate shares one breaker: after ``threshold``
    consecutive :class:`~repro.common.errors.EngineCrashError`\\ s on
    that substrate the breaker opens and later units fast-fail to the
    native fallback instead of burning their full retry budget.

    The board is shared across threads by the serving daemon (every
    tenant's requests on one substrate feed one breaker), so the
    breaker map is guarded by a mutex: concurrent first lookups of the
    same spec resolve to a *single* breaker rather than racing two into
    existence and splitting the crash streak between them.
    """

    __slots__ = ("threshold", "cooldown", "_breakers", "_mutex")

    def __init__(self, threshold=3, cooldown=8):
        self.threshold = threshold
        self.cooldown = cooldown
        self._breakers = {}
        self._mutex = threading.Lock()

    def breaker_for(self, spec):
        """The shared breaker for ``spec`` (created on first use)."""
        from repro.robustness.durable import CircuitBreaker

        key = spec.describe() if isinstance(spec, EngineSpec) else str(spec)
        with self._mutex:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(threshold=self.threshold,
                                         cooldown=self.cooldown)
                self._breakers[key] = breaker
            return breaker

    def open_count(self):
        """Total times any breaker on the board tripped open."""
        with self._mutex:
            breakers = list(self._breakers.values())
        return sum(b.opened for b in breakers)

    def export(self):
        """``{spec key: breaker stats}`` snapshot (JSON/pickle-safe).

        The parallel sweep backend ships these from worker processes so
        the parent can fold crash-hygiene accounting back into its own
        board with :meth:`absorb`.
        """
        with self._mutex:
            items = list(self._breakers.items())
        return {key: breaker.stats() for key, breaker in items}

    def absorb(self, exported):
        """Fold another board's exported stats into this one.

        Only the *reporting* counters are folded (``opened``,
        ``fast_fails``, ``failures``); the local breakers' live state
        machines are untouched -- a worker's breaker tripping says the
        substrate misbehaved over there, not that attempts here must now
        fast-fail.
        """
        for key, stats in exported.items():
            self.breaker_for(key).absorb(stats)

    def __len__(self):
        return len(self._breakers)

    def __repr__(self):
        return "BreakerBoard(%d engines, %d opens)" % (
            len(self._breakers), self.open_count())


#: Spec argument keys whose values are symbolic names, not numbers.
#: Everything else must parse as a float, keeping typos loud
#: (``noisy(delta=lots)`` stays a parse error).
_STRING_ARGS = frozenset({"backend"})


def _parse_segment(segment):
    """``"name(k=v,k=v)"`` -> ``(name, {k: float(v), ...})``."""
    name, paren, rest = segment.partition("(")
    name = name.strip()
    if not name:
        raise DiscoveryError("engine segment %r has no name" % segment)
    if not paren:
        return name, {}
    if not rest.endswith(")"):
        raise DiscoveryError("unbalanced parentheses in %r" % segment)
    kwargs = {}
    body = rest[:-1].strip()
    if body:
        for item in body.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise DiscoveryError(
                    "expected key=value in %r, got %r" % (segment, item))
            if key in _STRING_ARGS:
                kwargs[key] = value.strip()
                continue
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise DiscoveryError(
                    "non-numeric value %r for %s in %r"
                    % (value.strip(), key, segment)) from None
    return name, kwargs


def _format_value(value):
    return value if isinstance(value, str) else "%g" % value


def _format_segment(name, kwargs):
    if not kwargs:
        return name
    body = ",".join(
        "%s=%s" % (k, _format_value(v)) for k, v in sorted(kwargs.items()))
    return "%s(%s)" % (name, body)
