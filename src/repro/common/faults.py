"""One seeded fault primitive for every layer that injects adversity.

The MSO guarantees assume a flawless substrate; the system measures
them under seeded adversity at three layers, each with its own plan
class built on :class:`SeededFaultPlan`:

* :class:`~repro.engine.faulty.FaultPlan` -- the engine contract
  (transients, crashes with partial spend, monitor corruption, meter
  drift), per budgeted execution;
* :class:`~repro.ir.faults.BackendFaultPlan` -- the IR backend
  boundary (the substrate going away), per backend ``run()``;
* :class:`~repro.serve.faults.ServeFaultPlan` -- the serving wire
  (dropped, truncated, garbage-prefixed and slowed frames), per frame.

The base owns everything the layers share: rate and parameter
validation, per-kind forced ordinals, ``is_clean``, spec parsing from
the layer's knob table, ``to_dict``/``from_dict``, ``schedule`` and one
``describe`` format (``knob=rate,...,forced=N``). A layer declares only
its knob table and its ``fault_at``: the order in which kinds are tried
and what each kind draws once it fires.

Decisions at ordinal ``n`` are drawn from
``default_rng((seed, n))``, so a (plan, call sequence) pair is exactly
reproducible in any process and a retried call sees fresh draws. A
forced ordinal fires without consuming a draw; a kind that is tried
and not forced consumes exactly one uniform draw, whatever its rate.
"""

import numpy as np


class SeededFaultPlan:
    """Base of the per-layer seeded fault plans.

    Subclasses declare three tables:

    * ``RATES`` -- spec knob -> rate attribute, in report order; every
      rate is an independent per-ordinal probability in ``[0, 1]``, and
      the first knob is the one a bare-float spec sets;
    * ``PARAMS`` -- parameter name (also its spec knob) ->
      ``(default, minimum)``;
    * ``FORCED`` -- kind -> attribute holding the 1-based ordinals at
      which that kind fires regardless of its rate.

    Constructor keywords are the rate attributes, the parameters,
    ``seed`` and the forced attributes; :meth:`to_dict` emits them in
    that order.
    """

    RATES = {}
    PARAMS = {}
    FORCED = {}

    def __init__(self, **kwargs):
        unknown = set(kwargs) - set(self.fields())
        if unknown:
            raise TypeError("%s got unexpected keyword arguments %s"
                            % (type(self).__name__, sorted(unknown)))
        for attr in self.RATES.values():
            rate = float(kwargs.get(attr, 0.0))
            if not 0.0 <= rate <= 1.0:
                raise ValueError("%s must be in [0, 1], got %r"
                                 % (attr, rate))
            setattr(self, attr, rate)
        for name, (default, minimum) in self.PARAMS.items():
            value = float(kwargs.get(name, default))
            if value < minimum:
                raise ValueError("%s must be >= %g" % (name, minimum))
            setattr(self, name, value)
        self.seed = int(kwargs.get("seed", 0))
        for attr in self.FORCED.values():
            setattr(self, attr,
                    frozenset(int(o) for o in kwargs.get(attr, ())))

    @classmethod
    def fields(cls):
        """Constructor keywords, in :meth:`to_dict` order."""
        return (list(cls.RATES.values()) + list(cls.PARAMS) + ["seed"]
                + list(cls.FORCED.values()))

    @classmethod
    def knobs(cls):
        """Spec knob -> constructor keyword (rates, then parameters)."""
        return dict(cls.RATES, **{name: name for name in cls.PARAMS})

    @property
    def is_clean(self):
        """True when the plan injects nothing at all."""
        attrs = list(self.RATES.values()) + list(self.FORCED.values())
        return not any(getattr(self, attr) for attr in attrs)

    # ------------------------------------------------------------------
    # the spec vocabulary

    @classmethod
    def from_knobs(cls, knobs, seed=0):
        """A plan from ``{knob: value}`` in the layer's spec vocabulary."""
        table = cls.knobs()
        kwargs = {"seed": seed}
        for name, value in knobs.items():
            if name not in table:
                raise ValueError(
                    "unknown %s knob %r (expected one of %s)"
                    % (cls.__name__, name, ", ".join(sorted(table))))
            kwargs[table[name]] = float(value)
        return cls(**kwargs)

    @classmethod
    def parse(cls, spec, seed=0):
        """Build a plan from a CLI spec string.

        ``spec`` is either a single float (the first rate knob) or a
        comma list of ``knob=value`` pairs from :meth:`knobs`, e.g.
        ``"crash=0.2,corrupt=0.1"``.
        """
        first = next(iter(cls.RATES.values()))
        try:
            return cls(**{first: float(spec), "seed": seed})
        except (TypeError, ValueError):
            pass
        knobs = {}
        for item in str(spec).split(","):
            if item.strip():
                name, _, value = item.partition("=")
                knobs[name.strip()] = value
        return cls.from_knobs(knobs, seed=seed)

    def to_dict(self):
        """JSON-safe form; :meth:`from_dict` round-trips it exactly."""
        forced = set(self.FORCED.values())
        return {name: sorted(getattr(self, name)) if name in forced
                else getattr(self, name) for name in self.fields()}

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a plan serialized by :meth:`to_dict` (e.g. in another
        process); the rebuilt plan injects the identical schedule."""
        return cls(**payload)

    # ------------------------------------------------------------------
    # decisions

    def fault_at(self, ordinal, **context):
        """The JSON-safe decision taken at ``ordinal`` (per layer)."""
        raise NotImplementedError

    def _rng(self, ordinal):
        return np.random.default_rng((self.seed, ordinal))

    def _fires(self, kind, rng, ordinal):
        """Whether ``kind`` fires at ``ordinal``: a forced ordinal fires
        without a draw, otherwise one uniform draw meets the rate."""
        forced = self.FORCED.get(kind)
        if forced is not None and ordinal in getattr(self, forced):
            return True
        return rng.uniform() < getattr(self, self.RATES[kind])

    def schedule(self, count, **context):
        """The first ``count`` decisions (see :meth:`fault_at`).

        Because draws are keyed by ``(seed, ordinal)``, the schedule is
        a pure function of the plan -- any process that deserializes the
        same plan computes the same schedule, which is what makes
        fault-injection runs reproducible across crash/resume
        boundaries.
        """
        return [self.fault_at(o, **context) for o in range(1, count + 1)]

    def describe(self):
        """``knob=rate,...,forced=N`` for the nonzero rates and the
        number of forced ordinals, or ``"clean"``."""
        parts = ["%s=%g" % (knob, getattr(self, attr))
                 for knob, attr in self.RATES.items() if getattr(self, attr)]
        forced = sum(len(getattr(self, a)) for a in self.FORCED.values())
        if forced:
            parts.append("forced=%d" % forced)
        return ",".join(parts) or "clean"

    def __repr__(self):
        return "%s(%s, seed=%d)" % (type(self).__name__, self.describe(),
                                    self.seed)
