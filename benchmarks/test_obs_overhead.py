"""Overhead contract of the observability layer (DESIGN.md §8).

Tracing is opt-in; with the default :data:`NULL_TRACER` installed, every
instrumentation site costs one class-attribute load (``tracer.enabled``)
and nothing else. This benchmark makes that contract a number:

* time an untraced fig8-style exhaustive sweep (the denominator);
* re-run the identical sweep with a probe whose ``enabled`` reads are
  counted, giving the *exact* number of disabled-site checks;
* time the disabled check itself in a tight loop (the loop body's own
  overhead is charged to the check, over-counting it 2-3x);
* assert checks x per-check cost x 2 stays under 2% of the sweep, and
  emit the accounting as ``results/BENCH_obs_overhead.json``.
"""

import time

from conftest import resolution_for, run_once, write_bench_json

from repro.algorithms.spillbound import SpillBound
from repro.ess.contours import ContourSet
from repro.ess.space import ExplorationSpace
from repro.harness.workloads import workload
from repro.metrics.mso import exhaustive_sweep
from repro.obs import NULL_TRACER, Tracer

#: Fraction of sweep wall-clock the disabled hot path may cost.
OVERHEAD_BUDGET = 0.02

#: Safety multiplier on the measured per-check x check-count estimate.
SAFETY_FACTOR = 2


class _CountingNull:
    """A disabled tracer whose ``enabled`` reads are counted.

    Passing it as the runs' ``tracer`` exercises exactly the production
    disabled path (no site gets past the guard, nothing is attached to
    engines), while ``checks`` records how many guard checks the run
    actually performed.
    """

    def __init__(self):
        self.checks = 0

    @property
    def enabled(self):
        self.checks += 1
        return False


def _per_check_seconds(loops=2_000_000):
    """Wall-clock cost of one ``tracer.enabled`` check, measured hot."""
    tracer = NULL_TRACER
    sink = 0
    start = time.perf_counter()
    for _ in range(loops):
        if tracer.enabled:
            sink += 1
    elapsed = time.perf_counter() - start
    assert sink == 0
    return elapsed / loops


def test_obs_overhead(benchmark):
    resolution = resolution_for("2D_Q91")
    space = ExplorationSpace(workload("2D_Q91"),
                             resolution=resolution).build()
    contours = ContourSet(space)
    algorithm = SpillBound(space, contours)

    def untraced():
        start = time.perf_counter()
        sweep = exhaustive_sweep(algorithm, sample=128, rng=0)
        return time.perf_counter() - start, sweep

    sweep_seconds, sweep = run_once(benchmark, untraced)

    # Identical sweep with the counting probe: exact check census.
    probe = _CountingNull()
    probed = exhaustive_sweep(algorithm, sample=128, rng=0, tracer=probe)
    # And once fully traced, to confirm tracing changes nothing.
    tracer = Tracer()
    traced = exhaustive_sweep(algorithm, sample=128, rng=0, tracer=tracer)
    assert probed.mso == sweep.mso
    assert traced.mso == sweep.mso

    checks = probe.checks
    per_check = _per_check_seconds()
    estimated = checks * per_check * SAFETY_FACTOR
    fraction = estimated / sweep_seconds

    payload = {
        "sweep": "2D_Q91 spillbound, 128 sampled locations, res %d"
                 % resolution,
        "sweep_seconds": sweep_seconds,
        "disabled_checks": checks,
        "events_when_traced": len(tracer.records),
        "safety_factor": SAFETY_FACTOR,
        "per_check_ns": per_check * 1e9,
        "estimated_overhead_seconds": estimated,
        "estimated_overhead_fraction": fraction,
        "budget_fraction": OVERHEAD_BUDGET,
    }
    write_bench_json(payload, "BENCH_obs_overhead.json")
    print("\nobs overhead: %d checks x %.1fns x %d = %.4fms "
          "over %.1fms sweep (%.3f%%, budget %.0f%%)"
          % (checks, per_check * 1e9, SAFETY_FACTOR, estimated * 1e3,
             sweep_seconds * 1e3, 100.0 * fraction,
             100.0 * OVERHEAD_BUDGET))

    assert fraction < OVERHEAD_BUDGET, (
        "disabled-tracing overhead estimate %.3f%% exceeds the %.0f%% "
        "budget" % (100.0 * fraction, 100.0 * OVERHEAD_BUDGET))
