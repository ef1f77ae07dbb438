"""The repository's benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload sweep-exhaustive --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program exactly
as shipped. ``--trace 1`` installs span wrappers around the program's
layer boundaries (``spans.py``) and reports the per-layer metrics
instead, with a table whose self times plus an unattributed row add up
to the traced wall time. Either way the workload's outputs are checked
outside the measured phase, and the last line printed is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The benchmark runs the ``repro`` package from ``src/`` of the checkout
it sits in, and writes only under ``.perfbench/`` there.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import time

import numpy as np

import spans
import workloads


def host_probe_ms():
    """Median time of a fixed pure-Python loop: a host-speed reading to
    print beside the metrics, so a slow host phase can be told apart
    from program variance. Not a metric."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        total = 0
        for i in range(200000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def per_layer(trace):
    """The per-layer metrics of one traced run, plus its layer table.

    Every ``_s`` metric is self time: a span's duration minus its
    children's, so the rows add up. ``_n`` metrics are call counts.
    """
    columns = trace["columns"]
    names = trace["names"]
    if trace["window"] is not None:
        columns = spans.window(columns, *trace["window"])
    self_ns, parent_pos, has_parent = spans.self_times(columns)
    name_of = np.asarray(names, dtype=object)[columns["name"]] \
        if len(columns["name"]) else np.zeros(0, dtype=object)
    rows = spans.table(columns, names)
    counts = trace["counts"]
    truths = max(trace["truths"], 1)

    def busy(name):
        return rows.get(name, (0.0, 0))[0]

    def calls(name):
        return rows.get(name, (0.0, 0))[1]

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    # Setup.
    put("session.space_and_contours_s", busy(spans.CACHE_SPAN), "s")
    put("ess.build_s", busy("ess.build"), "s")
    put("ess.build_n", calls("ess.build"), "count")
    put("optimizer.batch_s", busy("optimizer.batch"), "s")
    put("optimizer.batch_cells", counts.get("optimizer.batch_cells", 0),
        "count")
    put("cost.plan_surface_s", busy("cost.plan_surface"), "s")
    put("cost.plan_surface_n", calls("cost.plan_surface"), "count")
    put("ess.contours_build_s", busy("ess.contours_build"), "s")
    # Discovery loop and algorithm construction.
    for key in spans.ALGORITHM_KEYS.values():
        put("algorithms.%s.run_self_s" % key,
            busy("algorithms.%s.run" % key), "s")
        put("algorithms.%s.run_n" % key, calls("algorithms.%s.run" % key),
            "count")
        put("algorithms.%s.construct_s" % key,
            busy("algorithms.%s.construct" % key), "s")
        put("algorithms.%s.construct_n" % key,
            calls("algorithms.%s.construct" % key), "count")
    put("ess.contours_members_s", busy("ess.contours_members"), "s")
    put("ess.contours_members_n", calls("ess.contours_members"), "count")
    put("engine.execute_s", busy("engine.execute"), "s")
    put("engine.execute_n", calls("engine.execute"), "count")
    put("engine.execute_spill_s", busy("engine.execute_spill"), "s")
    put("engine.execute_spill_n", calls("engine.execute_spill"), "count")
    put("engine.executions_per_truth",
        (calls("engine.execute") + calls("engine.execute_spill")) / truths,
        "count")
    optimize_at = calls("ess.optimize_at")
    put("ess.optimize_at_n", optimize_at, "count")
    put("optimizer.point_s", busy("optimizer.point"), "s")
    put("optimizer.point_n", calls("optimizer.point"), "count")
    point = (name_of == "optimizer.point") & has_parent
    reached = int(np.sum(name_of[parent_pos[point]] == "ess.optimize_at"))
    put("ess.dp_memo_hit_ratio",
        1.0 - reached / optimize_at if optimize_at else 0.0, "ratio")
    put("metrics.sweep_self_s", busy("metrics.sweep"), "s")
    # Durability and faults.
    put("robustness.checkpoint_save_s", busy("robustness.checkpoint_save"),
        "s")
    put("robustness.checkpoint_save_n",
        calls("robustness.checkpoint_save"), "count")
    put("robustness.checkpoint_saves_per_truth",
        calls("robustness.checkpoint_save") / truths, "count")
    put("robustness.journal_append_s", busy("robustness.journal_append"),
        "s")
    put("robustness.journal_append_n", calls("robustness.journal_append"),
        "count")
    put("robustness.journal_bytes",
        counts.get("robustness.journal_bytes", 0), "bytes")
    put("robustness.guard_run_self_s", busy("robustness.guard_run"), "s")
    put("robustness.guard_retries",
        counts.get("robustness.guard_retries", 0), "count")
    put("robustness.guard_degraded",
        counts.get("robustness.guard_degraded", 0), "count")
    put("engine.faults_injected", counts.get("engine.faults_injected", 0),
        "count")
    # Serve.
    serve = trace["serve"] or {}
    timed = trace["timed"]
    queue = [value for at, value in trace["samples"].get(
        "serve.queue_wait_ms", []) if timed and timed[0] <= at < timed[1]]
    put("serve.server_ms_p50", _median(serve.get("server_ms", [])), "ms")
    put("serve.wire_ms_p50", _median(serve.get("wire_ms", [])), "ms")
    put("serve.queue_wait_ms_p50", _median(queue), "ms")
    put("serve.protocol_s", busy("serve.protocol"), "s")
    put("serve.admission_s", busy("serve.admission"), "s")
    cache = name_of == spans.CACHE_SPAN
    if timed is not None:
        cache &= (columns["start"] >= timed[0]) \
            & (columns["start"] < timed[1])
    else:
        cache &= has_parent  # inside sweep units, not the setup builds
    put("session.cache_hit_ratio",
        1.0 - float(np.mean(columns["tag"][cache])) if cache.any()
        else 0.0, "ratio")
    put("serve.refused", serve.get("refused", 0), "count")
    put("serve.degraded", serve.get("degraded", 0), "count")
    # The trace itself.
    attributed = float(self_ns.sum()) / 1e9
    put("trace.wall_s", trace["wall_s"], "s")
    put("trace.unattributed_s", trace["wall_s"] - attributed, "s")
    put("trace.truths_per_s", trace["truths"] / trace["timed_s"], "1/s")

    lines = ["%-34s %12s %10s" % ("layer (self time)", "seconds", "calls")]
    for name, (seconds, n) in sorted(rows.items(),
                                     key=lambda kv: -kv[1][0]):
        lines.append("%-34s %12.4f %10d" % (name, seconds, n))
    lines.append("%-34s %12.4f" % ("(unattributed)",
                                   trace["wall_s"] - attributed))
    lines.append("%-34s %12.4f" % ("(traced wall)", trace["wall_s"]))
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(workloads.SRC, "repro")):
        sys.stderr.write("perfbench: no repro package under %s\n"
                         % workloads.SRC)
        return 2
    # SIGTERM unwinds like an exception, so the serve workload's
    # ``finally`` still stops the daemon it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(workloads.ROOT)
    sys.path.insert(0, workloads.SRC)
    os.makedirs(workloads.WORK, exist_ok=True)
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    before = host_probe_ms()
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                 rec)
    after = host_probe_ms()
    for line in outcome.report:
        print(line)
    print("host probe ms (fixed pure-Python loop): before=%.3f after=%.3f"
          % (before, after))
    if args.trace:
        metrics, lines = per_layer(outcome.trace)
        for line in lines:
            print(line)
        trace = outcome.trace
        path = os.path.join(workloads.WORK, "spans-%s.npz" % args.workload)
        spans.save(path, trace["columns"], trace["names"], trace["counts"],
                   trace["samples"])
        print("spans: %d written to %s" % (
            len(trace["columns"]["sid"]),
            os.path.relpath(path, workloads.ROOT)))
        print("tracing overhead: compare trace.truths_per_s=%.2f with the "
              "untraced run's truths_per_s"
              % metrics["trace.truths_per_s"][0])
    else:
        metrics = outcome.metrics
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
