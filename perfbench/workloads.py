"""The benchmark's three workloads.

Each workload function takes ``(seed, seconds, rec)`` and returns a
:class:`Outcome`. ``rec`` is ``None`` for the untraced run, which
measures the end-to-end metrics, and a :class:`spans.Recorder` with the
wrappers installed for the traced run, which measures the layers.

The untraced run measures for ``seconds``: it repeats whole rounds (or
request blocks) until the time is up, to the nearest round. The traced
run does a fixed amount of work derived from ``seconds`` instead, so
its counts repeat exactly across two runs with the same seed.

Why each workload exists, and which layer metric should move which
end-to-end metric, is recorded in ``README.md`` beside this file.
"""

import itertools
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import numpy as np

import spans
from spans import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working files inside the checkout (journals, sockets, span files).
WORK = os.path.join(ROOT, ".perfbench")

ALGORITHMS = tuple(spans.ALGORITHM_KEYS)

#: sweep-exhaustive: every grid location of each query is a hidden
#: truth. Resolutions are sized so one cold round takes 3-5 s on a
#: 2-vCPU host (5,796 truths), and a 30-second run holds six rounds or
#: more for each unit to take its fastest from.
EXHAUSTIVE = (("3D_Q15", 10), ("4D_Q91", 5), ("5D_Q19", 3), ("6D_Q91", 2))
#: Grid locations per unit re-run outside the timed phase as the oracle.
ORACLE_SAMPLE = 12

#: sweep-durable: paper-scale grids (the benchmarks' BENCH_RESOLUTION),
#: a seeded sample of truths per unit, faults injected into the engine.
DURABLE = (("4D_Q91", 10), ("5D_Q19", 7))
DURABLE_SAMPLE = 20
#: The truths are one fixed seeded sample, so every run does the same
#: discovery work; the workload seed drives the fault schedule. A
#: sample drawn from the workload seed made a run's work differ by up
#: to 40% from one seed to the next.
DURABLE_SAMPLE_SEED = 0
#: Every truth of a unit meets the same fault schedule, so a
#: PlanBouquet unit degrades almost whole or not at all. These rates
#: inject faults and retries in every run but rarely degrade a unit;
#: at crash=0.01,transient=0.02 degraded units swung a run's work by a
#: third from one seed to the next.
DURABLE_ENGINE = "simulated+faulty(crash=0.001,transient=0.004)"

#: serve-warm: the queries the daemon warms at its default resolutions.
SERVE_QUERIES = ("3D_Q15", "4D_Q91", "5D_Q19")
#: Daemon spawns per run; setup_s is their median.
SERVE_SETUPS = 3
#: p99 needs at least ten samples beyond it.
SERVE_MIN_REQUESTS = 1000
#: Replies re-computed in-process outside the timed phase.
SERVE_ORACLE_SAMPLE = 45
#: Per-tenant budget far above what one closed-loop client can offer,
#: so admission never refuses (the default 16/s, burst 32, would).
SERVE_TENANT_BUDGET = "100000"

#: Traced runs do fixed work: this many seconds per traced round (or
#: requests per second) of ``--seconds``, rounded to whole rounds.
TRACED_ROUND_S = {"sweep-exhaustive": 5.0, "sweep-durable": 3.0}
TRACED_REQUESTS_PER_S = 30
#: Untraced sweeps run at least this many rounds; each unit keeps its
#: fastest one.
MIN_ROUNDS = 3


class Outcome:
    """What a workload measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: name -> (value, unit)
        self.metrics = {}
        #: Human-readable lines printed before the result.
        self.report = []
        #: Traced runs: the spans and counters for the per-layer
        #: analysis (see ``run.per_layer``).
        self.trace = None

    def fail(self, count, why):
        self.failed += count
        self.report.append("CHECK FAILED (%d): %s" % (count, why))


def peak_rss_mb(pid="self"):
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open("/proc/%s/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/%s/status" % pid)


def filesystem_of(path):
    """Filesystem type of the mount holding ``path``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mountinfo") as handle:
        for line in handle:
            fields = line.split()
            mount = fields[4]
            fstype = fields[fields.index("-") + 1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, fstype
    return kind


def percentile(values, q):
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[max(1, int(np.ceil(q / 100.0 * len(ordered)))) - 1])


def _units(stream, rec, rid):
    """Yield ``(record, seconds)`` per unit of a ``SweepDriver.run``
    stream, timing each unit from the outside (and, traced, as a
    ``sweep.unit`` span that the layers inside nest under)."""
    while True:
        frame = rec.open("sweep.unit", rid=rid) if rec is not None else None
        t0 = clock()
        try:
            record = next(stream)
        except StopIteration:
            return
        finally:
            elapsed = clock() - t0
            if frame is not None:
                rec.close(frame)
        rid += 1
        yield record, elapsed / 1e9


class _Rounds:
    """Round bookkeeping shared by the two sweep workloads.

    Every round repeats identical work on a fresh session, and each unit
    is timed whole from the outside. A unit counts at its fastest round:
    the host can only slow a unit down, so a slow phase of the host has
    to cover every round of a unit to move the result.
    """

    def __init__(self, name, seconds, rec):
        self.rec = rec
        self.seconds = seconds
        self.fixed = None if rec is None else max(
            1, int(round(seconds / TRACED_ROUND_S[name])))
        self.setup = []
        self.rates = []
        #: unit key -> (truths, [seconds per round])
        self.units = {}
        #: unit key -> the first round's grid; later rounds must match.
        self.grids = {}
        self.truths = 0
        self.sweep_s = 0.0
        self.started = None
        #: Traced: seconds the recorder was on (setup + sweep phases).
        self.traced_s = 0.0

    def more(self):
        if self.fixed is not None:
            return len(self.rates) < self.fixed
        if not self.rates:
            self.started = clock()
            return True
        elapsed = (clock() - self.started) / 1e9
        per_round = elapsed / len(self.rates)
        return len(self.rates) < MIN_ROUNDS \
            or elapsed < self.seconds - 0.5 * per_round

    def measure(self, phase):
        """Run ``phase()`` with the recorder on; return its result."""
        if self.rec is not None:
            self.rec.on = True
        t0 = clock()
        try:
            return phase()
        finally:
            elapsed = (clock() - t0) / 1e9
            if self.rec is not None:
                self.rec.on = False
                self.traced_s += elapsed
            self.last = elapsed

    def sweep(self, stream_of, out):
        """Time one round's sweep phase: ``stream_of()`` yields the
        ``SweepDriver.run`` streams of the round, one per query. A unit
        whose grid differs from its first round's counts as failed."""
        def phase():
            done = []
            for stream in stream_of():
                for record, elapsed in _units(stream, self.rec, len(done)):
                    done.append(record)
                    grid = record.sweep.sub_optimalities
                    key = (record.query_name, record.algorithm)
                    self.units.setdefault(key, (grid.size, []))[1].append(
                        elapsed)
                    first = self.grids.setdefault(key, grid)
                    if not np.array_equal(first, grid):
                        out.fail(grid.size, "round %d: %s/%s grid differs "
                                 "from round 1" % (len(self.rates) + 1,
                                                   *key))
            return done

        records = self.measure(phase)
        truths = sum(r.sweep.sub_optimalities.size for r in records)
        self.truths += truths
        self.sweep_s += self.last
        self.rates.append(truths / self.last)
        return records

    def finish(self, out):
        """End-to-end metrics from each unit's fastest round.

        A truth's latency is its unit's time shared by the unit's
        truths, so the latencies are per-unit means: a batched sweep
        lowers them with the throughput, by construction.
        """
        best = [(n, min(times)) for n, times in self.units.values()]
        truths = sum(n for n, _ in best)
        per_truth_ms = np.repeat([s * 1e3 / n for n, s in best],
                                 [n for n, _ in best])
        out.metrics["setup_s"] = (statistics.median(self.setup), "s")
        out.metrics["truths_per_s"] = (truths / sum(s for _, s in best),
                                       "1/s")
        out.metrics["latency_ms_p50"] = (percentile(per_truth_ms, 50), "ms")
        out.metrics["latency_ms_p99"] = (percentile(per_truth_ms, 99), "ms")
        out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        out.attempted += self.truths
        out.report.append(
            "rounds=%d truths=%d sweep_s=%.3f round_rates=%s setup_s=%s"
            % (len(self.rates), self.truths, self.sweep_s,
               [round(r, 1) for r in self.rates],
               [round(s, 3) for s in self.setup]))
        out.report.append("latency samples=%d (truths per round), %d "
                          "beyond p99" % (truths, truths - int(np.ceil(
                              0.99 * truths))))
        for (query, algorithm), (n, seconds) in self.units.items():
            out.report.append("unit %-7s %-12s truths=%-5d best_s=%.4f "
                              "rounds_s=%s" % (query, algorithm, n,
                                               min(seconds),
                                               [round(s, 3) for s in seconds]))


def _trace_outcome(out, rec, rounds):
    """Hand a sweep's spans to the per-layer analysis. The recorder was
    on only during setup and sweep phases, so every span counts."""
    out.trace = {"columns": rec.arrays(), "names": list(rec.names),
                 "counts": dict(rec.counts), "wall_s": rounds.traced_s,
                 "truths": rounds.truths, "timed_s": rounds.sweep_s,
                 "window": None, "timed": None, "samples": {},
                 "serve": None}


# ----------------------------------------------------------------------
# sweep-exhaustive


def sweep_exhaustive(seed, seconds, rec):
    from repro.session import RobustSession, SweepDriver

    out = Outcome()
    rounds = _Rounds("sweep-exhaustive", seconds, rec)
    records = None
    while rounds.more():
        session = RobustSession()

        def setup():
            for query, resolution in EXHAUSTIVE:
                session.space_and_contours(query, resolution=resolution)

        rounds.measure(setup)
        rounds.setup.append(rounds.last)
        records = rounds.sweep(lambda: (
            SweepDriver(session, resolution=resolution).run(
                [query], ALGORITHMS)
            for query, resolution in EXHAUSTIVE), out)
    rounds.finish(out)
    if rec is not None:
        _trace_outcome(out, rec, rounds)

    # Oracle: the per-truth loop at seeded locations, bit for bit, and
    # every unit's empirical MSO within the algorithm's guarantee.
    rng = np.random.default_rng(seed)
    checked = 0
    for record in records:
        grid = record.sweep.sub_optimalities
        flats = rng.choice(grid.size, size=min(ORACLE_SAMPLE, grid.size),
                           replace=False)
        for flat in flats:
            qa = tuple(int(i) for i in np.unravel_index(flat, grid.shape))
            value = record.instance.run(qa).sub_optimality
            checked += 1
            if value != grid[qa]:
                out.fail(1, "%s/%s at %s: run %r != sweep %r" % (
                    record.query_name, record.algorithm, qa, value,
                    grid[qa]))
        bound = record.instance.mso_guarantee()
        if not record.mso <= bound:
            out.fail(1, "%s/%s: MSO %.3f above guarantee %.3f" % (
                record.query_name, record.algorithm, record.mso, bound))
    out.report.append("oracle: %d locations re-run, %d MSO bounds "
                      "checked" % (checked, len(records)))
    return out


# ----------------------------------------------------------------------
# sweep-durable


def _journal_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path) if name.endswith(".wal"))


def sweep_durable(seed, seconds, rec):
    from repro.session import RobustSession, SweepDriver

    out = Outcome()
    rounds = _Rounds("sweep-durable", seconds, rec)
    out.report.append("journal filesystem: %s (fsync per journal "
                      "record, checkpoints renamed without fsync)"
                      % filesystem_of(WORK))
    degraded = []

    def driver(session, query, resolution, journal, resume=None):
        # The same truths and fault streams in every round.
        return SweepDriver(session, sample=DURABLE_SAMPLE,
                           rng=DURABLE_SAMPLE_SEED,
                           resolution=resolution, journal=journal,
                           resume=resume, engine_spec=DURABLE_ENGINE,
                           fault_seed=seed)

    while rounds.more():
        number = len(rounds.rates)
        session = RobustSession(guard=True, engine_spec=DURABLE_ENGINE)

        def setup():
            for query, resolution in DURABLE:
                session.space_and_contours(query, resolution=resolution)

        rounds.measure(setup)
        rounds.setup.append(rounds.last)
        base = tempfile.mkdtemp(prefix="durable-", dir=WORK)
        try:
            records = rounds.sweep(lambda: (
                driver(session, query, resolution,
                       os.path.join(base, query)).run([query], ALGORITHMS)
                for query, resolution in DURABLE), out)
            degraded.append(sum(r.sweep.extras["degraded"]
                                for r in records))
            if rec is not None:
                rec.counts["robustness.journal_bytes"] += sum(
                    _journal_bytes(os.path.join(base, q))
                    for q, _ in DURABLE)
            # Replay: every journal reopened with resume=True must give
            # back each unit == to the grids just computed, with no
            # re-execution.
            computed = {(r.query_name, r.algorithm): r.sweep
                        for r in records}
            for query, resolution in DURABLE:
                resumed = driver(session, query, resolution,
                                 os.path.join(base, query), resume=True)
                for record in resumed.run([query], ALGORITHMS):
                    original = computed[(query, record.algorithm)]
                    same = (record.replayed and np.array_equal(
                        record.sweep.sub_optimalities,
                        original.sub_optimalities)
                        and record.sweep.extras == original.extras)
                    if not same:
                        out.fail(original.sub_optimalities.size,
                                 "round %d: %s/%s replay differs"
                                 % (number + 1, query, record.algorithm))
                if resumed.journal_stats.executed:
                    out.fail(resumed.journal_stats.executed,
                             "%s: resume re-executed units" % query)
        finally:
            shutil.rmtree(base, ignore_errors=True)
    rounds.finish(out)
    out.report.append("degraded runs per round: %s" % degraded)
    if rec is not None:
        _trace_outcome(out, rec, rounds)
    return out


# ----------------------------------------------------------------------
# serve-warm


def _spawn_daemon(socket_path, spans_path):
    """Start ``repro serve`` (traced: through the span launcher)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    serve = ["serve", "--socket", socket_path,
             "--tenant-rate", SERVE_TENANT_BUDGET,
             "--tenant-burst", SERVE_TENANT_BUDGET]
    if spans_path is None:
        argv = [sys.executable, "-m", "repro"] + serve
    else:
        argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                spans_path] + serve
    proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    if not ready.startswith("serve on"):
        _stop_daemon(proc)
        raise RuntimeError("serve daemon did not start: %r" % ready)
    return proc


def _stop_daemon(proc):
    """SIGTERM (graceful drain), then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def _request_stream(seed, resolutions):
    """Seeded closed-loop requests: blocks of all nine (query, algorithm)
    classes in shuffled order, each at a uniform random truth.

    The truths are randomized quasi-Monte Carlo: the k-th request of a
    class takes the k-th point of a Kronecker sequence shifted by the
    class's seeded uniform offset. Each run's truths are random, yet
    spread evenly over the grid. The median sits in the sparse upper
    tail of the five cheap classes, and plain random truths moved it by
    a tenth from one seed to the next.
    """
    rng = np.random.default_rng(seed)
    classes = [(q, a) for q in SERVE_QUERIES for a in ALGORITHMS]
    dims = max(d for _, d in resolutions.values())
    # Square roots of distinct primes, mod 1: an irrational step per axis.
    step = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0][:dims]) % 1.0
    shift = {c: rng.random(dims) for c in classes}
    for k in itertools.count(1):
        block = []
        for pick in rng.permutation(len(classes)):
            query, algorithm = classes[pick]
            res, d = resolutions[query]
            point = (shift[(query, algorithm)] + k * step)[:d] % 1.0
            block.append((query, algorithm,
                          [int(i) for i in point * res]))
        yield block


def _closed_loop(client, blocks, rec, ids, done):
    """Send whole request blocks until ``done(attempted, seconds)``.

    ``attempted`` counts every request sent, answered or not, so a
    daemon that fails every request still ends the loop. Returns
    ``(samples, refused, degraded)``: one sample per ``ok`` reply, and
    the counts of replies that were not ``ok`` or not cached and clean.
    """
    samples = []
    refused = degraded = 0
    t_start = clock()
    while not done(len(samples) + refused, (clock() - t_start) / 1e9):
        for query, algorithm, qa in next(blocks):
            rid = next(ids)
            frame = rec.open("serve.request", rid=rid) \
                if rec is not None else None
            t0 = clock()
            reply = client.request({"op": "run", "id": rid, "query": query,
                                    "algorithm": algorithm, "qa": qa})
            rt = (clock() - t0) / 1e6
            if frame is not None:
                rec.close(frame)
            if not reply.get("ok"):
                refused += 1
                continue
            if reply.get("served") != "cached" \
                    or reply.get("degraded_reasons"):
                degraded += 1
            samples.append((rt, reply.get("elapsed_ms", 0.0), query,
                            algorithm, qa, reply["result"]))
    return samples, refused, degraded


def serve_warm(seed, seconds, rec):
    from repro.harness.workloads import workload
    from repro.serve import ServeClient

    out = Outcome()
    dims = {query: workload(query).dimensions for query in SERVE_QUERIES}
    socket_path = os.path.relpath(
        os.path.join(WORK, "serve-%d.sock" % os.getpid()), ROOT)
    spans_path = None if rec is None else os.path.join(
        WORK, "daemon-spans-%d.npz" % os.getpid())
    setups = []
    proc = client = None
    ids = itertools.count(1)
    try:
        for _ in range(1 if rec is not None else SERVE_SETUPS):
            if proc is not None:
                client.close()
                _stop_daemon(proc)
            if rec is not None:
                rec.on = True
            t_spawn = clock()
            proc = _spawn_daemon(socket_path, spans_path)
            client = ServeClient(path=socket_path, raise_errors=False)
            resolutions = {}
            for query in SERVE_QUERIES:
                rid = next(ids)
                frame = rec.open("serve.request", rid=rid) \
                    if rec is not None else None
                reply = client.request({"op": "warm", "query": query,
                                        "id": rid})
                if frame is not None:
                    rec.close(frame)
                if not reply.get("ok"):
                    raise RuntimeError("warm %s failed: %r"
                                       % (query, reply))
                resolutions[query] = (reply["result"]["resolution"],
                                      dims[query])
            setups.append((clock() - t_spawn) / 1e9)

        # The timed phase: one client, one connection, closed loop.
        if rec is not None:
            fixed = 9 * max(1, int(round(
                seconds * TRACED_REQUESTS_PER_S / 9.0)))

            def done(attempted, elapsed):
                return attempted >= fixed
        else:
            def done(attempted, elapsed):
                return elapsed >= seconds \
                    and attempted >= SERVE_MIN_REQUESTS
        t_timed = clock()
        samples, refused, degraded = _closed_loop(
            client, _request_stream(seed, resolutions), rec, ids, done)
        t_end = clock()
        if rec is not None:
            rec.on = False
        timed_s = (t_end - t_timed) / 1e9
        rss = peak_rss_mb(proc.pid)
    finally:
        if client is not None:
            client.close()
        if proc is not None:
            _stop_daemon(proc)
    if os.path.exists(socket_path):
        os.unlink(socket_path)

    out.attempted = len(samples) + refused
    if refused:
        out.fail(refused, "%d requests refused or errored" % refused)
    if degraded:
        out.fail(degraded, "%d replies not served cached and clean"
                 % degraded)
    latencies = [s[0] for s in samples] or [0.0]
    beyond = len(samples) - int(np.ceil(0.99 * len(samples)))
    out.metrics["setup_s"] = (statistics.median(setups), "s")
    out.metrics["truths_per_s"] = (len(samples) / timed_s, "1/s")
    out.metrics["latency_ms_p50"] = (percentile(latencies, 50), "ms")
    out.metrics["latency_ms_p99"] = (percentile(latencies, 99), "ms")
    out.metrics["peak_rss_mb"] = (rss, "MB")
    out.report.append(
        "requests=%d timed_s=%.3f p99 samples beyond=%d setup_s=%s "
        "refused=%d degraded=%d"
        % (len(samples), timed_s, beyond,
           [round(s, 3) for s in setups], refused, degraded))
    if rec is None and beyond < 10:
        out.fail(1, "p99 has only %d samples beyond it" % beyond)

    # Oracle: a seeded subset of replies against in-process runs.
    from repro.session import RobustSession

    session = RobustSession(guard=True, breaker=True)
    rng = np.random.default_rng(seed + 1)
    picks = rng.choice(len(samples), size=min(SERVE_ORACLE_SAMPLE,
                                              len(samples)), replace=False)
    for pick in picks:
        _, _, query, algorithm, qa, served = samples[int(pick)]
        result = session.run(query, qa_index=qa, algorithm=algorithm)
        local = {"total_cost": float(result.total_cost),
                 "optimal_cost": float(result.optimal_cost),
                 "sub_optimality": float(result.sub_optimality),
                 "executions": result.num_executions}
        remote = {k: served[k] for k in local}
        if local != remote:
            out.fail(1, "%s/%s at %s: served %r != in-process %r"
                     % (query, algorithm, qa, remote, local))
    out.report.append("oracle: %d replies re-run in-process" % len(picks))

    if rec is not None:
        columns, names, counts, queue = _merge_daemon(rec, spans_path)
        os.unlink(spans_path)
        out.trace = {
            "columns": columns, "names": names, "counts": counts,
            "wall_s": (t_end - t_spawn) / 1e9, "truths": len(samples),
            "timed_s": timed_s, "window": (t_spawn, t_end),
            "timed": (t_timed, t_end),
            "samples": queue,
            "serve": {"server_ms": [s[1] for s in samples],
                      "wire_ms": [s[0] - s[1] for s in samples],
                      "refused": refused, "degraded": degraded}}
    return out


def _merge_daemon(rec, spans_path):
    """Join the daemon's spans to the client's request spans by id."""
    client = rec.arrays()
    by_rid = {}
    for sid, name, rid in zip(client["sid"], client["name"],
                              client["rid"]):
        if rec.names[int(name)] == "serve.request":
            by_rid[int(rid)] = int(sid)
    daemon, names, counts, samples = spans.load(spans_path)
    columns, names = spans.merge(client, rec.names, daemon, names,
                                 lambda rid: by_rid.get(rid, -1))
    merged = dict(rec.counts)
    for key, value in counts.items():
        merged[key] = merged.get(key, 0) + value
    return columns, names, merged, samples


WORKLOADS = {
    "sweep-exhaustive": sweep_exhaustive,
    "sweep-durable": sweep_durable,
    "serve-warm": serve_warm,
}
