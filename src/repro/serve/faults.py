"""Seeded network/protocol chaos for the serving path.

The serving daemon's robustness claims -- structured errors instead of
connection teardown, retrying clients that always converge on the
fault-free answer -- are only worth making under *actual* wire-level
adversity. This module makes that adversity deterministic with the
same seeded primitive as the engine layer's
:class:`~repro.engine.faulty.FaultPlan`
(:class:`repro.common.faults.SeededFaultPlan`):

* :class:`ServeFaultPlan` declares per-frame fault probabilities, all
  drawn from ``default_rng((seed, frame_ordinal))`` so a (plan, frame
  sequence) pair is exactly reproducible and
  :meth:`~ServeFaultPlan.schedule` computes the whole injected
  schedule without opening a socket;
* :class:`FaultInjector` applies a plan to a live stream of frames
  (one global ordinal per process position, counters per fault kind);
* the daemon installs an injector **in-process** on its reply path
  (``ServeConfig(fault_plan=...)`` / ``repro serve --faults``), which
  drops connections, truncates frames mid-write, prepends garbage
  lines and slow-lorises replies;
* :class:`ChaosProxy` / :class:`ChaosProxyThread` put the same fault
  plan *between* a real client and a real daemon (both directions), so
  subprocess chaos tests corrupt client->server traffic too --
  exercising the daemon's malformed-input handling with genuinely
  hostile bytes.

Fault kinds (one per frame, first drawn wins): **drop** (connection
closed without the frame), **truncate** (a seeded fraction of the
frame's bytes written, then the connection closed -- a torn write),
**garbage** (a line of seeded junk bytes injected before the frame),
**slow** (the frame delayed by a seeded number of milliseconds).
"""

import asyncio
import itertools
import threading

from repro.common.errors import ReproError
from repro.common.faults import SeededFaultPlan

#: Bounds of the uniformly drawn fraction of a truncated frame's bytes
#: that are actually written before the connection dies.
TRUNCATE_KEEP_LO = 0.05
TRUNCATE_KEEP_HI = 0.85

#: Bounds (bytes) of an injected garbage line's length.
GARBAGE_LEN_LO = 1
GARBAGE_LEN_HI = 64


class ServeFaultPlan(SeededFaultPlan):
    """Declarative description of the wire adversity to inject.

    Rates are independent per-frame probabilities in ``[0, 1]``;
    ``slow_ms`` bounds the injected delay (drawn uniformly from
    ``[slow_ms / 4, slow_ms]``). The ``*_on_frames`` sets force a fault
    at specific 1-based frame ordinals regardless of the rates -- the
    hook targeted tests use for deterministic single-fault scenarios.
    """

    RATES = {"drop": "drop_rate", "truncate": "truncate_rate",
             "garbage": "garbage_rate", "slow": "slow_rate"}
    PARAMS = {"slow_ms": (40.0, 0.0)}
    FORCED = {"drop": "drop_on_frames", "truncate": "truncate_on_frames",
              "garbage": "garbage_on_frames", "slow": "slow_on_frames"}

    def fault_at(self, ordinal):
        """The decision taken at frame ``ordinal`` (JSON-safe dict).

        Draw order is drop -> truncate -> garbage -> slow, one fault
        per frame (the first that fires short-circuits the rest).
        Returns ``{"frame", "fault"}`` plus the fault's drawn
        parameters: ``keep_fraction`` for truncation, ``data`` (a list
        of byte values, newline-free) for garbage, ``delay_ms`` for
        slowness.
        """
        rng = self._rng(ordinal)
        if self._fires("drop", rng, ordinal):
            return {"frame": ordinal, "fault": "drop"}
        if self._fires("truncate", rng, ordinal):
            keep = rng.uniform(TRUNCATE_KEEP_LO, TRUNCATE_KEEP_HI)
            return {"frame": ordinal, "fault": "truncate",
                    "keep_fraction": float(keep)}
        if self._fires("garbage", rng, ordinal):
            length = int(rng.integers(GARBAGE_LEN_LO,
                                      GARBAGE_LEN_HI + 1))
            data = rng.integers(0, 256, size=length)
            # Keep the junk a single line: a newline inside would split
            # it into several frames and make schedules harder to
            # reason about.
            data = [int(b) if b != 0x0A else 0x2A for b in data]
            return {"frame": ordinal, "fault": "garbage", "data": data}
        if self._fires("slow", rng, ordinal):
            delay = rng.uniform(self.slow_ms / 4.0, self.slow_ms) \
                if self.slow_ms else 0.0
            return {"frame": ordinal, "fault": "slow",
                    "delay_ms": float(delay)}
        return {"frame": ordinal, "fault": None}


class FaultInjector:
    """Applies a :class:`ServeFaultPlan` to a live frame stream.

    One injector holds one global frame counter (thread-safe), so the
    injected sequence across all connections follows the plan's
    schedule in arrival order; per-kind counters feed the daemon's
    ``stats`` payload.
    """

    __slots__ = ("plan", "_ordinals", "_lock", "counts")

    def __init__(self, plan):
        self.plan = plan
        self._ordinals = itertools.count(1)
        self._lock = threading.Lock()
        self.counts = {"frames": 0, "drop": 0, "truncate": 0,
                       "garbage": 0, "slow": 0}

    def next_fault(self):
        """The decision for the next frame (advances the ordinal)."""
        with self._lock:
            ordinal = next(self._ordinals)
            decision = self.plan.fault_at(ordinal)
            self.counts["frames"] += 1
            if decision["fault"]:
                self.counts[decision["fault"]] += 1
        return decision

    def snapshot(self):
        """JSON-safe counters + the plan, for ``stats``."""
        with self._lock:
            counts = dict(self.counts)
        return {"plan": self.plan.describe(), "seed": self.plan.seed,
                "injected": counts}

    def __repr__(self):
        return "FaultInjector(%r, %d frames)" % (self.plan,
                                                 self.counts["frames"])


def garbage_line(decision):
    """The injected junk bytes for a ``garbage`` decision, terminated."""
    return bytes(decision["data"]) + b"\n"


class ChaosProxy:
    """A seeded fault-injecting forwarder between client and daemon.

    Listens on its own endpoint, forwards line frames to the upstream
    daemon, and applies one :class:`ServeFaultPlan` to frames in *both*
    directions (client->server frames exercise the daemon's hostile
    input handling; server->client frames exercise client resilience).
    A ``drop`` or ``truncate`` fault kills both halves of the proxied
    connection -- from each end it is indistinguishable from a peer
    crash, which is the point.

    Run it inside an event loop via :meth:`start` or on its own thread
    via :class:`ChaosProxyThread`.
    """

    #: Per-line byte ceiling on proxied frames; above it the proxy just
    #: forwards raw chunks (it must not be the layer that rejects
    #: oversized lines -- the daemon under test does that).
    LINE_LIMIT = 1 << 20

    def __init__(self, plan, listen_path=None, upstream_path=None,
                 listen_host="127.0.0.1", listen_port=0,
                 upstream_host="127.0.0.1", upstream_port=7451,
                 directions=("c2s", "s2c")):
        if (listen_path is None) != (upstream_path is None):
            raise ReproError(
                "chaos proxy endpoints must both be unix sockets or "
                "both TCP")
        self.plan = plan
        self.injector = FaultInjector(plan)
        self.listen_path = listen_path
        self.upstream_path = upstream_path
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.directions = frozenset(directions)
        self.bound_to = None
        self._server = None

    async def start(self):
        if self.listen_path:
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.listen_path,
                limit=self.LINE_LIMIT)
            self.bound_to = self.listen_path
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.listen_host,
                port=self.listen_port, limit=self.LINE_LIMIT)
            sock = self._server.sockets[0].getsockname()
            self.listen_port = sock[1]
            self.bound_to = "%s:%d" % (sock[0], sock[1])
        return self

    async def stop(self):
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass

    async def _connect_upstream(self):
        if self.upstream_path:
            return await asyncio.open_unix_connection(
                self.upstream_path, limit=self.LINE_LIMIT)
        return await asyncio.open_connection(
            self.upstream_host, self.upstream_port,
            limit=self.LINE_LIMIT)

    async def _handle(self, client_reader, client_writer):
        try:
            up_reader, up_writer = await self._connect_upstream()
        except OSError:
            client_writer.close()
            return
        done = asyncio.Event()

        async def pump(reader, writer, direction):
            try:
                while True:
                    try:
                        line = await reader.readline()
                    except (asyncio.LimitOverrunError, ValueError):
                        # A monster line: forward what is buffered raw;
                        # the endpoints enforce their own caps.
                        line = await reader.read(self.LINE_LIMIT)
                    if not line:
                        break
                    if not await self._forward(line, writer, direction):
                        break
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.IncompleteReadError):
                pass
            finally:
                done.set()

        tasks = [asyncio.ensure_future(
                     pump(client_reader, up_writer, "c2s")),
                 asyncio.ensure_future(
                     pump(up_reader, client_writer, "s2c"))]
        await done.wait()
        for task in tasks:
            task.cancel()
        for writer in (client_writer, up_writer):
            try:
                writer.close()
            except Exception:
                pass

    async def _forward(self, line, writer, direction):
        """Apply the plan to one frame; ``False`` kills the connection."""
        decision = self.injector.next_fault() \
            if direction in self.directions else None
        fault = decision["fault"] if decision else None
        if fault == "slow":
            await asyncio.sleep(decision["delay_ms"] / 1e3)
            fault = None
        if fault == "drop":
            return False
        if fault == "truncate":
            keep = max(1, int(len(line) * decision["keep_fraction"]))
            writer.write(line[:keep])
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return False
        if fault == "garbage":
            writer.write(garbage_line(decision))
        writer.write(line)
        await writer.drain()
        return True

    def __repr__(self):
        return "ChaosProxy(%s -> %s, %r)" % (
            self.bound_to or "unbound",
            self.upstream_path
            or "%s:%d" % (self.upstream_host, self.upstream_port),
            self.plan)


class ChaosProxyThread:
    """Run a :class:`ChaosProxy` on a background thread (tests/harness)."""

    def __init__(self, proxy):
        self.proxy = proxy
        self._thread = None
        self._loop = None
        self._ready = None
        self._stop = None
        self._failure = None

    def _main(self):
        try:
            asyncio.run(self._serve())
        except Exception as exc:  # surface bind errors to start()
            self._failure = exc
            self._ready.set()

    async def _serve(self):
        await self.proxy.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.proxy.stop()

    def start(self, timeout=10.0):
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main,
                                        name="repro-chaos-proxy",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ReproError("chaos proxy did not start in %gs" % timeout)
        if self._failure is not None:
            raise self._failure
        return self

    def stop(self, timeout=10.0):
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ReproError("chaos proxy did not stop in %gs" % timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
