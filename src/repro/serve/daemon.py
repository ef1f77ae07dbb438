"""The robust-query serving daemon.

``repro serve`` turns the one-shot session library into a long-lived
service: one warm :class:`~repro.session.RobustSession` (shared
artifact cache, shared :class:`~repro.session.BreakerBoard`) admits
concurrent discovery requests from many tenants over line-delimited
JSON (:mod:`repro.serve.protocol`), with the robustness posture the
paper argues for at the plan level -- *bounded worst case, graceful
degradation* -- applied at the serving level:

* **admission control** (:mod:`repro.serve.admission`): per-tenant
  token buckets and a bounded wait queue; refusals carry
  ``retry_after_ms`` instead of queueing unboundedly;
* **request coalescing** (:mod:`repro.serve.coalesce`): identical
  ``(query, resolution, engine-spec, algorithm, truth)`` requests join
  one in-flight computation, keyed by the artifact cache's
  content-address fingerprint;
* **the degradation ladder**: under deadline pressure a request is
  served from the warm cache if possible, else at a degraded
  resolution, else by the native-optimizer fallback, else shed -- every
  step named in the response's ``degraded_reasons`` exactly like
  ``RunResult.extras``;
* **deadline propagation**: the client budget and the server's
  per-request ceiling compose into one layered
  :class:`~repro.robustness.durable.Deadline` (minimum remaining budget
  wins), enforced cooperatively inside the discovery run by the
  existing guard machinery, so an expiry degrades with a
  ``deadline-client-*`` / ``deadline-server-*`` reason;
* **lifecycle**: SIGTERM/SIGINT starts a drain (finish in-flight work,
  refuse new with ``retry_after_ms``), and ``health`` / ``stats`` are
  answered throughout, exposing the
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot.

Discovery computations are CPU-bound synchronous Python, so they run on
a thread pool (``loop.run_in_executor``); the session's cache and
breaker board are therefore the thread-safe variants, and all serving
bookkeeping stays confined to the event loop.
"""

import asyncio
import concurrent.futures
import os
import signal
import time

from repro.common.errors import BackendUnavailableError, ReproError
from repro.ess.space import default_resolution
from repro.obs.metrics import MetricsRegistry
from repro.robustness import Deadline, compose_deadlines
from repro.serve.admission import AdmissionController, TenantBudgets
from repro.serve.coalesce import Coalescer
from repro.serve.faults import FaultInjector, garbage_line
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_DRAINING,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_OVERSIZED,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    FrameAssembler,
    ProtocolError,
    Request,
    encode_message,
    error_response,
    ok_response,
)
from repro.session import EngineSpec, RobustSession
from repro.session.cache import SpaceKey

# The degradation ladder. A rung engages when the remaining deadline
# budget falls below its floor, or when admission-queue occupancy
# (in [0, 1]) rises above its pressure threshold.

#: Remaining budget (ms) below which a request is shed outright.
SHED_FLOOR_MS = 5.0

#: Remaining budget (ms) below which a cold build or full run is
#: answered by the native optimizer instead.
NATIVE_FLOOR_MS = 50.0

#: Remaining budget (ms) below which a cold build drops to
#: :data:`DEGRADED_RESOLUTION`.
COLD_FLOOR_MS = 400.0

#: Grid resolution of the low-resolution rung.
DEGRADED_RESOLUTION = 6

#: Queue occupancy above which a cold build drops resolution.
PRESSURE_LOWRES = 0.6

#: Queue occupancy above which a cold request goes native.
PRESSURE_NATIVE = 0.9

#: Fresh attempts a coalesced follower may dispatch after the shared
#: computation it joined failed.
COALESCE_REDISPATCH = 1

#: Cap (seconds) on the ``retry_after`` hint of refusals.
RETRY_CAP_S = 5.0


class ServeConfig:
    """Every serving knob in one place (all have sane defaults).

    ``path`` selects a unix socket; ``host``/``port`` a TCP endpoint
    (exactly one of the two). The degradation ladder's thresholds are
    module constants (``*_FLOOR_MS``, ``PRESSURE_*``).
    """

    __slots__ = (
        "path", "host", "port", "cache_dir", "resolution", "engine",
        "data_rng", "data_skew", "data_rows",
        "tenant_capacity", "tenant_rate", "max_inflight", "max_queue",
        "default_deadline_ms", "drain_grace_s", "max_line_bytes",
        "fault_plan", "clock",
    )

    def __init__(self, path=None, host="127.0.0.1", port=7451,
                 cache_dir=None, resolution=None, engine="simulated",
                 data_rng=None, data_skew=None, data_rows=20000,
                 tenant_capacity=32.0, tenant_rate=16.0,
                 max_inflight=None, max_queue=32,
                 default_deadline_ms=30000.0, drain_grace_s=10.0,
                 max_line_bytes=MAX_LINE_BYTES, fault_plan=None,
                 clock=None):
        self.path = path
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.resolution = resolution
        self.engine = engine
        #: Declarative row store for row-backed engine specs: the data
        #: seed and ``table.column -> zipf`` skew map of a
        #: :class:`~repro.catalog.datagen.DatabaseSpec`.
        self.data_rng = data_rng
        self.data_skew = data_skew
        self.data_rows = data_rows
        self.tenant_capacity = tenant_capacity
        self.tenant_rate = tenant_rate
        if max_inflight is None:
            max_inflight = min(4, os.cpu_count() or 1)
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.default_deadline_ms = default_deadline_ms
        self.drain_grace_s = drain_grace_s
        self.max_line_bytes = int(max_line_bytes)
        #: Optional :class:`~repro.serve.faults.ServeFaultPlan` applied
        #: in-process to the daemon's reply path (seeded wire chaos).
        self.fault_plan = fault_plan
        self.clock = clock or time.monotonic

    def describe(self):
        where = self.path if self.path else "%s:%d" % (self.host,
                                                       self.port)
        return ("serve on %s: %d slots + %d queue, tenant %g burst @ "
                "%g/s, ceiling %gms"
                % (where, self.max_inflight, self.max_queue,
                   self.tenant_capacity, self.tenant_rate,
                   self.default_deadline_ms))


class _ServicePlan:
    """One admitted request, resolved against the degradation ladder."""

    __slots__ = ("request", "query", "algorithm", "resolution", "spec",
                 "qa", "deadline", "served", "reasons", "fingerprint",
                 "space_key")

    def __init__(self, request, query, algorithm, resolution, spec, qa,
                 deadline, served, reasons, space_key):
        self.request = request
        self.query = query
        self.algorithm = algorithm
        self.resolution = resolution
        self.spec = spec
        self.qa = qa
        self.deadline = deadline
        self.served = served
        self.reasons = reasons
        self.space_key = space_key
        qa_tag = ",".join(str(i) for i in qa) if qa else "-"
        self.fingerprint = "/".join((
            space_key.digest(), algorithm, spec.describe(), qa_tag,
            request.op))


class RobustServeDaemon:
    """Long-lived serving loop over one warm session. See module docs."""

    def __init__(self, config=None, session=None):
        self.config = config or ServeConfig()
        if session is None:
            database = None
            if self.config.data_rng is not None \
                    or self.config.data_skew:
                from repro.catalog.datagen import DatabaseSpec
                database = DatabaseSpec(
                    rng=self.config.data_rng or 0,
                    skew=self.config.data_skew,
                    max_rows=self.config.data_rows)
            session = RobustSession(cache_dir=self.config.cache_dir,
                                    resolution=self.config.resolution,
                                    engine_spec=self.config.engine,
                                    database=database,
                                    guard=True, breaker=True)
        elif session.breakers is None:
            raise ReproError(
                "the serving daemon needs a session with a BreakerBoard "
                "(breaker=True) so engine crashes fast-fail for all "
                "tenants")
        self.session = session
        self.metrics = MetricsRegistry()
        self.budgets = TenantBudgets(self.config.tenant_capacity,
                                     self.config.tenant_rate,
                                     clock=self.config.clock)
        self.admission = AdmissionController(
            self.budgets, max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue, retry_cap=RETRY_CAP_S)
        self.coalescer = Coalescer(redispatch=COALESCE_REDISPATCH)
        plan = self.config.fault_plan
        self._fault_injector = FaultInjector(plan) \
            if plan is not None and not plan.is_clean else None
        self.draining = False
        self.started_at = None
        self.bound_to = None
        self._server = None
        self._slots = None
        self._stopped = None
        self._pending = 0
        self._writers = set()
        self._executor = None
        self._drain_task = None

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self):
        """Bind the socket, install signal handlers, get ready."""
        self.started_at = self.config.clock()
        self._stopped = asyncio.Event()
        self._slots = asyncio.Semaphore(self.config.max_inflight)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-serve")
        if self.config.path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.path)
            self.bound_to = self.config.path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host,
                port=self.config.port)
            sock = self._server.sockets[0].getsockname()
            self.bound_to = "%s:%d" % (sock[0], sock[1])
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.initiate_drain)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix loops; CLI still drains via KeyboardInterrupt
        return self

    async def run_async(self):
        """Serve until drained (the CLI's main coroutine)."""
        if self._server is None:
            await self.start()
        try:
            await self._stopped.wait()
        finally:
            await self._finalize()

    def initiate_drain(self):
        """Begin a graceful shutdown: finish in-flight, reject new.

        Idempotent; safe to call from a signal handler on the loop.
        """
        if self.draining:
            return
        self.draining = True
        self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self):
        if self._server is not None:
            self._server.close()
        # Existing connections stay open for the grace period: their
        # in-flight requests finish and late ones get explicit
        # ``draining`` rejections instead of a slammed socket. Drain
        # completes as soon as every client has hung up.
        grace = self.config.drain_grace_s
        deadline = self.config.clock() + grace
        while (self._pending > 0 or self._writers) \
                and self.config.clock() < deadline:
            await asyncio.sleep(0.02)
        try:
            await asyncio.wait_for(self.coalescer.drain(),
                                   timeout=max(0.1, deadline
                                               - self.config.clock()))
        except asyncio.TimeoutError:
            pass
        self._stopped.set()

    async def _finalize(self):
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        if self.config.path and os.path.exists(self.config.path):
            try:
                os.unlink(self.config.path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # connection + request plumbing

    async def _handle_connection(self, reader, writer):
        self._writers.add(writer)
        assembler = FrameAssembler(self.config.max_line_bytes)
        try:
            alive = True
            while alive:
                chunk = await reader.read(65536)
                if not chunk:
                    # EOF. A partial frame still buffered is a torn
                    # write -- the peer died mid-frame; there is
                    # nothing to answer and nothing to poison (the
                    # assembler dies with the connection).
                    if assembler.pending:
                        self.metrics.counter(
                            "serve.errors.torn_frame").inc()
                    break
                for kind, payload in assembler.feed(chunk):
                    if kind == "oversized":
                        self.metrics.counter(
                            "serve.errors.oversized").inc()
                        response = error_response(
                            None, ERR_OVERSIZED,
                            "request line of %d bytes exceeds the "
                            "%d-byte cap" % (payload,
                                             self.config.max_line_bytes))
                    else:
                        response = await self._handle_line(payload)
                    alive = await self._send(writer, response)
                    if not alive:
                        break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _send(self, writer, response):
        """Write one reply through the fault layer.

        Returns ``False`` when an injected fault killed the connection
        (drop, or a truncated -- torn -- write); the caller then stops
        serving this socket, exactly as if the network had failed.
        """
        data = encode_message(response)
        decision = self._fault_injector.next_fault() \
            if self._fault_injector is not None else None
        fault = decision["fault"] if decision else None
        if fault:
            self.metrics.counter("serve.faults.%s" % fault).inc()
        if fault == "slow":
            await asyncio.sleep(decision["delay_ms"] / 1e3)
            fault = None
        if fault == "drop":
            return False
        if fault == "truncate":
            keep = max(1, int(len(data) * decision["keep_fraction"]))
            writer.write(data[:keep])
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return False
        if fault == "garbage":
            writer.write(garbage_line(decision))
        writer.write(data)
        await writer.drain()
        return True

    async def _handle_line(self, line):
        t0 = self.config.clock()
        request_id = None
        try:
            request = Request.parse(line)
            request_id = request.id
            response = await self._service(request, t0)
        except ProtocolError as exc:
            self.metrics.counter("serve.errors.bad_request").inc()
            response = error_response(request_id, ERR_BAD_REQUEST,
                                      str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # never let one request kill the loop
            self.metrics.counter("serve.errors.internal").inc()
            response = error_response(
                request_id, ERR_INTERNAL,
                "%s: %s" % (type(exc).__name__, exc))
        self.metrics.histogram("serve.latency_ms").observe(
            (self.config.clock() - t0) * 1e3)
        return response

    async def _service(self, request, t0):
        self.metrics.counter("serve.requests").inc()
        self.metrics.counter("serve.requests.%s" % request.op).inc()
        if request.op == "health":
            return ok_response(request.id, self._health_payload(),
                               served="control")
        if request.op == "stats":
            return ok_response(request.id, self.stats_payload(),
                               served="control")
        if self.draining:
            self.metrics.counter("serve.shed").inc()
            self.metrics.counter("serve.shed.draining").inc()
            return error_response(
                request.id, ERR_DRAINING,
                "daemon is draining; retry against a peer",
                retry_after_ms=RETRY_CAP_S * 1e3)
        return await self._service_compute(request, t0)

    # ------------------------------------------------------------------
    # the degradation ladder

    def _plan(self, request, deadline, pressure):
        """Resolve a request against the ladder into a service plan.

        Rungs, in order of preference: serve the cached artifact →
        degrade resolution (cold build it can't afford) → native
        fallback → shed (returns ``None``, caller sheds). Every rung
        taken is recorded in the plan's ``reasons``. ``deadline`` is
        the already-ticking layered budget (queue wait has been
        charged against it by the time the ladder runs).
        """
        session = self.session
        remaining = deadline.remaining_wall() if deadline else None
        remaining_ms = remaining * 1e3 if remaining is not None else None
        query = session.query(request.query)
        reasons = []
        if remaining_ms is not None and remaining_ms <= SHED_FLOOR_MS:
            return None
        resolution = request.resolution
        if resolution is None:
            resolution = session.resolution \
                or default_resolution(query.dimensions)
        requested_resolution = resolution
        spec = EngineSpec.parse(request.engine) if request.engine \
            else session.engine_spec
        algorithm = request.algorithm

        def key_at(res):
            return SpaceKey.of(query, resolution=res, mode=session.mode,
                               s_min=session.s_min, rng=request.rng)

        tier = session.cache.probe(key_at(resolution))
        served = "cached" if tier else "full"
        if request.op == "run" and algorithm != "native":
            if tier is None:
                # Cold build ahead: can this request afford it?
                lowres = None
                if remaining_ms is not None \
                        and remaining_ms <= COLD_FLOOR_MS:
                    lowres = "lowres-deadline"
                elif pressure >= PRESSURE_LOWRES:
                    lowres = "lowres-pressure"
                if lowres and resolution > DEGRADED_RESOLUTION:
                    resolution = DEGRADED_RESOLUTION
                    reasons.append(lowres)
                    tier = session.cache.probe(key_at(resolution))
                    served = "cached" if tier else "lowres"
            native = None
            if remaining_ms is not None \
                    and remaining_ms <= NATIVE_FLOOR_MS:
                native = "native-deadline"
            elif pressure >= PRESSURE_NATIVE:
                native = "native-pressure"
            if native and tier is None:
                # Still facing a cold build (or a full run) it cannot
                # afford: answer with the native optimizer instead.
                algorithm = "native"
                reasons.append(native)
                served = "native"
        qa = self._resolve_qa(request, query, resolution,
                              requested_resolution)
        for rung in reasons:
            self.metrics.counter(
                "serve.degraded.%s" % rung.split("-")[0]).inc()
        # The *shared* computation runs under the server ceiling only:
        # the client's own budget bounds how long this caller waits
        # (and fed the ladder above), but must not leak into a result
        # that coalesced followers with larger budgets will share.
        return _ServicePlan(request, query, algorithm, resolution, spec,
                            qa, self._server_deadline(), served,
                            reasons, key_at(resolution))

    @staticmethod
    def _resolve_qa(request, query, resolution, requested_resolution):
        """The hidden-truth index under the *final* resolution.

        An explicit ``qa`` names indices in the requested grid; when
        the ladder degraded the resolution the indices are rescaled
        proportionally so the truth stays at the same fractional ESS
        location. ``qa=None`` keeps the session's historical 70%
        default.
        """
        dims = query.dimensions
        if request.qa is None:
            return tuple(int(resolution * 0.7) for _ in range(dims))
        qa = request.qa
        if len(qa) != dims:
            raise ProtocolError(
                "qa has %d indices for a %dD query" % (len(qa), dims))
        if any(i < 0 or i >= requested_resolution for i in qa):
            raise ProtocolError(
                "qa indices must lie in [0, %d)" % requested_resolution)
        if resolution != requested_resolution:
            scale = resolution / float(requested_resolution)
            qa = tuple(min(resolution - 1, int(i * scale)) for i in qa)
        return tuple(qa)

    def _server_deadline(self):
        if self.config.default_deadline_ms is None:
            return None
        return Deadline(
            wall_limit=self.config.default_deadline_ms / 1e3,
            clock=self.config.clock, label="server")

    def _deadline_for(self, request):
        """Compose the client budget with the server ceiling."""
        client = None
        if request.deadline_ms is not None:
            client = Deadline(wall_limit=request.deadline_ms / 1e3,
                              clock=self.config.clock, label="client")
        return compose_deadlines(client, self._server_deadline())

    # ------------------------------------------------------------------
    # admitted execution

    async def _service_compute(self, request, t0):
        decision = self.admission.admit(request.tenant)
        if not decision:
            self.metrics.counter("serve.shed").inc()
            self.metrics.counter(
                "serve.shed.%s" % decision.reason).inc()
            return error_response(
                request.id, ERR_OVERLOADED,
                "overloaded (%s) for tenant %r"
                % (decision.reason, request.tenant),
                retry_after_ms=(decision.retry_after or 0.0) * 1e3)
        self.metrics.counter("serve.admitted").inc()
        queued = decision.queued
        self._pending += 1
        try:
            return await self._run_admitted(request, t0, queued)
        finally:
            self._pending -= 1

    async def _run_admitted(self, request, t0, queued):
        """Plan, coalesce, compute, respond -- for one admitted request.

        Coalescing happens *before* the compute-slot wait: a request
        whose fingerprint is already in flight joins that computation
        immediately and never consumes a slot, so N identical
        concurrent requests cost one slot total regardless of
        ``max_inflight``. The slot semaphore is acquired inside the
        shared task (by its leader); each caller's own wait is bounded
        by its composed client+server deadline.
        """
        deadline = self._deadline_for(request)
        try:
            plan = self._plan(request, deadline,
                              self.admission.pressure())
            if plan is None:
                self.metrics.counter("serve.shed").inc()
                self.metrics.counter("serve.shed.deadline").inc()
                return error_response(
                    request.id, ERR_OVERLOADED,
                    "deadline too small to serve at any rung",
                    retry_after_ms=self.admission.service_ema * 1e3)
            loop = asyncio.get_running_loop()

            async def shared():
                await self._slots.acquire()
                try:
                    self.metrics.histogram(
                        "serve.queue_wait_ms").observe(
                        (self.config.clock() - t0) * 1e3)
                    return await loop.run_in_executor(
                        self._executor, self._compute, plan)
                finally:
                    self._slots.release()

            # Callers wait under their composed budget -- unless the
            # ladder already degraded *because of* that budget, in
            # which case the request accepted a late-but-degraded
            # answer over a shed: the wait then runs under the server
            # ceiling alone.
            waiter = deadline
            if any(r.endswith("-deadline") for r in plan.reasons):
                waiter = plan.deadline
            remaining = waiter.remaining_wall() if waiter else None
            try:
                result, coalesced = await asyncio.wait_for(
                    self.coalescer.run(plan.fingerprint, shared),
                    timeout=remaining)
            except asyncio.TimeoutError:
                # This caller's budget ran out while waiting; the
                # shared computation keeps running and lands in the
                # warm cache for the next attempt.
                self.metrics.counter("serve.shed").inc()
                self.metrics.counter("serve.shed.deadline").inc()
                return error_response(
                    request.id, ERR_OVERLOADED,
                    "deadline expired while waiting for computation",
                    retry_after_ms=self.admission.service_ema * 1e3)
            reasons = list(plan.reasons)
            reasons.extend((result or {}).get("failover") or ())
            guard_reason = (result or {}).get("degraded_reason")
            if guard_reason:
                reasons.append(guard_reason)
            if coalesced:
                self.metrics.counter("serve.coalesced").inc()
            self.metrics.counter("serve.served.%s" % plan.served).inc()
            return ok_response(
                request.id, result, served=plan.served,
                degraded_reasons=reasons, coalesced=coalesced,
                elapsed_ms=(self.config.clock() - t0) * 1e3)
        finally:
            if queued:
                self.admission.promote()
            self.admission.release(self.config.clock() - t0)

    @staticmethod
    def _requested_backend(spec):
        """The IR backend a spec executes on (``None`` for simulated)."""
        if spec.base == "row":
            return spec.base_args.get("backend", "native")
        if spec.base == "vectorized":
            return "vectorized"
        return None

    @staticmethod
    def _native_failover_spec(spec):
        """``spec`` re-targeted at the native backend.

        Injected backend-fault knobs (``fail``/``fail_seed``) are
        dropped so an injected outage does not chase the request onto
        the failover substrate.
        """
        base_args = {k: v for k, v in spec.base_args.items()
                     if k not in ("backend", "fail", "fail_seed")}
        base_args["backend"] = "native"
        return EngineSpec("row", base_args, spec.layers)

    def _compute(self, plan):
        """The blocking discovery computation (thread-pool side).

        Every step resolves through the shared warm session: the space
        and contours come from (and land in) the artifact cache, the
        algorithm is the session's one shared instance for the space
        and name (built by the first request of its class, never by
        ``warm``), the per-spec circuit breaker is shared across
        tenants, and the layered deadline rides into the run via this
        request's own guard.

        Non-native backends additionally sit behind a per-backend
        circuit breaker on the session's board (key
        ``backend:<name>``): a :class:`BackendUnavailableError` records
        a failure and the request reruns on the ``native`` backend;
        once the breaker opens, repeats skip the doomed attempt
        entirely. Both paths are recorded in the reply's
        ``degraded_reasons`` (``backend-failover-sqlite-to-native`` /
        ``backend-breaker-sqlite-to-native``) and ``result.backend``
        names the substrate that actually answered.
        """
        session = self.session
        space, contours = session.space_and_contours(
            plan.query, resolution=plan.resolution,
            rng=plan.request.rng)
        if plan.request.op == "warm":
            return {"op": "warm", "resolution": plan.resolution,
                    "cached": True,
                    "contours": len(contours)}
        spec = plan.spec
        backend = self._requested_backend(spec)
        if backend in (None, "native"):
            return self._run_plan(plan, space, contours, spec)
        breaker = session.breakers.breaker_for("backend:%s" % backend)
        if not breaker.allow():
            self.metrics.counter("serve.failover.fastfail").inc()
            return self._run_plan(
                plan, space, contours, self._native_failover_spec(spec),
                failover=["backend-breaker-%s-to-native" % backend])
        try:
            result = self._run_plan(plan, space, contours, spec)
        except BackendUnavailableError:
            breaker.record_failure()
            self.metrics.counter("serve.failover.%s" % backend).inc()
            return self._run_plan(
                plan, space, contours, self._native_failover_spec(spec),
                failover=["backend-failover-%s-to-native" % backend])
        breaker.record_success()
        return result

    def _run_plan(self, plan, space, contours, spec, failover=()):
        algo = self.session.algorithm(
            plan.algorithm, space=space, contours=contours,
            deadline=plan.deadline,
            breaker=self.session.breakers.breaker_for(spec))
        engine = None
        if spec != EngineSpec.parse("simulated"):
            engine = spec.build(space, qa_index=plan.qa,
                                database=self.session.database)
        result = algo.run(plan.qa, engine=engine, tracer=self.session.tracer)
        extras = result.extras
        failover = list(failover)
        return {
            "op": "run",
            "algorithm": result.algorithm,
            "resolution": plan.resolution,
            "qa": list(plan.qa),
            "backend": getattr(engine, "backend_name", None),
            "total_cost": float(result.total_cost),
            "optimal_cost": float(result.optimal_cost),
            "sub_optimality": float(result.sub_optimality),
            "executions": result.num_executions,
            "degraded": bool(extras.get("degraded")) or bool(failover),
            "degraded_reason": extras.get("degraded_reason"),
            "failover": failover,
            "retries": extras.get("retries", 0),
            "wasted_cost": float(extras.get("wasted_cost", 0.0)),
        }

    # ------------------------------------------------------------------
    # control plane

    def _health_payload(self):
        uptime = self.config.clock() - self.started_at \
            if self.started_at is not None else 0.0
        return {"ok": True, "protocol": PROTOCOL_VERSION,
                "draining": self.draining,
                "uptime_s": round(uptime, 3),
                "pending": self._pending}

    def stats_payload(self):
        """The full observability snapshot ``stats`` returns."""
        payload = self._health_payload()
        payload.update({
            "metrics": self.metrics.snapshot(),
            "coalescing": self.coalescer.stats.snapshot(),
            "admission": self.admission.snapshot(),
            "tenants": self.budgets.snapshot(),
            "cache": {
                "entries": len(self.session.cache),
                "summary": self.session.cache.stats.describe(),
            },
            "breakers": self.session.breakers.export(),
            "faults": self._fault_injector.snapshot()
            if self._fault_injector is not None else None,
        })
        return payload

    def __repr__(self):
        return "RobustServeDaemon(%s%s)" % (
            self.bound_to or "unbound",
            ", draining" if self.draining else "")


class ServerThread:
    """Run a daemon on a background thread (tests, benchmarks, embeds).

    ``start()`` returns once the socket is bound; ``stop()`` initiates
    the drain from outside the loop and joins. The daemon's stats
    remain readable from the calling thread after ``stop()``.
    """

    def __init__(self, config=None, session=None):
        self.daemon = RobustServeDaemon(config=config, session=session)
        self._thread = None
        self._loop = None
        self._ready = None
        self._failure = None

    def _main(self):
        import threading
        assert isinstance(self._ready, threading.Event)
        try:
            asyncio.run(self._serve())
        except Exception as exc:  # surface bind errors to start()
            self._failure = exc
            self._ready.set()

    async def _serve(self):
        await self.daemon.start()
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.daemon.run_async()

    def start(self, timeout=10.0):
        import threading
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main,
                                        name="repro-serve-daemon",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ReproError("serve daemon did not start in %gs"
                             % timeout)
        if self._failure is not None:
            raise self._failure
        return self

    def stop(self, timeout=15.0):
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.daemon.initiate_drain)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ReproError("serve daemon did not drain in %gs"
                             % timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
