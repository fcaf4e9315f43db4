"""The asyncio RkNN server: admission, batching, one ordering point.

:class:`RknnServer` turns any facade database -- disk, sharded,
compact, oracle attached or not -- into a network service.  One
asyncio event loop owns every connection; queries are admitted into a
:class:`~repro.serve.batcher.MicroBatcher` and executed as engine
batches on a worker thread, so the loop never blocks on query work.

**One executor orders everything.**  Every batch, mutation, fold and
subscription registration runs as one task on a single-thread
executor, so no two of them ever overlap.  A batch task reads the
database's generation (and its snapshot ``stamp``, when it has one)
immediately before the engine runs and builds every response body
there (:func:`execute_batch`), so the generation a response claims is
the state that produced it -- no response ever mixes generations, and
a client can replay the mutation log and verify any answer against a
direct facade call.  Traced and ``EXPLAIN`` requests take the same
path: a batch holding one runs under a tracer, and each flagged
member's body carries the batch's span tree.

**Writes.**  On disk and sharded databases an ``insert`` / ``delete``
first *fences* the batcher -- every query admitted before it executes
at the old generation -- then applies as one executor task together
with the subscription refreshes.  A database exposing a snapshot
``stamp`` (``(base_generation, delta_epoch)``; see
:mod:`repro.compact.overlay`) takes writes as overlay appends: no
fence, readers keep the immutable state they pinned, and the response
carries the post-append stamp.  The ``compact`` op (folding the log
into a fresh base) and subscription registration always fence; every
fence is counted in ``/metrics`` as ``drains``, so the
no-drain-on-append property is observable.  On every backend a write
also waits for its own connection's earlier queries to answer, so a
pipelined query before an insert observes the old state.

**Backpressure.**  The admission queue is bounded; beyond capacity the
server immediately answers ``overloaded`` instead of queueing without
bound (shed requests are counted and surfaced through ``/metrics``).

**Standing queries.**  A ``subscribe`` request registers a
:class:`~repro.streams.monitor.RnnMonitor` over the live database;
every later mutation refreshes each subscribed monitor and pushes the
resulting :class:`~repro.streams.monitor.MembershipEvent` diffs to the
subscriber as ``membership`` event lines.

``/metrics`` and ``/healthz`` answer both as protocol ops and as plain
HTTP ``GET`` on the same port.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.planner import backend_of
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher, QueueFull
from repro.streams.monitor import RnnMonitor

#: The serving tier's logger (``repro serve --log-level`` wires the
#: stdlib root handler; libraries embedding the server attach their own).
logger = logging.getLogger("repro.serve")

#: Default coalescing window: 0 batches by arrival ("group commit") --
#: a lone request runs at once, while requests arriving during a running
#: batch (or buffered together on a connection) share the next one.
DEFAULT_WINDOW = 0.0

#: Default maximum batch size handed to the engine in one execution.
DEFAULT_MAX_BATCH = 32

#: Default admission bound before requests are shed as ``overloaded``.
DEFAULT_MAX_QUEUE = 1024

#: Outbound bytes a subscriber may leave unread before it is evicted.
MAX_SUBSCRIBER_BACKLOG = 1 << 20

#: Unread response bytes before a connection stops being read from
#: (TCP backpressure on clients that pipeline without ever reading).
MAX_RESPONSE_BACKLOG = 1 << 20

#: Seconds :meth:`ConnectionServer.stop` waits for connection handlers
#: to finish once their connections are closed.
STOP_TIMEOUT = 5.0

#: Seconds :func:`serve_in_thread` waits for the server to report ready.
START_TIMEOUT = 10.0


def execute_batch(db, engine, specs, flags, workers: int = 1):
    """Run one batch on the calling thread; return ``(outcome, bodies)``.

    The one place batch response bodies are built: on
    :class:`RknnServer`'s executor thread and in each fleet worker's
    dispatch loop -- both serialization points, so the generation (and
    snapshot ``stamp``) read here is the state the engine answers from.
    ``flags`` is index-aligned with ``specs`` (see
    :func:`~repro.serve.protocol.request_query`).  When any is set,
    the batch runs under one :class:`~repro.obs.trace.Tracer` and each
    flagged body carries that span tree -- an ``"explain"`` body also
    its compiled plan; unflagged bodies stay trace-free.
    """
    generation = db.generation
    stamp = getattr(db, "stamp", None)
    tracer = Tracer() if any(flags) else None
    outcome = engine.run_batch(specs, workers=workers, tracer=tracer)
    bodies = [protocol.result_payload(result, generation, stamp)
              for result in outcome.results]
    if tracer is not None:
        from repro.qlang.api import build_plan

        tree = tracer.to_payload()
        for body, spec, flag in zip(bodies, specs, flags):
            if flag is not None:
                body["trace"] = tree
            if flag == "explain":
                body["explain"] = True
                body["plan"] = build_plan(engine, spec)
    return outcome, bodies


class _Subscription:
    """One connection's standing-query monitor."""

    def __init__(self, monitor: RnnMonitor, writer: asyncio.StreamWriter):
        self.monitor = monitor
        self.writer = writer


class ConnectionServer:
    """Lifecycle and connection plumbing shared by every serve front.

    Owns the listener, the shutdown handshake, and the JSON-lines /
    HTTP connection loops -- everything that does not depend on *how*
    a request is executed.  Subclasses plug in the execution policy
    through hooks: :meth:`_boot` / :meth:`_release` (execution state
    set up before the first connection and torn down after the last),
    :meth:`_batcher_for` (the batcher a query joins), :meth:`_mutate` /
    :meth:`_compact` / :meth:`_subscribe` (the non-query ops), and
    :meth:`metrics` / :meth:`_health` (introspection).
    :class:`RknnServer` executes in-process;
    :class:`~repro.serve.fleet.FleetServer` routes to worker
    processes.

    The base owns the server's one :attr:`registry`, its end-to-end
    ``request_seconds`` histogram (every JSON-lines request, from the
    moment its line is read to the moment its response is written) and
    its ``queue_wait_seconds`` histogram (every query, from admission
    into a batcher to the start of its batch).
    """

    def __init__(self):
        self._subscriptions: dict[asyncio.StreamWriter, _Subscription] = {}
        # open connections and their handler tasks: stop() closes them
        # and waits for the handlers, so none is left to be cancelled
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._server: asyncio.AbstractServer | None = None
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        # request_stop() may land on another thread before start() has
        # created the loop and event: the flag records the request and
        # start() honors it immediately (the pre-start race guard)
        self._stop_pending = False
        self._stop_mutex = threading.Lock()
        self.address: tuple[str, int] | None = None
        self.errors = 0
        self.registry = MetricsRegistry()
        self.request_latency = self.registry.histogram(
            "request_seconds",
            "End-to-end request latency, line read to response written "
            "(seconds)",
        )
        self.queue_wait = self.registry.histogram(
            "queue_wait_seconds",
            "Admission queue wait, admit to batch start (seconds)",
        )

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind, boot, then start accepting connections (port 0 =
        ephemeral).

        The port is bound *before* :meth:`_boot`, so a busy port fails
        at once instead of after a slow boot; connections are accepted
        only once the boot succeeded.
        """
        with self._stop_mutex:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            if self._stop_pending:
                # a stop requested before the loop existed wins
                # immediately: serve_until_stopped() returns at once
                self._stop.set()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, start_serving=False
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        try:
            await self._boot()
        except BaseException:
            await self.stop()
            raise
        await self._server.start_serving()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop` (or :meth:`stop`) is called."""
        assert self._stop is not None, "start() before serve_until_stopped()"
        await self._stop.wait()
        await self.stop()

    async def run(self, host: str = "127.0.0.1", port: int = 0,
                  ready=None) -> None:
        """Start, signal readiness, and serve until stopped.

        ``ready`` is an optional callable invoked with the bound
        ``(host, port)`` once the server is accepting connections --
        a ``threading.Event.set`` wrapper, a ready-file writer, or a
        print.
        """
        await self.start(host, port)
        if ready is not None:
            ready(self.address)
        await self.serve_until_stopped()

    def request_stop(self) -> None:
        """Thread-safe shutdown signal (usable from any thread).

        Safe to call at any point in the lifecycle: a request landing
        before :meth:`start` has created the event loop is remembered
        and honored the moment the server starts, instead of being
        silently dropped.
        """
        with self._stop_mutex:
            self._stop_pending = True
            loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def stop(self) -> None:
        """Close the listener and every open connection, release the
        execution state, and wait for the connection handlers to end.

        Closing a connection ends its handler's read loop; the handler
        then answers what it already admitted (or fails it once
        :meth:`_release` has closed the execution state) and returns
        normally, so no handler is left for the event loop to cancel
        at shutdown.
        """
        if self._server is not None:
            self._server.close()
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        await self._release()
        handlers = list(self._connections.values())
        if handlers:
            await asyncio.wait(handlers, timeout=STOP_TIMEOUT)

    # -- execution hooks ----------------------------------------------------

    async def _boot(self) -> None:
        """Set up the execution state before connections are accepted."""

    async def _release(self) -> None:
        """Tear down the execution state (waiting requests fail)."""

    def _batcher_for(self, spec) -> MicroBatcher:
        """The batcher a query joins (may raise
        :class:`~repro.errors.ReproError` to refuse it)."""
        raise NotImplementedError

    async def _mutate(self, op: str, payload: dict) -> dict:
        """Apply one ``insert`` / ``delete``; return the response body."""
        raise NotImplementedError

    async def _compact(self) -> dict:
        """Fold the delta log; return the response body."""
        raise NotImplementedError

    async def _subscribe(self, payload: dict,
                         writer: asyncio.StreamWriter) -> dict:
        """Register a standing query; return the response body."""
        raise NotImplementedError

    def metrics(self) -> dict:
        """Counters for the ``/metrics`` endpoint (loop-thread only)."""
        raise NotImplementedError

    def metrics_text(self) -> str:
        """Prometheus text exposition of the same counters (served at
        ``GET /metrics?format=prometheus``)."""
        raise NotImplementedError

    def _health(self) -> dict:
        """Body of the ``/healthz`` endpoint."""
        raise NotImplementedError

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            first = await reader.readline()
            if not first:
                return
            if first.split(b" ", 1)[0] in (b"GET", b"HEAD"):
                await self._handle_http(first, reader, writer)
                return
            await self._handle_protocol(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            # ValueError: a request line overran the StreamReader limit;
            # the line framing is lost, so drop the connection cleanly
            pass
        finally:
            self._connections.pop(writer, None)
            self._subscriptions.pop(writer, None)
            # no wait_closed(): the handler may itself be cancelled at
            # loop shutdown, and awaiting here would log that cancellation
            writer.close()

    async def _handle_protocol(self, first: bytes,
                               reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        """The JSON-lines loop: pipelined requests, ordered responses.

        Every query is admitted *at read time* straight into a batcher
        (so a connection that pipelines N queries coalesces them into
        shared batches), and introspection answers synchronously.
        Mutations and subscriptions are ordered both ways on their
        connection: one starts only once the connection's earlier
        queries have answered (a pipelined query before an insert
        observes the old state), and it *barriers the read loop* -- no
        later line is read until it completes (a pipelined query after
        an insert observes the new one).  A per-connection drain
        preserves response order, and stamps each request's end-to-end
        latency once its response is written.
        """
        loop = asyncio.get_running_loop()
        responses: asyncio.Queue = asyncio.Queue()
        drain = loop.create_task(self._drain_responses(responses, writer))
        queries: set[asyncio.Future] = set()  # this connection's unanswered
        try:
            line = first
            while line:
                stripped = line.strip()
                if stripped:
                    read_at = time.perf_counter()
                    request_id, pending = self._admit(stripped, writer)
                    if isinstance(pending, asyncio.Future):
                        queries.add(pending)
                        pending.add_done_callback(queries.discard)
                    elif callable(pending):  # a mutation or subscription
                        if queries:
                            await asyncio.wait(queries)
                        pending = loop.create_task(pending())
                    await responses.put((request_id, pending, read_at))
                    if isinstance(pending, asyncio.Task):
                        # the read barrier; also bounds this connection
                        # to one task in flight (its failure reaches the
                        # client through the drain)
                        with contextlib.suppress(Exception):
                            await pending
                if (writer.transport.get_write_buffer_size()
                        > MAX_RESPONSE_BACKLOG):
                    # the client is not reading its responses: stop
                    # reading its requests until the backlog drains, so
                    # server memory stays bounded (TCP pushes back)
                    await writer.drain()
                line = await reader.readline()
        finally:
            await responses.put(None)
            with contextlib.suppress(Exception):
                await drain

    def _admit(self, line: bytes, writer: asyncio.StreamWriter):
        """Admit one request line; return ``(request id, pending)``.

        ``pending`` is a ready response body (admission errors, shed
        requests, introspection), a batcher future resolving to the
        body (queries -- the fast path: no per-request task), or a
        zero-argument callable returning the coroutine that computes
        the body (mutations and subscriptions -- the read loop starts
        it in connection order).
        """
        try:
            payload = protocol.decode(line)
        except ReproError as exc:
            self.errors += 1
            return None, protocol.error_payload(str(exc))
        request_id = payload.get("id")
        op = payload.get("op", "query")
        if op == "query":
            try:
                spec, flag = protocol.request_query(payload)
                batcher = self._batcher_for(spec)
                if flag is None:  # plain queries pass the spec alone
                    return request_id, batcher.admit(spec)
                return request_id, batcher.admit(spec, flag)
            except QueueFull as exc:
                logger.warning("shed query (queue depth %d)", exc.depth)
                return request_id, protocol.overloaded_payload(exc.depth)
            except ReproError as exc:
                self.errors += 1
                return request_id, protocol.error_payload(str(exc))
            except (KeyError, TypeError, ValueError) as exc:
                self.errors += 1
                return request_id, protocol.error_payload(
                    f"bad request: {exc!r}"
                )
        if op == "metrics":
            return request_id, {"status": "ok", **self.metrics()}
        if op == "healthz":
            return request_id, self._health()
        if op not in ("insert", "delete", "compact", "subscribe"):
            self.errors += 1
            return request_id, protocol.error_payload(
                f"unknown op {op!r}; choose one of {protocol.OPS}"
            )
        return request_id, functools.partial(self._respond, payload, writer)

    async def _drain_responses(self, queue: asyncio.Queue,
                               writer: asyncio.StreamWriter) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            request_id, pending, read_at = item
            if isinstance(pending, dict):
                payload = pending
            else:
                try:
                    payload = await pending
                except Exception as exc:  # defensive: never kill the drain
                    payload = protocol.error_payload(str(exc))
                    self.errors += 1
            if payload is None:
                continue
            if request_id is not None:
                payload["id"] = request_id
            writer.write(protocol.encode(payload))
            self.request_latency.observe(time.perf_counter() - read_at)
            # flush once per quiet period, not per line -- unless the
            # transport buffer is backing up (client not reading)
            if (queue.empty() or writer.transport.get_write_buffer_size()
                    > MAX_RESPONSE_BACKLOG):
                with contextlib.suppress(ConnectionError):
                    await writer.drain()

    async def _respond(self, payload: dict,
                       writer: asyncio.StreamWriter) -> dict | None:
        """Compute the response body for one mutation or subscription."""
        try:
            op = payload["op"]
            if op in ("insert", "delete"):
                return await self._mutate(op, payload)
            if op == "compact":
                return await self._compact()
            return await self._subscribe(payload, writer)
        except ReproError as exc:
            self.errors += 1
            return protocol.error_payload(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            self.errors += 1
            return protocol.error_payload(f"bad request: {exc!r}")

    # -- HTTP (curl / probe surface) ----------------------------------------

    async def _handle_http(self, first: bytes, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            method, target, _ = first.decode("latin-1").split(" ", 2)
        except ValueError:
            method, target = "GET", "/"
        while True:  # drain the header block
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
        path, _, query_string = target.partition("?")
        content_type = "application/json"
        if path == "/metrics" and "format=prometheus" in query_string.split("&"):
            status = "200 OK"
            content_type = "text/plain; version=0.0.4"
            content = self.metrics_text().encode("utf-8")
        else:
            if path == "/metrics":
                status, body = "200 OK", self.metrics()
            elif path == "/healthz":
                status, body = "200 OK", self._health()
            else:
                status, body = ("404 Not Found",
                                {"error": f"unknown path {path}"})
            content = json.dumps(body, indent=2).encode("utf-8") + b"\n"
        writer.write(
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(content)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
        )
        if method != "HEAD":  # HEAD answers carry headers only
            writer.write(content)
        with contextlib.suppress(ConnectionError):
            await writer.drain()


class RknnServer(ConnectionServer):
    """Asyncio serving tier over one facade database.

    Parameters
    ----------
    db:
        Any facade database (:class:`~repro.api.GraphDatabase`,
        :class:`~repro.shard.db.ShardedDatabase`,
        :class:`~repro.compact.db.CompactDatabase`, with or without an
        attached oracle).  The server takes ownership: all access must
        go through requests once serving starts.
    window / max_batch / max_queue:
        Micro-batching and admission parameters (see
        :class:`~repro.serve.batcher.MicroBatcher`).
    workers:
        Worker sessions per engine batch (``read_clone`` pool size the
        engine spreads each batch over).
    cache_entries:
        Result-cache capacity of the server's engine.
    slow_log:
        Optional :class:`~repro.obs.slowlog.SlowQueryLog` attached to
        the server's engine: every executed spec slower than the log's
        threshold is appended as one JSONL record.
    """

    def __init__(self, db, *, window: float = DEFAULT_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 workers: int = 1, cache_entries: int = 4096,
                 slow_log=None):
        super().__init__()
        self.db = db
        self.engine = db.engine(cache_entries=cache_entries,
                                slow_log=slow_log)
        self.workers = workers
        self.batcher = MicroBatcher(
            self._run_batch, window=window,
            max_batch=max_batch, max_queue=max_queue,
            on_wait=self.queue_wait.observe,
        )
        # Delta-overlay backends expose a snapshot stamp: mutations
        # append instead of fencing, and responses carry the stamp.
        self._overlay = getattr(db, "stamp", None) is not None
        # one thread: every batch, write, fold and registration is one
        # task here, so this executor is the server's only ordering point
        self._executor = ThreadPoolExecutor(max_workers=1)
        #: Batcher fences taken before an exclusive operation (non-append
        #: writes, folds, subscriptions) -- i.e. how many times readers
        #: were drained.  Overlay appends never fence.
        self.drains = 0
        self.queries_served = 0
        self.mutations_applied = 0
        self.compactions = 0
        self.events_pushed = 0
        self._build_registry()

    def _build_registry(self) -> None:
        """Wire every observable number into the one metrics registry.

        Pre-existing sources of truth (the plain server counters the
        tests and benchmarks read, the batcher's admission stats, the
        engine's cache stats, the database's tracker) join as
        callback-backed metrics, so nothing is double-booked; the
        latency histograms (request, queue wait, batch) are the
        registry's only owned series.
        """
        registry = self.registry
        registry.counter("queries_served", "Queries answered",
                         fn=lambda: self.queries_served)
        registry.counter("mutations_applied", "Point mutations applied",
                         fn=lambda: self.mutations_applied)
        registry.counter("compactions", "Delta-log folds",
                         fn=lambda: self.compactions)
        registry.counter("drains", "Batcher fences (reader drains)",
                         fn=lambda: self.drains)
        registry.counter("errors", "Requests answered with an error",
                         fn=lambda: self.errors)
        registry.counter("events_pushed", "Membership events pushed",
                         fn=lambda: self.events_pushed)
        stats = self.batcher.stats
        registry.counter("admission_admitted", "Queries admitted",
                         fn=lambda: stats.admitted)
        registry.counter("admission_shed", "Queries shed as overloaded",
                         fn=lambda: stats.shed)
        registry.counter("admission_batches", "Coalesced batches executed",
                         fn=lambda: stats.batches)
        registry.counter("admission_coalesced", "Queries sharing a batch",
                         fn=lambda: stats.coalesced)
        cache = self.engine.cache_stats
        registry.counter("cache_hits", "Result-cache hits",
                         fn=lambda: cache.hits)
        registry.counter("cache_misses", "Result-cache misses",
                         fn=lambda: cache.misses)
        registry.counter("cache_evictions", "Result-cache evictions",
                         fn=lambda: cache.evictions)
        registry.counter("cache_invalidations", "Result-cache invalidations",
                         fn=lambda: cache.invalidations)
        tracker = self.db.tracker
        for counter in ("page_reads", "buffer_hits", "nodes_visited",
                        "edges_expanded", "oracle_prunes"):
            registry.counter(
                counter, f"CostTracker {counter.replace('_', ' ')}",
                fn=(lambda name: lambda: getattr(tracker, name))(counter),
            )
        registry.gauge("queue_depth", "Admission queue depth",
                       fn=lambda: self.batcher.depth)
        registry.gauge("generation", "Database update generation",
                       fn=lambda: self.db.generation)
        registry.gauge("subscriptions", "Registered standing queries",
                       fn=lambda: len(self._subscriptions))
        if self._overlay:
            registry.gauge("base_generation", "Overlay base generation",
                           fn=lambda: self.db.stamp[0])
            registry.gauge("delta_epoch", "Overlay delta epoch",
                           fn=lambda: self.db.stamp[1])
        self.latency = registry.histogram(
            "batch_seconds", "Engine batch execution latency (seconds)"
        )

    # -- lifecycle ----------------------------------------------------------

    async def _release(self) -> None:
        """Fail waiting requests, release the pool."""
        await self.batcher.close()
        self._executor.shutdown(wait=True)

    def _batcher_for(self, spec) -> MicroBatcher:
        """Every query joins the one batcher."""
        return self.batcher

    # -- execution: one executor task per batch, write, fold ----------------

    async def _run(self, fn, *args):
        """Run ``fn(*args)`` as one task on the single-thread executor."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _fence(self) -> None:
        """Let every query admitted so far execute first; count it."""
        await self.batcher.fence()
        self.drains += 1

    async def _run_batch(self, specs, flags) -> list[dict]:
        """The batcher's runner: one coalesced batch as one executor
        task, answered as response bodies (see :func:`execute_batch`)."""
        outcome, bodies = await self._run(
            execute_batch, self.db, self.engine, specs, flags, self.workers
        )
        self.queries_served += len(specs)
        self.latency.observe(outcome.elapsed_seconds)
        return bodies

    async def _mutate(self, op: str, payload: dict) -> dict:
        """Apply one mutation; push events.

        The write and the subscription refreshes run as one executor
        task.  Disk and sharded databases fence first, so queries
        admitted before the write run at the old generation; overlay
        backends append without a fence -- readers never drain -- and
        the response carries the post-append stamp.
        """
        pid = int(payload["pid"])
        location = payload["location"] if op == "insert" else None
        if isinstance(location, list):
            location = tuple(location)

        def apply_and_refresh():
            if op == "insert":
                outcome = self.db.insert_point(pid, location)
            else:
                outcome = self.db.delete_point(pid)
            refreshed = [
                (sub, sub.monitor.refresh())
                for sub in list(self._subscriptions.values())
            ]
            stamp = getattr(self.db, "stamp", None)
            return outcome, self.db.generation, stamp, refreshed

        if not self._overlay:
            await self._fence()
        outcome, generation, stamp, refreshed = await self._run(
            apply_and_refresh
        )
        self.mutations_applied += 1
        for sub, events in refreshed:
            for event in events:
                sub.writer.write(protocol.encode(
                    protocol.membership_payload(event, generation)
                ))
                self.events_pushed += 1
            # a subscriber that stops reading must not grow the server's
            # memory without bound: evict it once its socket buffer
            # backs up past the limit (its connection handler cleans up)
            if (events and sub.writer.transport.get_write_buffer_size()
                    > MAX_SUBSCRIBER_BACKLOG):
                self._subscriptions.pop(sub.writer, None)
                sub.writer.close()
        body = {
            "status": "ok",
            "op": op,
            "generation": generation,
            "updated_lists": outcome.affected_nodes,
            "io": outcome.io,
        }
        if stamp is not None:
            body["base_generation"], body["delta_epoch"] = stamp
        return body

    async def _compact(self) -> dict:
        """Fold the overlay log into a fresh base: the one drain point.

        Admitted queries run first (fence), then the fold runs as one
        executor task and the base generation bumps.  Pinned client
        state is unaffected -- compaction changes no answers -- but
        batches after the fold observe the fresh base stamp.
        """
        if not self._overlay or not hasattr(self.db, "compact"):
            raise ReproError(
                "compact requires a delta-overlay database "
                "(the compact backend)"
            )

        def fold():
            return self.db.compact(), self.db.generation, self.db.stamp

        await self._fence()
        outcome, generation, stamp = await self._run(fold)
        self.compactions += 1
        logger.info(
            "compacted %d folded operations; new stamp (%d, %d)",
            outcome.affected_nodes, stamp[0], stamp[1],
        )
        return {
            "status": "ok",
            "op": "compact",
            "folded": outcome.affected_nodes,
            "generation": generation,
            "base_generation": stamp[0],
            "delta_epoch": stamp[1],
            "io": outcome.io,
        }

    async def _subscribe(self, payload: dict,
                         writer: asyncio.StreamWriter) -> dict:
        queries = {int(qid): int(node)
                   for qid, node in dict(payload["queries"]).items()}
        k = int(payload.get("k", 1))

        def register():
            # one executor task: no write lands between the monitor's
            # initial answers and its registration for refreshes
            monitor = RnnMonitor(self.db, queries, k=k)
            self._subscriptions[writer] = _Subscription(monitor, writer)
            results = {str(qid): monitor.result(qid) for qid in queries}
            return self.db.generation, results

        await self._fence()
        generation, results = await self._run(register)
        return {
            "status": "ok",
            "subscribed": sorted(queries),
            "k": k,
            "generation": generation,
            "results": results,
        }

    # -- introspection ------------------------------------------------------

    def metrics(self) -> dict:
        """Counters for the ``/metrics`` endpoint (loop-thread only)."""
        tracker = self.db.tracker
        cache = self.engine.cache_stats
        body = {
            "backend": backend_of(self.db),
            "generation": self.db.generation,
            "queue_depth": self.batcher.depth,
            "queries_served": self.queries_served,
            "mutations_applied": self.mutations_applied,
            "compactions": self.compactions,
            "drains": self.drains,
            "errors": self.errors,
            "events_pushed": self.events_pushed,
            "subscriptions": len(self._subscriptions),
            "admission": self.batcher.stats.snapshot(),
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "invalidations": cache.invalidations,
            },
            "counters": {
                "page_reads": tracker.page_reads,
                "buffer_hits": tracker.buffer_hits,
                "nodes_visited": tracker.nodes_visited,
                "edges_expanded": tracker.edges_expanded,
                "oracle_prunes": tracker.oracle_prunes,
            },
            "latency": self.latency.to_dict(),
            "request_latency": self.request_latency.to_dict(),
            "queue_wait": self.queue_wait.to_dict(),
        }
        if self._overlay:
            stamp = self.db.stamp
            body["base_generation"], body["delta_epoch"] = stamp
        return body

    def metrics_text(self) -> str:
        """Prometheus text exposition of the registry (loop-thread only)."""
        return self.registry.render_prometheus()

    def _health(self) -> dict:
        body = {
            "status": "ok",
            "generation": self.db.generation,
            "backend": backend_of(self.db),
        }
        if self._overlay:
            body["base_generation"], body["delta_epoch"] = self.db.stamp
        return body


class ServerHandle:
    """A running server on a background thread (tests, benchmarks).

    Exposes the bound :attr:`host` / :attr:`port` and stops the server
    when the context exits.
    """

    def __init__(self, server: ConnectionServer, thread: threading.Thread):
        self.server = server
        self._thread = thread

    @property
    def host(self) -> str:
        """Bound interface of the running server."""
        return self.server.address[0]

    @property
    def port(self) -> int:
        """Bound (possibly ephemeral) port of the running server."""
        return self.server.address[1]

    def stop(self) -> None:
        """Signal shutdown and join the serving thread."""
        self.server.request_stop()
        self._thread.join(timeout=10)


def start_in_thread(server: ConnectionServer, host: str, port: int, *,
                    timeout: float, name: str) -> ServerHandle:
    """Run ``server`` on a daemon thread; return once it accepts.

    A server that fails to boot (a busy port, a worker that cannot
    load) re-raises its own exception here the moment its thread dies,
    instead of leaving the caller to wait out ``timeout``.  A server
    that neither boots nor fails within ``timeout`` seconds is asked
    to stop and reported as a :class:`RuntimeError`.
    """
    ready = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        try:
            asyncio.run(server.run(host, port,
                                   ready=lambda _address: ready.set()))
        except BaseException as exc:
            if ready.is_set():  # a crash while serving: report as usual
                raise
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=_run, daemon=True, name=name)
    thread.start()
    if not ready.wait(timeout=timeout):
        server.request_stop()
        raise RuntimeError(f"{name} failed to start within {timeout:g} s")
    if failure:
        thread.join()
        raise failure[0]
    return ServerHandle(server, thread)


@contextlib.contextmanager
def serve_in_thread(db, *, host: str = "127.0.0.1", port: int = 0,
                    **kwargs):
    """Run an :class:`RknnServer` on a daemon thread; yield its handle.

    The canonical embedding for tests, benchmarks and examples::

        with serve_in_thread(db, max_batch=16) as handle:
            client = ServeClient(handle.host, handle.port)
            ...

    A server that fails to boot raises its own exception (e.g.
    :class:`OSError` for a busy port) at once.
    """
    handle = start_in_thread(RknnServer(db, **kwargs), host, port,
                             timeout=START_TIMEOUT, name="repro-serve")
    try:
        yield handle
    finally:
        handle.stop()
