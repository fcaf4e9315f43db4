"""Multi-process serving: a router fanning out to snapshot workers.

One asyncio process cannot outrun the GIL; the fleet can.
:class:`FleetServer` is the scale-out form of
:class:`~repro.serve.server.RknnServer`: the same wire protocol, the
same micro-batching and backpressure, but query execution happens in
``N`` **worker processes**, each running the compact backend over the
same mmap'd snapshot (:mod:`repro.compact.snapshot`), so the CSR
arrays exist once in physical memory no matter how many workers map
them -- ``read_clone()`` made zero-copy across processes.

**Routing (admission-time scatter).**  Every query is routed to its
*home worker* -- the worker owning the query node's slice of the
packing order, so each worker's caches and materialized reads stay
concentrated on one locality region (home-shard affinity).  Each
worker gets its own :class:`~repro.serve.batcher.MicroBatcher`;
coalesced batches travel over a control pipe as one message and come
back as ready response bodies.  The per-connection drain in
:class:`~repro.serve.server.ConnectionServer` gathers responses back
into request order.

**Fleet-wide generation safety.**  Mutations and ``compact`` requests
are broadcast to every live worker under a router-side mutation lock,
and the router verifies that all workers report the **same**
post-operation stamp before acknowledging -- fleet-wide agreement on
``(base_generation, delta_epoch)``.  Every query batch executes wholly
inside one worker, whose single dispatch loop captures the stamp and
builds the response bodies in the same serialized interval
(:func:`~repro.serve.server.execute_batch`, the function the
single-process server's executor runs), so no response ever mixes
base generations.  Traced and ``EXPLAIN`` queries ride the same
batches; their span trees come home over the pipe in the bodies.
Read-your-writes per connection survives too: a mutation barriers the
connection's read loop until every worker applied it, so any later
query observes the new stamp on whichever worker serves it.

**Fault handling.**  A worker death is detected at the pipe (EOF /
broken pipe).  In-flight and future batches for the dead worker are
*rerouted* to the next live worker -- safe, because every worker holds
the complete snapshot and has applied the same mutation log -- and the
death is surfaced in ``/metrics`` (``live_workers``, ``reroutes``).
With no workers left the router sheds with explicit errors instead of
hanging.  Standing-query subscriptions are not offered in fleet mode.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import multiprocessing
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.errors import QueryError, ReproError
from repro.serve.batcher import MicroBatcher
from repro.serve.server import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_WINDOW,
    ConnectionServer,
    execute_batch,
    start_in_thread,
)

#: The fleet router's logger (a child of ``repro.serve``, so the CLI's
#: ``--log-level`` flag covers both serving modes).
logger = logging.getLogger("repro.serve.fleet")

#: Seconds the router waits for a worker to load its snapshot and
#: report ready (spawned interpreters pay an import, so be generous).
DEFAULT_START_TIMEOUT = 120.0


class WorkerDied(ReproError):
    """The control pipe to a worker process broke (crash or kill)."""


def _dispatch(db, engine, config: dict, request: dict) -> dict:
    """Execute one control-pipe request inside the worker process.

    The worker's single dispatch loop is its serialization point:
    a batch's stamp and answers are captured in the same interval,
    and mutations land strictly between batches -- the per-process
    analogue of the single-thread executor in
    :class:`~repro.serve.server.RknnServer`.
    """
    kind = request["kind"]
    if kind == "batch":
        _, bodies = execute_batch(
            db, engine, request["specs"], request["flags"],
            workers=config.get("engine_workers", 1),
        )
        return {"kind": "bodies", "bodies": bodies}
    if kind == "mutate":
        if request["op"] == "insert":
            outcome = db.insert_point(request["pid"], request["location"])
        else:
            outcome = db.delete_point(request["pid"])
        return {
            "kind": "applied",
            "generation": db.generation,
            "stamp": list(db.stamp),
            "affected": outcome.affected_nodes,
            "io": outcome.io,
        }
    if kind == "compact":
        outcome = db.compact()
        return {
            "kind": "compacted",
            "folded": outcome.affected_nodes,
            "generation": db.generation,
            "stamp": list(db.stamp),
            "io": outcome.io,
        }
    if kind == "stop":
        return {"kind": "stopped"}
    return {"kind": "error", "message": f"unknown request kind {kind!r}"}


def _worker_main(conn, snapshot_dir: str, config: dict) -> None:
    """Entry point of one worker process (spawned by the router).

    Loads the shared snapshot with ``mmap=True`` (constant time, pages
    shared fleet-wide), optionally materializes K-NN lists and builds
    the landmark oracle -- both deterministic, so every worker ends up
    answer-identical -- then serves the control pipe until it closes
    or a ``stop`` arrives.
    """
    from repro.compact.db import CompactDatabase

    try:
        db = CompactDatabase.load_snapshot(snapshot_dir, mmap=True)
        if config.get("materialize"):
            db.materialize(config["materialize"])
        if config.get("oracle_landmarks"):
            db.build_oracle(config["oracle_landmarks"])
        engine = db.engine(cache_entries=config.get("cache_entries", 4096))
    except Exception as exc:
        with contextlib.suppress(OSError):
            conn.send({"kind": "error", "message": f"worker boot: {exc}"})
        return
    conn.send({"kind": "ready", "stamp": list(db.stamp)})
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            # the router is gone; exit instead of lingering as an orphan
            return
        try:
            reply = _dispatch(db, engine, config, request)
        except ReproError as exc:
            reply = {"kind": "error", "message": str(exc)}
        except Exception as exc:  # never kill the loop on one bad request
            reply = {"kind": "error",
                     "message": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
        if request.get("kind") == "stop":
            return


class WorkerHandle:
    """The router's view of one worker process.

    Calls are serialized per worker: an :class:`asyncio.Lock` admits
    one round-trip at a time and a single-thread executor performs the
    blocking pipe send/recv off the event loop, so the loop never
    blocks on a worker and two coroutines never interleave on one
    pipe.  A broken pipe flips :attr:`alive` and every later call
    raises :class:`WorkerDied` immediately.
    """

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.alive = True
        self._lock = asyncio.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"fleet-worker-{index}"
        )

    async def wait_ready(self, timeout: float) -> tuple[int, int]:
        """Await the worker's ready message; return its boot stamp."""
        loop = asyncio.get_running_loop()

        def recv_ready():
            if not self.conn.poll(timeout):
                raise WorkerDied(
                    f"worker {self.index} not ready after {timeout:g} s"
                )
            return self.conn.recv()

        try:
            reply = await loop.run_in_executor(self._executor, recv_ready)
        except (EOFError, OSError) as exc:
            self.alive = False
            raise WorkerDied(f"worker {self.index} died booting") from exc
        if reply.get("kind") != "ready":
            self.alive = False
            raise WorkerDied(
                f"worker {self.index} failed to boot: "
                f"{reply.get('message', reply)}"
            )
        return tuple(reply["stamp"])

    async def call(self, request: dict) -> dict:
        """One serialized request/reply round-trip over the pipe."""
        if not self.alive:
            raise WorkerDied(f"worker {self.index} is dead")
        async with self._lock:
            if not self.alive:
                raise WorkerDied(f"worker {self.index} is dead")
            loop = asyncio.get_running_loop()

            def roundtrip():
                self.conn.send(request)
                return self.conn.recv()

            try:
                return await loop.run_in_executor(self._executor, roundtrip)
            except (EOFError, BrokenPipeError, OSError) as exc:
                self.alive = False
                raise WorkerDied(
                    f"worker {self.index} died mid-call: {exc!r}"
                ) from exc

    def close(self) -> None:
        """Tear down the pipe and the call thread (process join is the
        router's job)."""
        self.alive = False
        with contextlib.suppress(OSError):
            self.conn.close()
        self._executor.shutdown(wait=False)


class FleetServer(ConnectionServer):
    """Router process of the worker fleet (same wire protocol as
    :class:`~repro.serve.server.RknnServer`).

    Parameters
    ----------
    snapshot_dir:
        A snapshot directory written by
        :meth:`~repro.compact.db.CompactDatabase.save_snapshot`; every
        worker maps it read-only.
    workers:
        Worker process count (>= 1).
    window / max_batch / max_queue:
        Per-worker micro-batching and admission parameters.
    materialize:
        K-NN list capacity each worker materializes at boot (0 = none).
    oracle_landmarks:
        Landmark count each worker's oracle is built with (``None`` =
        no oracle).
    cache_entries:
        Per-worker engine result-cache capacity.
    start_timeout:
        Seconds to wait for every worker to report ready.
    """

    def __init__(self, snapshot_dir, *, workers: int = 2,
                 window: float = DEFAULT_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 materialize: int = 0, oracle_landmarks: int | None = None,
                 cache_entries: int = 4096,
                 start_timeout: float = DEFAULT_START_TIMEOUT):
        super().__init__()
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        from repro.compact.db import CompactDatabase

        self.snapshot_dir = Path(snapshot_dir)
        # constant-time mmap load: the router itself never answers
        # queries, it only needs the packing rank for home routing
        routing = CompactDatabase.load_snapshot(self.snapshot_dir, mmap=True)
        self._rank = routing.store._rank
        self._num_nodes = routing.store.num_nodes
        self.num_workers = workers
        self.window = window
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.start_timeout = start_timeout
        self._config = {
            "materialize": materialize,
            "oracle_landmarks": oracle_landmarks,
            "cache_entries": cache_entries,
            "engine_workers": 1,
        }
        self._workers: list[WorkerHandle] = []
        self._batchers: list[MicroBatcher] = []
        self._mutation_lock = asyncio.Lock()
        self._stamp: tuple[int, int] = (0, 0)
        self._generation = 0
        self.queries_served = 0
        self.mutations_applied = 0
        self.compactions = 0
        self.reroutes = 0
        self._build_registry()

    def _build_registry(self) -> None:
        """Wire the router's observables into the one metrics registry.

        Everything is callback-backed over the router's own state (the
        plain attributes the tests and benchmarks read); the admission
        callbacks sum across the per-worker batchers at render time,
        so the registry stays correct as workers die.  The latency
        histograms (end-to-end request seconds, queue wait across every
        worker's batcher, and round-trip seconds per worker batch, pipe
        included) are the only owned series.
        """
        registry = self.registry
        registry.counter("queries_served", "Queries answered",
                         fn=lambda: self.queries_served)
        registry.counter("mutations_applied", "Point mutations applied",
                         fn=lambda: self.mutations_applied)
        registry.counter("compactions", "Delta-log folds",
                         fn=lambda: self.compactions)
        registry.counter("errors", "Requests answered with an error",
                         fn=lambda: self.errors)
        registry.counter("reroutes", "Queries rerouted off dead workers",
                         fn=lambda: self.reroutes)
        registry.counter(
            "worker_deaths", "Worker processes lost",
            fn=lambda: sum(1 for w in self._workers if not w.alive),
        )
        for key in ("admitted", "shed", "batches", "coalesced"):
            registry.counter(
                f"admission_{key}", f"Admission control: {key}",
                fn=(lambda name: lambda: sum(
                    getattr(b.stats, name) for b in self._batchers
                ))(key),
            )
        registry.gauge("workers", "Configured worker processes",
                       fn=lambda: self.num_workers)
        registry.gauge(
            "live_workers", "Workers currently answering",
            fn=lambda: sum(1 for w in self._workers if w.alive),
        )
        registry.gauge("generation", "Fleet-wide update generation",
                       fn=lambda: self._generation)
        registry.gauge("base_generation", "Overlay base generation",
                       fn=lambda: self._stamp[0])
        registry.gauge("delta_epoch", "Overlay delta epoch",
                       fn=lambda: self._stamp[1])
        registry.gauge("queue_depth", "Summed admission queue depth",
                       fn=lambda: sum(b.depth for b in self._batchers))
        self.latency = registry.histogram(
            "batch_seconds", "Worker batch round-trip latency (seconds)"
        )

    # -- lifecycle ----------------------------------------------------------

    async def _boot(self) -> None:
        """Spawn every worker, gather their ready stamps, and give each
        its batcher (the listener is already bound)."""
        context = multiprocessing.get_context("spawn")
        for index in range(self.num_workers):
            parent, child = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child, str(self.snapshot_dir), self._config),
                daemon=True,
                name=f"repro-serve-worker-{index}",
            )
            process.start()
            child.close()
            self._workers.append(WorkerHandle(index, process, parent))
        stamps = await asyncio.gather(
            *(worker.wait_ready(self.start_timeout)
              for worker in self._workers)
        )
        if len(set(stamps)) != 1:  # pragma: no cover - defensive
            raise ReproError(f"workers booted at diverging stamps {stamps}")
        self._stamp = stamps[0]
        self._batchers = [
            MicroBatcher(
                self._runner_for(index), window=self.window,
                max_batch=self.max_batch, max_queue=self.max_queue,
                on_wait=self.queue_wait.observe,
            )
            for index in range(self.num_workers)
        ]

    async def _release(self) -> None:
        """Drain batchers, shut every worker down."""
        for batcher in self._batchers:
            await batcher.close()
        for worker in self._workers:
            if worker.alive:
                with contextlib.suppress(ReproError, asyncio.TimeoutError):
                    await asyncio.wait_for(
                        worker.call({"kind": "stop"}), timeout=5
                    )
            worker.close()
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            await loop.run_in_executor(None, worker.process.join, 5)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()

    # -- routing ------------------------------------------------------------

    def _worker_of(self, spec) -> int:
        """Home worker of a spec: its node's slice of the packing order.

        Nodes adjacent in the packing order (the locality rank the
        batch planner already uses) land on the same worker, so each
        worker's result cache and page-warm region stay concentrated
        -- the process-level form of home-shard affinity.
        """
        node = spec.query
        if isinstance(node, int) and 0 <= node < self._num_nodes:
            return self._rank[node] * self.num_workers // self._num_nodes
        return 0

    def _next_live(self, index: int) -> int | None:
        """The first live worker at or after ``index`` (wrapping)."""
        for step in range(self.num_workers):
            candidate = (index + step) % self.num_workers
            if self._workers[candidate].alive:
                return candidate
        return None

    def _batcher_for(self, spec) -> MicroBatcher:
        """The home worker's batcher.

        A dead home worker reroutes at admission; with no live worker
        the request is refused outright (clean error, no hang).
        """
        home = self._worker_of(spec)
        target = home if self._workers[home].alive else self._next_live(home)
        if target is None:
            raise ReproError("no live workers in the fleet")
        if target != home:
            self.reroutes += 1
            logger.warning(
                "rerouted query at admission: worker %d is dead, "
                "using worker %d", home, target,
            )
        return self._batchers[target]

    def _runner_for(self, index: int):
        """The batch runner bound to worker ``index``'s pipe."""

        async def run(specs, flags):
            return await self._run_worker_batch(index, specs, flags)

        return run

    async def _run_worker_batch(self, index: int, specs, flags):
        """Ship one coalesced batch to a worker; reroute on death.

        The reply's bodies each carry the stamp the worker captured
        immediately before executing the batch -- one worker, one
        serialized interval, one stamp per response.  A worker dying
        mid-batch reroutes the whole batch to the next live worker
        (every worker holds the full snapshot and mutation history, so
        any of them answers identically).
        """
        request = {"kind": "batch", "specs": list(specs),
                   "flags": list(flags)}
        began = time.perf_counter()
        try:
            reply = await self._workers[index].call(request)
        except WorkerDied:
            target = self._next_live(index)
            if target is None:
                raise ReproError("no live workers to run the batch") from None
            self.reroutes += len(specs)
            logger.warning(
                "worker %d died mid-batch; rerouting %d queries to "
                "worker %d", index, len(specs), target,
            )
            reply = await self._workers[target].call(request)
        if reply.get("kind") == "error":
            raise ReproError(reply["message"])
        self.queries_served += len(specs)
        self.latency.observe(time.perf_counter() - began)
        return reply["bodies"]

    # -- fleet-wide mutations -----------------------------------------------

    async def _broadcast(self, request: dict) -> dict:
        """Apply one mutating request on every live worker; verify stamps.

        The mutation lock serializes broadcasts, so every worker
        applies the same operations in the same order.  After the
        fan-out the router asserts that all live workers report the
        **same** post-operation stamp -- one stamp fleet-wide, as one
        executor gives it in a single process; divergence (a worker
        applying out of order) fails loudly instead of serving mixed
        answers.
        A worker dying mid-broadcast just leaves the fleet (it will
        never answer again, so it cannot leak a stale generation).
        """
        async with self._mutation_lock:
            replies = []
            for worker in self._workers:
                if not worker.alive:
                    continue
                try:
                    replies.append(await worker.call(request))
                except WorkerDied:
                    logger.warning(
                        "worker %d died during %s broadcast; dropping it "
                        "from the fleet", worker.index, request["kind"],
                    )
                    continue
            if not replies:
                raise ReproError("no live workers in the fleet")
            failed = [r for r in replies if r.get("kind") == "error"]
            if failed:
                # deterministic databases fail identically on every
                # worker (e.g. inserting an existing pid)
                raise ReproError(failed[0]["message"])
            stamps = {tuple(reply["stamp"]) for reply in replies}
            if len(stamps) != 1:  # pragma: no cover - defensive
                raise ReproError(
                    f"fleet stamp divergence after {request['kind']}: "
                    f"{sorted(stamps)}"
                )
            reply = replies[0]
            self._stamp = tuple(reply["stamp"])
            self._generation = reply["generation"]
            return reply

    async def _mutate(self, op: str, payload: dict) -> dict:
        """Broadcast one point mutation to the whole fleet."""
        pid = int(payload["pid"])
        location = payload.get("location")
        if isinstance(location, list):
            location = tuple(location)
        reply = await self._broadcast({
            "kind": "mutate", "op": op, "pid": pid, "location": location,
        })
        self.mutations_applied += 1
        return {
            "status": "ok",
            "op": op,
            "generation": reply["generation"],
            "updated_lists": reply["affected"],
            "io": reply["io"],
            "base_generation": self._stamp[0],
            "delta_epoch": self._stamp[1],
        }

    async def _compact(self) -> dict:
        """Broadcast the fold; every worker bumps to the same new base."""
        reply = await self._broadcast({"kind": "compact"})
        self.compactions += 1
        logger.info(
            "fleet compacted %d folded operations; new stamp (%d, %d)",
            reply["folded"], self._stamp[0], self._stamp[1],
        )
        return {
            "status": "ok",
            "op": "compact",
            "folded": reply["folded"],
            "generation": reply["generation"],
            "base_generation": self._stamp[0],
            "delta_epoch": self._stamp[1],
            "io": reply["io"],
        }

    async def _subscribe(self, payload: dict, writer) -> dict:
        """Standing queries need one live database; refuse cleanly."""
        raise ReproError(
            "subscribe is not supported in fleet mode (--workers > 1); "
            "run a single-process server for standing queries"
        )

    # -- introspection ------------------------------------------------------

    def metrics(self) -> dict:
        """Router-side counters plus fleet membership for ``/metrics``."""
        live = sum(1 for worker in self._workers if worker.alive)
        admission = {"admitted": 0, "shed": 0, "batches": 0, "coalesced": 0}
        for batcher in self._batchers:
            for key, value in batcher.stats.snapshot().items():
                admission[key] += value
        return {
            "backend": "compact",
            "mode": "fleet",
            "workers": self.num_workers,
            "live_workers": live,
            "worker_deaths": self.num_workers - live,
            "reroutes": self.reroutes,
            "generation": self._generation,
            "base_generation": self._stamp[0],
            "delta_epoch": self._stamp[1],
            "queue_depth": sum(b.depth for b in self._batchers),
            "queries_served": self.queries_served,
            "mutations_applied": self.mutations_applied,
            "compactions": self.compactions,
            "errors": self.errors,
            "subscriptions": 0,
            "admission": admission,
            "latency": self.latency.to_dict(),
            "request_latency": self.request_latency.to_dict(),
            "queue_wait": self.queue_wait.to_dict(),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the registry (loop-thread only)."""
        return self.registry.render_prometheus()

    def _health(self) -> dict:
        live = sum(1 for worker in self._workers if worker.alive)
        return {
            "status": "ok" if live else "error",
            "generation": self._generation,
            "backend": "compact",
            "workers": self.num_workers,
            "live_workers": live,
            "base_generation": self._stamp[0],
            "delta_epoch": self._stamp[1],
        }


@contextlib.contextmanager
def fleet_in_thread(source, *, workers: int = 2, host: str = "127.0.0.1",
                    port: int = 0, **kwargs):
    """Run a :class:`FleetServer` on a daemon thread; yield its handle.

    ``source`` is either a snapshot directory or a
    :class:`~repro.compact.db.CompactDatabase` (snapshotted into a
    temporary directory for the fleet's lifetime).  The multi-process
    counterpart of :func:`~repro.serve.server.serve_in_thread`::

        with fleet_in_thread(db, workers=4) as handle:
            client = ServeClient(handle.host, handle.port)
            ...

    A fleet that fails to boot raises its own exception (e.g.
    :class:`OSError` for a busy port) at once.
    """
    own_dir = None
    if hasattr(source, "save_snapshot"):
        own_dir = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        source.save_snapshot(own_dir.name)
        source = own_dir.name
    try:
        handle = start_in_thread(
            FleetServer(source, workers=workers, **kwargs), host, port,
            timeout=DEFAULT_START_TIMEOUT, name="repro-fleet",
        )
        try:
            yield handle
        finally:
            handle.stop()
    finally:
        if own_dir is not None:
            own_dir.cleanup()
