"""Compact databases: the paper's queries over CSR flat arrays.

:class:`CompactDatabase` and :class:`CompactDirectedDatabase` answer
the queries of :class:`~repro.database.Database` /
:class:`~repro.database.DirectedDatabase` over a :class:`CompactStore`.
The query algorithms run unchanged through the standard views, so
answers are **identical** to the disk-backed and sharded databases;
what changes is the storage: adjacency lives in three flat arrays,
reads are free (no pages, no buffer, no charged I/O) and a query's
cost record counts only the algorithmic work (heap traffic, nodes
visited, probes, CPU).

Because the store is immutable shared memory, ``read_clone`` is a
constant-time operation: a session is a new tracker over the *same*
arrays, which is what lets the batch engine hand every worker a
session without copying the graph (``backend="compact"`` mode).

What exists only here: the vectorized :meth:`CompactDatabase.batch_rknn`
kernel, and -- on the undirected database -- the LSM-style delta
overlay (:meth:`~CompactDatabase.insert_edge`,
:meth:`~CompactDatabase.delete_edge`, :meth:`~CompactDatabase.compact`,
:meth:`~CompactDatabase.at_epoch`, :attr:`~CompactDatabase.stamp`) and
on-disk snapshots.
"""

from __future__ import annotations

import copy

from repro.compact.batch import (
    BatchRequest,
    batch_rknn_kernel,
    numpy_available,
)
from repro.compact.csr import CSRDiGraph
from repro.compact.overlay import DeltaOp, DeltaOverlay, OverlayGraphStore
from repro.compact.store import (
    CompactDiGraphStore,
    CompactGraphStore,
    MemoryKnnStore,
)
from repro.core.result import RnnResult, UpdateResult
from repro.database import (
    DIRECTED_METHODS,
    METHODS,
    Database,
    DirectedDatabase,
    Store,
    packing_order,
)
from repro.errors import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph, edge_key
from repro.graph.partition import bfs_order
from repro.oracle import LowerOnlyBounds, csr_landmark_distances
from repro.points.points import NodePointSet
from repro.storage.stats import CostTracker

__all__ = [
    "CompactDatabase",
    "CompactDirectedDatabase",
    "CompactStore",
    "DIRECTED_METHODS",
    "METHODS",
]


class CompactStore(Store):
    """Memory-resident CSR storage: free reads, in-memory side files.

    Parameters
    ----------
    adjacency:
        A :class:`~repro.compact.store.CompactGraphStore`,
        :class:`~repro.compact.store.CompactDiGraphStore`, or -- while
        edge deltas are pending -- an
        :class:`~repro.compact.overlay.OverlayGraphStore`.
    """

    backend = "compact"
    persists_labels = False

    def __init__(self, adjacency):
        super().__init__(adjacency, CostTracker())

    def knn_store(self, num_nodes: int, capacity: int, lists) -> MemoryKnnStore:
        """Materialized K-NN lists held in memory (uncharged)."""
        return MemoryKnnStore(num_nodes, capacity, lists)

    def landmark_distances(self, num_nodes: int, source: int) -> list[float]:
        """One landmark's table: a NumPy-vectorized relaxation over the
        CSR arrays, or the store Dijkstra over ``neighbors`` without
        NumPy."""
        if numpy_available():
            return csr_landmark_distances(self.adjacency.csr, source)
        return super().landmark_distances(num_nodes, source)

    def kernel_arrays(self):
        """Flat CSR views for the batch kernel (out-arcs when directed),
        or ``None`` while pending edge deltas hide the base arrays."""
        csr = getattr(self.adjacency, "csr", None)
        if csr is None:
            return None
        return csr.out_flat() if isinstance(csr, CSRDiGraph) else csr.flat()


class CompactDatabase(Database):
    """Memory-resident CSR graph database answering (reverse) NN queries.

    Parameters
    ----------
    graph:
        The network.  It is flattened once into CSR arrays; queries
        never touch pages or a buffer.
    points:
        The data set P as a :class:`~repro.points.points.NodePointSet`
        (the compact backend serves restricted networks).  ``None``
        creates an empty set.
    node_order:
        Locality rank fed to the batch planner: ``"bfs"`` (default) or
        ``"hilbert"`` (requires coordinates).  Answers never depend on
        it; only batch execution order does.
    compact_threshold:
        When set, the delta overlay auto-compacts into a fresh base
        generation as soon as the pending log reaches this many
        operations (see :meth:`compact`); ``None`` (default) leaves
        compaction to explicit calls.
    """

    def __init__(
        self,
        graph: Graph,
        points: NodePointSet | None = None,
        *,
        node_order: str = "bfs",
        compact_threshold: int | None = None,
    ):
        self._setup(
            graph, points,
            CompactGraphStore(graph, order=packing_order(graph, node_order)),
            compact_threshold,
        )

    def _setup(self, graph, points, adjacency, compact_threshold) -> None:
        """The one construction path (constructor, promotion, snapshot
        load): validate P, bind the store, start the overlay at
        ``(base 0, epoch 0)``."""
        points = self._checked_points(graph, points, "compact")
        Database.__init__(self, graph, points, CompactStore(adjacency))
        if compact_threshold is not None and compact_threshold < 1:
            raise QueryError(
                f"compact_threshold must be >= 1, got {compact_threshold}"
            )
        #: Append-only mutation log over the immutable base (see
        #: :mod:`repro.compact.overlay`).
        self.overlay = DeltaOverlay(self.points)
        #: Base generation: bumped by :meth:`compact` and reference swaps.
        self.base_generation = 0
        #: Delta epoch: operations appended since the last compaction.
        self.delta_epoch = 0
        self.compact_threshold = compact_threshold
        self._base_store = adjacency
        self._base_graph = graph
        self._live_weights: dict[tuple[int, int], float] | None = None
        self._time_travel = False

    @classmethod
    def from_database(cls, db) -> "CompactDatabase":
        """Promote an existing disk-backed database to the compact backend.

        Parameters
        ----------
        db:
            A :class:`~repro.api.GraphDatabase` with node-resident
            points.  Its serialized adjacency pages are decoded once
            (uncharged) into the CSR arrays; the point set is shared.

        Returns
        -------
        CompactDatabase
            A database answering every restricted query identically to
            ``db``, without page I/O.
        """
        compact = cls.__new__(cls)
        compact._setup(
            db.graph, db.points, CompactGraphStore.from_disk(db.disk), None
        )
        return compact

    # -- properties ---------------------------------------------------------

    @property
    def stamp(self) -> tuple[int, int]:
        """The snapshot stamp ``(base_generation, delta_epoch)``.

        Names the exact database state a reader sees: the immutable
        CSR base plus a prefix of the append-only delta log.  The
        query engine keys its result cache on this two-part stamp, and
        the serve tier stamps every response with it, so appends
        invalidate exactly the entries they must (the epoch moves) and
        compactions -- which change no answers -- simply move cached
        traffic to a fresh key.
        """
        return (self.base_generation, self.delta_epoch)

    @property
    def needs_compaction(self) -> bool:
        """Whether the pending delta log has reached ``compact_threshold``."""
        return (
            self.compact_threshold is not None
            and self.overlay.epoch >= self.compact_threshold
        )

    # -- snapshots ----------------------------------------------------------

    def save_snapshot(self, path):
        """Write the immutable base to a snapshot directory.

        Thin wrapper over :func:`repro.compact.snapshot.save_snapshot`
        (see there for the format and the clean-base requirement).

        Parameters
        ----------
        path:
            Snapshot directory (created if missing).

        Returns
        -------
        pathlib.Path
            The snapshot directory.
        """
        from repro.compact.snapshot import save_snapshot

        return save_snapshot(self, path)

    @classmethod
    def load_snapshot(
        cls, path, *, mmap: bool = True, compact_threshold=None
    ) -> "CompactDatabase":
        """Rebuild a database from a snapshot directory.

        With ``mmap=True`` (default) the CSR arrays are read-only
        memory maps: loading is constant-time and every process
        mapping the same snapshot shares physical pages -- the
        cross-process form of :meth:`read_clone`.

        Parameters
        ----------
        path:
            A directory written by :meth:`save_snapshot`.
        mmap:
            Map the arrays instead of copying them.
        compact_threshold:
            Auto-compaction trigger, as in the constructor.

        Returns
        -------
        CompactDatabase
            Answering exactly what the saved database answered,
            starting at stamp ``(0, 0)``.
        """
        from repro.compact.snapshot import load_snapshot

        return load_snapshot(
            path, mmap=mmap, compact_threshold=compact_threshold
        )

    # -- sessions -----------------------------------------------------------

    def at_epoch(self, epoch: int) -> "CompactDatabase":
        """A pinned read-only session answering as of delta ``epoch``.

        Time travel within the current base generation: the session's
        point set is the delta log replayed to ``epoch``, its store is
        the base CSR arrays merged with the prefix's edge operations,
        and its :attr:`stamp` is ``(base_generation, epoch)``.  Because
        the base is immutable and the log append-only, the session
        stays valid while the head keeps mutating; it answers exactly
        what the head answered when its epoch *was* ``epoch``.
        Epochs older than the last compaction are gone -- compaction
        folds the log into a fresh base -- so ``epoch`` must be within
        ``0 .. delta_epoch``.

        Parameters
        ----------
        epoch:
            The delta epoch to pin (0 is the base itself).

        Returns
        -------
        CompactDatabase
            A read-only session: mutations and compaction raise
            :class:`~repro.errors.QueryError`.  Materialized lists and
            the bichromatic reference set are not carried (they track
            the head); the landmark oracle is kept whenever it is
            still admissible at ``epoch`` (no pending edge insertions
            in the prefix).
        """
        points = self.overlay.points_at(epoch)
        edge_ops = self.overlay.edge_ops_at(epoch)
        session = copy.copy(self)
        session.storage = self.storage.read_clone()
        session.storage.adjacency = (
            self._base_store if not edge_ops
            else OverlayGraphStore(self._base_store, edge_ops)
        )
        session.points = points
        session.graph = self._base_graph
        session.materialized = None
        session._ref_points = None
        session._ref_view = None
        session._ref_materialized = None
        if any(op.kind == "insert-edge" for op in edge_ops):
            session.oracle = None
        session._rebuild_views()
        session.delta_epoch = epoch
        session._time_travel = True
        return session

    # -- vectorized batch kernel --------------------------------------------

    #: Query kinds the vectorized batch kernel serves (engine dispatch).
    batch_kinds = ("rknn", "continuous")

    def batch_rknn(self, specs) -> tuple[RnnResult, ...]:
        """Answer a batch of RkNN specs in one vectorized CSR pass.

        All candidate expansions run together as a bucketed
        multi-source Dijkstra over numpy views of the CSR arrays (see
        :mod:`repro.compact.batch`) -- forward over the out-arcs on a
        directed database, where membership compares ``d(p -> q)``
        against the point's k-th nearest competitor -- with the
        attached landmark oracle, when profitable, filtering whole
        candidate rows up front.  Answers are bitwise identical to
        looping the scalar queries over the specs; each spec is
        validated exactly as its scalar counterpart would validate it.

        Parameters
        ----------
        specs:
            :class:`~repro.engine.spec.QuerySpec` values of the kinds
            in :attr:`batch_kinds`.  Methods are accepted for surface
            parity but do not change the vectorized plan (every method
            answers identically).

        Returns
        -------
        tuple[RnnResult, ...]
            One result per spec, in order, each carrying its share of
            the batch's charged cost (zero I/O; the per-query counters
            sum to the batch total).  Without numpy -- or while edge
            deltas are pending -- the batch falls back to the scalar
            per-spec loop, answers unchanged.
        """
        specs = list(specs)
        requests = []
        for spec in specs:
            if spec.kind not in self.batch_kinds:
                raise QueryError(
                    f"batch_rknn serves kinds {self.batch_kinds}, "
                    f"got {spec.kind!r}"
                )
            if spec.kind == "continuous":
                self._check_route(spec.route, spec.k, spec.method)
                sources = tuple(spec.route)
            else:
                self._check_query(spec.query, spec.k, spec.method)
                sources = (spec.query,)
            if spec.method == "eager-m" and spec.k > self._require_mat().capacity:
                raise QueryError(
                    f"k={spec.k} exceeds the materialized capacity "
                    f"K={self.materialized.capacity}"
                )
            requests.append(BatchRequest(sources, spec.k, frozenset(spec.exclude)))
        if not specs:
            return ()
        # Pending *edge* deltas hide the store's raw CSR arrays, so the
        # batch falls back to the scalar loop until compaction folds
        # the log; point deltas keep the kernel, since candidate
        # placements are passed explicitly.
        flat = self.storage.kernel_arrays()
        if flat is None or not numpy_available():
            return tuple(self._scalar_batch(specs))
        tracker = self.tracker
        before = tracker.snapshot()
        with tracker.time_block():
            answers, charges = batch_rknn_kernel(
                flat, self.store.num_nodes, sorted(self.points.items()),
                requests, oracle=self.oracle,
            )
            # charged inside the timed block, exactly where the scalar
            # path charges its work
            for charge in charges:
                tracker.merge(charge)
        # the measured CPU is apportioned evenly across the batch, so
        # per-query records stay comparable to scalar ones
        cpu_each = tracker.diff(before).cpu_seconds / len(requests)
        results = []
        for answer, charge in zip(answers, charges):
            charge.cpu_seconds = cpu_each
            results.append(
                RnnResult(tuple(answer), charge.io_operations, cpu_each, charge)
            )
        return tuple(results)

    def _scalar_batch(self, specs) -> list[RnnResult]:
        """Per-spec scalar loop: the numpy-free ``batch_rknn`` fallback."""
        results = []
        for spec in specs:
            route = spec.kind == "continuous"
            source = list(spec.route) if route else spec.query
            results.append(self._measured(
                RnnResult,
                lambda spec=spec, source=source, route=route: tuple(
                    self._run_rknn(source, spec.k, spec.method, spec.exclude,
                                   route=route)
                ),
            ))
        return results

    # -- overlay mutations ----------------------------------------------------

    def insert_edge(self, u: int, v: int, weight: float) -> UpdateResult:
        """Append an edge insertion to the delta overlay.

        The CSR base stays untouched: the new edge lives in the delta
        log, and the database's store becomes (or remains) the merged
        overlay view, so pinned readers -- ``read_clone()`` sessions
        and :meth:`at_epoch` snapshots -- keep answering over the
        state they captured.  Edge deltas suspend the fast paths built
        on the raw arrays: the vectorized batch kernel falls back to
        the scalar loop, materialized K-NN lists are dropped (their
        distances are stale), and an attached landmark oracle is
        detached (an insertion can shrink distances below the base's
        lower bounds).  :meth:`compact` folds the log into a fresh
        base and restores them all.

        Parameters
        ----------
        u / v:
            Distinct endpoint node ids.
        weight:
            Positive traversal cost.

        Returns
        -------
        UpdateResult
            ``affected`` is the number of pending delta operations
            after the append (pre-compaction).
        """
        self._require_writable()

        def run() -> int:
            if not (0 <= u < self.graph.num_nodes
                    and 0 <= v < self.graph.num_nodes):
                raise QueryError(f"edge ({u}, {v}) references an unknown node")
            if u == v:
                raise QueryError(f"self-loop on node {u} is not allowed")
            if weight <= 0:
                raise QueryError(
                    f"edge ({u}, {v}) has non-positive weight {weight}"
                )
            if edge_key(u, v) in self._edge_weights():
                raise QueryError(f"edge ({u}, {v}) already exists")
            self._edge_weights()[edge_key(u, v)] = float(weight)
            self.materialized = None
            self._ref_materialized = None
            self.oracle = None
            return self.overlay.epoch + 1

        result = self._measured(UpdateResult, run)
        self._log_update("insert-edge", u=u, v=v, weight=float(weight))
        return result

    def delete_edge(self, u: int, v: int) -> UpdateResult:
        """Append an edge deletion to the delta overlay.

        Like :meth:`insert_edge`, the base arrays stay immutable and
        the deletion is replayed by the merged view; materialized
        lists are dropped and the batch kernel falls back to scalar
        until :meth:`compact`.  An attached landmark oracle is *kept*
        but degraded to lower bounds only
        (:class:`~repro.oracle.bounds.LowerOnlyBounds`): deleting an
        edge can only grow distances, so the base's lower bounds
        remain admissible, while its upper bounds -- witness paths
        that may have used the deleted edge -- do not.

        Parameters
        ----------
        u / v:
            Endpoints of a currently live edge.

        Returns
        -------
        UpdateResult
            ``affected`` is the number of pending delta operations
            after the append (pre-compaction).
        """
        self._require_writable()

        def run() -> int:
            if edge_key(u, v) not in self._edge_weights():
                raise QueryError(f"no edge between {u} and {v}")
            del self._edge_weights()[edge_key(u, v)]
            self.materialized = None
            self._ref_materialized = None
            if self.oracle is not None and not isinstance(
                    self.oracle, LowerOnlyBounds):
                self.oracle = LowerOnlyBounds(self.oracle)
            return self.overlay.epoch + 1

        result = self._measured(UpdateResult, run)
        self._log_update("delete-edge", u=u, v=v)
        return result

    def compact(self) -> UpdateResult:
        """Fold the delta log into a fresh immutable base generation.

        With pending edge operations the network is rebuilt -- the
        merged edge sequence (base order minus deletions, plus
        insertions in append order) becomes a new
        :class:`~repro.graph.graph.Graph` and a new CSR store, with
        adjacency order identical to the overlay view, so answers do
        not change by a single bit.  With a point-only log the arrays
        are reused as they are.  Either way the current point set
        becomes the new base, :attr:`base_generation` is bumped, the
        epoch resets to 0 and the vectorized batch kernel / oracle
        builds are available again.  The update :attr:`generation` is
        *not* bumped: compaction changes no observable state.  With an
        empty log this is a no-op (nothing folded, no bump), so forced
        compactions are idempotent.

        Returns
        -------
        UpdateResult
            ``affected`` is the number of delta operations folded.
        """
        self._require_writable()

        def run() -> int:
            folded = self.overlay.epoch
            if folded == 0:
                return 0
            if self.overlay.edge_op_count:
                graph = Graph(
                    self._base_graph.num_nodes,
                    self._merged_edges(),
                    coords=self._base_graph.coords,
                )
                self.graph = graph
                self._base_graph = graph
                self._base_store = CompactGraphStore(graph, order=bfs_order(graph))
            self.storage.adjacency = self._base_store
            self.overlay = DeltaOverlay(self.points)
            self.base_generation += 1
            self.delta_epoch = 0
            self._live_weights = None
            self._rebuild_views()
            return folded

        return self._measured(UpdateResult, run)

    def _merged_edges(self) -> list[tuple[int, int, float]]:
        """The head edge sequence: base order with the log replayed.

        A deletion removes its edge; a (re)insertion appends at the
        end -- exactly the order :class:`OverlayGraphStore` replays
        per node, so the rebuilt adjacency matches the overlay view.
        """
        merged = {
            edge_key(u, v): (u, v, w) for u, v, w in self._base_graph.edges()
        }
        for op in self.overlay.edge_ops_at(self.overlay.epoch):
            key = edge_key(op.u, op.v)
            if op.kind == "insert-edge":
                merged[key] = (op.u, op.v, float(op.weight))
            else:
                del merged[key]
        return list(merged.values())

    def _edge_weights(self) -> dict[tuple[int, int], float]:
        """The live (head) edge table, built lazily on first edge mutation."""
        if self._live_weights is None:
            self._live_weights = {
                edge_key(u, v): w for u, v, w in self._merged_edges()
            }
        return self._live_weights

    def _log_update(self, kind: str, **fields) -> None:
        """Append a validated mutation: bump the epoch, rebind views,
        auto-compact past the threshold.  Never drains readers --
        pinned sessions keep their captured store/point references."""
        op = DeltaOp(kind, **fields)
        self.delta_epoch = self.overlay.append(op)
        if op.is_edge_op:
            self.storage.adjacency = OverlayGraphStore(
                self._base_store, self.overlay.edge_ops_at(self.delta_epoch)
            )
        self._rebuild_views()
        self.generation += 1
        if self.needs_compaction:
            self.compact()

    def _reference_swapped(self) -> None:
        # Swapping Q replaces an immutable input outside the delta log,
        # so it moves the *base* half of the snapshot stamp -- cached
        # bichromatic answers keyed on the old stamp become unreachable.
        self.generation += 1
        self.base_generation += 1

    def _require_writable(self) -> None:
        if self._time_travel:
            raise QueryError("time-travel sessions are read-only")

    def _require_base_network(self, what: str) -> None:
        if self.overlay.edge_op_count:
            raise QueryError(
                f"{what}() needs the CSR base: {self.overlay.edge_op_count} "
                "edge delta(s) pending -- compact() first"
            )


class CompactDirectedDatabase(DirectedDatabase):
    """Memory-resident CSR directed graph database answering RkNN queries.

    The directed queries over a
    :class:`~repro.compact.store.CompactDiGraphStore`: backward
    expansions and forward probes read the two CSR direction arrays,
    free of page I/O.

    Parameters
    ----------
    graph:
        The directed network, flattened once into CSR arrays.
    points:
        The data set P (``None`` creates an empty set).
    """

    def __init__(self, graph: DiGraph, points: NodePointSet | None = None):
        points = self._checked_points(graph, points, "compact")
        super().__init__(graph, points, CompactStore(CompactDiGraphStore(graph)))

    @classmethod
    def from_database(cls, db) -> "CompactDirectedDatabase":
        """Promote an existing disk-backed directed database.

        Parameters
        ----------
        db:
            A :class:`~repro.api_directed.DirectedGraphDatabase`; its
            two direction files are decoded once (uncharged) into the
            CSR arrays.

        Returns
        -------
        CompactDirectedDatabase
        """
        compact = cls.__new__(cls)
        DirectedDatabase.__init__(
            compact, db.graph, db.points,
            CompactStore(CompactDiGraphStore.from_disk(db.disk)),
        )
        return compact

    #: Query kinds the vectorized batch kernel serves (engine dispatch).
    batch_kinds = ("rknn",)

    batch_rknn = CompactDatabase.batch_rknn
    _scalar_batch = CompactDatabase._scalar_batch
