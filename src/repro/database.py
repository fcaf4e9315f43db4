"""One query layer over a storage protocol: :class:`Database`.

The paper's query processing -- eager / lazy / eager-M / lazy-EP RkNN,
the Section 5 variants (continuous, bichromatic, unrestricted
networks), kNN and range-NN, K-NN materialization with update
maintenance, and the landmark distance oracle -- is written once here,
over a :class:`Store`.  A store supplies only what really differs
between the storage backends:

* the adjacency object the core views read (a paged
  :class:`~repro.storage.disk.DiskGraph`, a stitched
  :class:`~repro.shard.store.ShardedGraphStore`, a CSR
  :class:`~repro.compact.store.CompactGraphStore`, or their directed
  counterparts);
* cost measurement: one tracker, or per-shard diffs folded into the
  global tracker;
* the side files (K-NN lists, edge points, landmark labels): paged
  through a buffer, or held in memory;
* the landmark labeling kernel;
* what a read-only session copies (:meth:`Store.read_clone`).

The public databases -- :class:`~repro.api.GraphDatabase`,
:class:`~repro.shard.db.ShardedDatabase`,
:class:`~repro.compact.db.CompactDatabase` and their directed
counterparts -- are thin constructors that build a store and hand it
to :class:`Database` or :class:`DirectedDatabase`.  Every query method
returns a result carrying the exact counter diff of that call, which
is what the benchmark harness aggregates into the paper's tables and
figures.
"""

from __future__ import annotations

import copy
import math
from typing import AbstractSet, Iterable, Sequence

from repro.core import baseline, unrestricted
from repro.core.bichromatic import (
    bichromatic_eager,
    bichromatic_eager_m,
    bichromatic_lazy,
)
from repro.core.continuous import validate_route
from repro.core.directed import (
    DirectedView,
    directed_all_nn,
    directed_delete,
    directed_insert,
    directed_range_nn,
    directed_rknn,
)
from repro.core.eager import eager_rknn, eager_rknn_route
from repro.core.eager_m import eager_m_rknn, eager_m_rknn_route
from repro.core.in_route import RouteStop, in_route_knn
from repro.core.lazy import lazy_rknn, lazy_rknn_route
from repro.core.lazy_ep import lazy_ep_rknn, lazy_ep_rknn_route
from repro.core.materialize import MaterializedKNN, Seed, all_nn
from repro.core.network import NetworkView
from repro.core.nn import range_nn as restricted_range_nn
from repro.core.result import KnnResult, OracleResult, RnnResult, UpdateResult
from repro.errors import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.graph.partition import bfs_order, hilbert_order
from repro.oracle import (
    DEFAULT_LANDMARKS,
    DistanceOracle,
    LandmarkStore,
    resolve_oracle_source,
    select_landmarks,
    store_landmark_distances,
)
from repro.points.points import EdgePointSet, NodePointSet, PointSet
from repro.storage.buffer import BufferManager
from repro.storage.disk import EdgePointStore, KnnListStore
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.stats import CostTracker

_EMPTY: frozenset[int] = frozenset()

#: RkNN methods of undirected networks.
METHODS = ("eager", "lazy", "eager-m", "lazy-ep")

#: RkNN methods of directed networks.
DIRECTED_METHODS = ("eager", "eager-m", "naive")

Location = unrestricted.Location

#: Restricted RkNN runners per method: ``(point query, route query)``.
_RKNN = {
    "eager": (eager_rknn, eager_rknn_route),
    "lazy": (lazy_rknn, lazy_rknn_route),
    "lazy-ep": (lazy_ep_rknn, lazy_ep_rknn_route),
    "eager-m": (eager_m_rknn, eager_m_rknn_route),
}

#: Unrestricted RkNN runners per method (routes pass ``route=``).
_UNRESTRICTED_RKNN = {
    "eager": unrestricted.unrestricted_eager,
    "lazy": unrestricted.unrestricted_lazy,
    "lazy-ep": unrestricted.unrestricted_lazy_ep,
    "eager-m": unrestricted.unrestricted_eager_m,
}


def packing_order(graph: Graph, node_order: str) -> list[int]:
    """The node packing order named by a ``node_order`` argument.

    Parameters
    ----------
    graph:
        The undirected network.
    node_order:
        ``"bfs"`` (topological) or ``"hilbert"`` (spatial; requires
        coordinates).

    Returns
    -------
    list of int
        Every node once, in packing order.
    """
    if node_order == "bfs":
        return bfs_order(graph)
    if node_order == "hilbert":
        return hilbert_order(graph)
    raise QueryError(f"unknown node_order {node_order!r}")


class Store:
    """The storage protocol behind :class:`Database`.

    The base class is a paged store measured on one tracker; each
    backend subclass overrides what its storage changes.

    Parameters
    ----------
    adjacency:
        What the core views read: ``num_nodes``, ``neighbors`` (or
        ``out_neighbors`` / ``in_neighbors`` when directed), and
        ``page_of`` for the batch planner.
    tracker:
        The global cost tracker every call is measured on.
    buffer:
        The buffer paged side files (K-NN lists, edge points, landmark
        labels) are read through; ``None`` for memory-resident stores.
    page_size / order:
        Page size and packing order of the side files.
    """

    #: Engine-visible backend tag (see :func:`repro.engine.planner.backend_of`).
    backend = "disk"

    #: Whether landmark labels persist as a paged
    #: :class:`~repro.oracle.store.LandmarkStore`.
    persists_labels = True

    def __init__(
        self,
        adjacency,
        tracker: CostTracker,
        buffer: BufferManager | None = None,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        order: Sequence[int] | None = None,
    ):
        self.adjacency = adjacency
        self.tracker = tracker
        self.buffer = buffer
        self.page_size = page_size
        self.order = order

    def measure(self, func):
        """Run ``func``; return its outcome and the counter diff of the call."""
        before = self.tracker.snapshot()
        with self.tracker.time_block():
            outcome = func()
        return outcome, self.tracker.diff(before)

    def folded(self, func):
        """Run work that yields no cost record (materialization, route
        checks), keeping ``tracker`` the aggregate of all work."""
        return func()

    def read_clone(self) -> "Store":
        """A session copy: shared pages, zeroed tracker, cold private buffer."""
        clone = copy.copy(self)
        clone.tracker = CostTracker()
        if self.buffer is not None:
            clone.buffer = BufferManager(self.buffer.capacity_pages, clone.tracker)
        return clone

    def rebind(self, paged):
        """A side file (K-NN lists, edge points) reading through this
        store's buffer; shared as-is by memory-resident stores."""
        if paged is None or self.buffer is None:
            return paged
        paged = copy.copy(paged)
        paged.buffer = self.buffer
        return paged

    def knn_store(self, num_nodes: int, capacity: int, lists):
        """Lay out materialized K-NN lists (paged :class:`KnnListStore`)."""
        return KnnListStore(
            num_nodes, capacity, lists, self.buffer,
            page_size=self.page_size, order=self.order,
        )

    def label_store(self, num_nodes: int, landmarks, tables) -> LandmarkStore:
        """Persist landmark distance tables as a paged label file."""
        return LandmarkStore(
            num_nodes, landmarks, tables, self.buffer,
            page_size=self.page_size, order=self.order,
        )

    def edge_point_store(self, graph: Graph, points: EdgePointSet) -> EdgePointStore:
        """Page out edge-resident points (unrestricted networks)."""
        return EdgePointStore(
            graph, points, self.buffer, page_size=self.page_size, order=self.order
        )

    def landmark_distances(self, num_nodes: int, source: int) -> list[float]:
        """One landmark's distance table, read through ``adjacency``."""
        return store_landmark_distances(self.adjacency, num_nodes, source)

    def reset(self) -> None:
        """Zero the counters."""
        self.tracker.reset()

    def clear(self) -> None:
        """Drop buffered pages (cold-start the next query)."""
        if self.buffer is not None:
            self.buffer.clear()


def _rebound(storage: Store, materialized: MaterializedKNN | None):
    if materialized is None:
        return None
    return MaterializedKNN(storage.rebind(materialized.store))


class Database:
    """A graph database answering (reverse) nearest-neighbor queries.

    Holds the network, the data set P, the views the core algorithms
    read, and the optional materialized K-NN lists, bichromatic
    reference set and landmark oracle; answers every query over its
    :class:`Store`.  Build one through a backend constructor
    (:class:`~repro.api.GraphDatabase`,
    :class:`~repro.shard.db.ShardedDatabase`,
    :class:`~repro.compact.db.CompactDatabase`).

    Parameters
    ----------
    graph:
        The network.
    points:
        The data set P, already checked (see :meth:`_checked_points`).
    storage:
        The backend store.
    """

    #: RkNN methods accepted by :meth:`rknn`.
    METHODS = METHODS

    #: Query features this class rejects with :class:`QueryError`.
    _UNSUPPORTED: frozenset[str] = frozenset()

    #: Subject of node-id errors (``None``: derived from the backend).
    _NODE_IDS: str | None = None

    def __init__(self, graph, points: PointSet, storage: Store):
        self.graph = graph
        self.points = points
        #: The backend :class:`Store`.
        self.storage = storage
        #: Materialized K-NN lists (see :meth:`materialize`).
        self.materialized: MaterializedKNN | None = None
        #: Landmark distance oracle (see :meth:`build_oracle`); attached
        #: to every view as its bound provider, so the expansion loops
        #: prune with it.
        self.oracle: DistanceOracle | None = None
        #: Persisted label file backing :attr:`oracle`, if any.
        self.oracle_store: LandmarkStore | None = None
        self._edge_store = (
            None if points.restricted
            else storage.edge_point_store(graph, points)
        )
        self._ref_points: PointSet | None = None
        self._ref_edge_store: EdgePointStore | None = None
        self._ref_view = None
        self._ref_materialized: MaterializedKNN | None = None
        #: Update generation: bumped by every point insertion/deletion.
        #: The query engine keys its result cache on this counter, so a
        #: bump invalidates every previously cached answer.
        self.generation = 0
        self._rebuild_views()

    @classmethod
    def _checked_points(cls, graph, points: PointSet | None, backend: str) -> PointSet:
        """The data set P validated for ``graph`` on a ``backend`` store."""
        directed = issubclass(cls, DirectedDatabase)
        if isinstance(graph, DiGraph) != directed:
            raise QueryError(
                f"{cls.__name__} takes "
                f"{'a directed DiGraph' if directed else 'an undirected graph'}"
            )
        if points is None:
            points = NodePointSet({})
        if not isinstance(points, NodePointSet) and backend != "disk":
            raise QueryError(
                f"the {backend} backend serves restricted networks "
                "(NodePointSet); edge-resident points are unsupported"
            )
        if directed or backend == "compact":
            # these databases report misplaced points as query errors
            for pid, node in points.items():
                if not 0 <= node < graph.num_nodes:
                    raise QueryError(f"point {pid} lies on unknown node {node}")
        points.validate(graph)
        return points

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, float]],
        points: PointSet | None = None,
        **kwargs,
    ):
        """Build a database straight from an edge list.

        Parameters
        ----------
        edges:
            ``(u, v, weight)`` triples.
        points:
            Optional data set.
        **kwargs:
            Forwarded to the constructor.
        """
        return cls(Graph.from_edges(edges), points, **kwargs)

    # -- properties ---------------------------------------------------------

    @property
    def backend(self) -> str:
        """Engine-visible backend tag of the store."""
        return self.storage.backend

    @property
    def tracker(self) -> CostTracker:
        """The global cost tracker (aggregate of all work)."""
        return self.storage.tracker

    @property
    def store(self):
        """The adjacency store the views read."""
        return self.storage.adjacency

    @property
    def disk(self):
        """The adjacency store, under the name the batch planner reads
        (``disk.page_of`` ranks queries by page)."""
        return self.storage.adjacency

    @property
    def buffer(self) -> BufferManager | None:
        """The buffer paged side files are read through (``None`` for
        memory-resident stores)."""
        return self.storage.buffer

    @property
    def page_size(self) -> int:
        """Page size of the paged files."""
        return self.storage.page_size

    @property
    def restricted(self) -> bool:
        """True when data points live on nodes (restricted network)."""
        return self.points.restricted

    @property
    def reference_points(self) -> PointSet | None:
        """The attached bichromatic reference set Q (``None`` before
        :meth:`attach_reference`)."""
        return self._ref_points

    # -- views ----------------------------------------------------------------

    def _make_view(self, points: PointSet, edge_store: EdgePointStore | None):
        return NetworkView(
            self.storage.adjacency, points, self.tracker, edge_store,
            bounds=self.oracle,
        )

    def _rebuild_views(self) -> None:
        self.view = self._make_view(self.points, self._edge_store)
        if self._ref_points is not None:
            self._ref_view = self._make_view(self._ref_points, self._ref_edge_store)

    # -- materialization -----------------------------------------------------

    def materialize(self, capacity: int) -> None:
        """Precompute the K-NN lists of every node (paper Section 4.1).

        Parameters
        ----------
        capacity:
            The paper's ``K``: the largest ``k`` any future ``eager-m``
            query may use (queries drawing from the data set and
            excluding their own point effectively need ``K >= k + 1``).
        """
        lists = self.storage.folded(
            lambda: self._all_nn(self.view, capacity, self.points)
        )
        self.materialized = MaterializedKNN(
            self.storage.knn_store(self.graph.num_nodes, capacity, lists)
        )

    def materialize_reference(self, capacity: int) -> None:
        """Materialize K-NN lists over the attached reference set Q.

        Parameters
        ----------
        capacity:
            List capacity ``K`` (required by bichromatic ``eager-m``).
        """
        self._require("bichromatic queries")
        if self._ref_view is None or self._ref_points is None:
            raise QueryError("attach_reference() before materialize_reference()")
        lists = self.storage.folded(
            lambda: self._all_nn(self._ref_view, capacity, self._ref_points)
        )
        self._ref_materialized = MaterializedKNN(
            self.storage.knn_store(self.graph.num_nodes, capacity, lists)
        )

    def _all_nn(self, view, capacity: int, points: PointSet):
        return all_nn(view, capacity, self._seeds(points))

    def _seeds(self, points: PointSet) -> list[Seed]:
        if isinstance(points, NodePointSet):
            return [(node, pid, 0.0) for pid, node in points.items()]
        seeds: list[Seed] = []
        for pid, (u, v, pos) in points.items():
            seeds.append((u, pid, pos))
            seeds.append((v, pid, self.graph.weight(u, v) - pos))
        return seeds

    # -- bichromatic reference set ------------------------------------------

    def attach_reference(self, reference: PointSet) -> None:
        """Attach the reference set Q for bichromatic queries.

        The database's own points act as P (the potential results); the
        reference points compete with the query for their attention.
        Swapping Q bumps the generation, so cached bichromatic answers
        invalidate.

        Parameters
        ----------
        reference:
            The reference set, in the network's point mode.
        """
        self._require("bichromatic queries")
        if not isinstance(reference, NodePointSet) and self.backend != "disk":
            raise QueryError(
                f"the {self.backend} backend takes node-resident references"
            )
        reference.validate(self.graph)
        if reference.restricted != self.restricted:
            raise QueryError("reference set must match the network's point mode")
        self._ref_points = reference
        self._ref_edge_store = (
            None if reference.restricted
            else self.storage.edge_point_store(self.graph, reference)
        )
        self._ref_materialized = None
        self._rebuild_views()
        self._reference_swapped()

    def _reference_swapped(self) -> None:
        self.generation += 1

    # -- landmark distance oracle -------------------------------------------

    def build_oracle(
        self,
        count: int = DEFAULT_LANDMARKS,
        *,
        seed: int = 0,
        strategy: str = "farthest",
    ) -> OracleResult:
        """Build and attach an ALT landmark distance oracle (charged).

        Selects ``count`` landmarks (farthest-point heuristic by
        default) and runs one single-source Dijkstra per landmark with
        the store's labeling kernel: charged reads through the buffer
        on the disk store, per-shard charged reads on a sharded store,
        a CSR-vectorized relaxation on the compact store.  Paged stores
        persist the label table as a
        :class:`~repro.oracle.store.LandmarkStore`.  The oracle
        attaches to every view: queries return bitwise identical
        answers while expanding fewer edges (see
        :mod:`repro.oracle.prune`).

        Parameters
        ----------
        count:
            Number of landmarks ``L`` (label storage is ``L`` doubles
            per node).
        seed:
            Seeds the first landmark pick.
        strategy:
            ``"farthest"`` (default) or ``"random"``.

        Returns
        -------
        OracleResult
            The selected landmarks plus the exact preprocessing cost.
        """
        self._require_oracle("build_oracle")
        num_nodes = self.graph.num_nodes

        def run():
            landmarks, tables = select_landmarks(
                lambda source: self.storage.landmark_distances(num_nodes, source),
                num_nodes,
                count,
                seed=seed,
                strategy=strategy,
            )
            store = (
                self.storage.label_store(num_nodes, landmarks, tables)
                if self.storage.persists_labels else None
            )
            return store, DistanceOracle(landmarks, tables)

        (store, oracle), diff = self.storage.measure(run)
        self.oracle_store = store
        self._attach_bounds(oracle)
        return OracleResult(
            oracle.landmarks, oracle.storage_entries,
            0 if store is None else store.num_pages,
            diff.io_operations, diff.cpu_seconds, diff,
        )

    def open_oracle(self, source) -> OracleResult:
        """Attach an oracle built elsewhere (store or oracle object).

        Parameters
        ----------
        source:
            A persisted :class:`~repro.oracle.store.LandmarkStore`
            (decoded uncharged) or a ready
            :class:`~repro.oracle.oracle.DistanceOracle` -- e.g. one
            built by another backend over the same graph.

        Returns
        -------
        OracleResult
            The attached landmarks (opening charges no I/O).
        """
        self._require_oracle("open_oracle")
        oracle, store, pages = resolve_oracle_source(source, self.graph.num_nodes)
        if not self.storage.persists_labels:
            store, pages = None, 0
        self.oracle_store = store
        self._attach_bounds(oracle)
        return OracleResult(oracle.landmarks, oracle.storage_entries, pages, 0, 0.0)

    def _require_oracle(self, what: str) -> None:
        self._require("distance oracles")
        self._require_base_network(what)
        if not self.restricted:
            raise QueryError(
                "the distance oracle serves restricted networks "
                "(node-resident points)"
            )

    def _require_base_network(self, what: str) -> None:
        """Stores with a delta overlay refuse whole-network
        preprocessing while edge deltas are pending."""

    def _attach_bounds(self, bounds) -> None:
        self.oracle = bounds
        self._rebuild_views()

    # -- serving --------------------------------------------------------------

    def engine(self, **kwargs) -> "QueryEngine":
        """A batch :class:`~repro.engine.engine.QueryEngine` over this database.

        Parameters
        ----------
        **kwargs:
            Forwarded to the engine constructor (``cache_entries``,
            ``calibrator``, ``batch_kernel``, ``tracer``,
            ``slow_log``).  Every batch is planned for locality, and
            the engine picks its worker strategy from the backend:
            home-shard routing on a sharded store, array-sharing
            sessions and the vectorized ``batch_rknn`` kernel on the
            compact store.

        Returns
        -------
        QueryEngine
        """
        from repro.engine.engine import QueryEngine

        return QueryEngine(self, **kwargs)

    def query(self, statement):
        """Answer a qlang statement (or spec) on this database.

        ``statement`` may be a qlang string (``"SELECT * FROM
        rknn(query=7, k=2)"``; ``;`` separates a script), a
        :class:`~repro.engine.spec.QuerySpec`, or a sequence of either.
        Answers run through a batch engine, so compiled plans share
        the planner, the result cache and (where the backend offers
        one) the vectorized batch kernel.  Singular queries return one
        result; scripts and sequences return a list.
        """
        from repro.qlang import execute

        return execute(self, statement)

    def read_clone(self):
        """A read-only session sharing this database's storage.

        The clone references the same serialized pages or flat arrays
        (and the same in-memory graph and point sets) but owns a
        private cost tracker -- and, on paged stores, private cold
        buffers -- so concurrent read-only queries on different clones
        never race on LRU state or counters.  On the compact store the
        clone is constant-time.  Clones are for *reading*: running
        updates through a clone is unsupported.
        """
        clone = copy.copy(self)
        clone.storage = storage = self.storage.read_clone()
        clone._edge_store = storage.rebind(self._edge_store)
        clone._ref_edge_store = storage.rebind(self._ref_edge_store)
        clone.materialized = _rebound(storage, self.materialized)
        clone._ref_materialized = _rebound(storage, self._ref_materialized)
        clone._rebuild_views()
        return clone

    # -- cost measurement -----------------------------------------------------

    def reset_stats(self) -> None:
        """Zero the counters (buffered pages are kept warm)."""
        self.storage.reset()

    def clear_buffer(self) -> None:
        """Drop every buffered page (cold-start the next query); a
        no-op on the memory-resident compact store."""
        self.storage.clear()

    def _measured(self, result_type, func):
        outcome, diff = self.storage.measure(func)
        return result_type(outcome, diff.io_operations, diff.cpu_seconds, diff)

    # -- RkNN -------------------------------------------------------------------

    def rknn(
        self,
        query: Location,
        k: int = 1,
        method: str = "eager",
        exclude: AbstractSet[int] = _EMPTY,
    ) -> RnnResult:
        """Reverse k-nearest-neighbor query (paper Sections 3-5).

        Parameters
        ----------
        query:
            A node id; unrestricted networks also take a canonical
            ``(u, v, pos)`` edge location.
        k:
            Neighborhood size (>= 1).
        method:
            One of :attr:`METHODS`; ``"eager-m"`` requires
            :meth:`materialize` first.
        exclude:
            Data point ids hidden for the query's duration (the
            paper's workloads draw queries from the data points and
            treat them as new arrivals).

        Returns
        -------
        RnnResult
            The reverse neighbors (sorted point ids) plus the exact
            counter diff of this call.
        """
        self._check_query(query, k, method)
        return self._measured(
            RnnResult, lambda: tuple(self._run_rknn(query, k, method, exclude))
        )

    def continuous_rknn(
        self,
        route: Sequence[int],
        k: int = 1,
        method: str = "eager",
        exclude: AbstractSet[int] = _EMPTY,
    ) -> RnnResult:
        """Continuous RkNN along a route of nodes (Section 5.1).

        Parameters
        ----------
        route:
            A walk: consecutive nodes must share an edge.
        k / method / exclude:
            As in :meth:`rknn`.

        Returns
        -------
        RnnResult
            The union of the route nodes' reverse neighbor sets.
        """
        self._require("continuous queries")
        self._check_route(route, k, method)
        return self._measured(
            RnnResult,
            lambda: tuple(self._run_rknn(list(route), k, method, exclude,
                                         route=True)),
        )

    def _run_rknn(self, source, k: int, method: str, exclude, route=False):
        mat = (self._require_mat(),) if method == "eager-m" else ()
        if not self.restricted:
            runner = _UNRESTRICTED_RKNN[method]
            if route:
                return runner(self.view, *mat, None, k, exclude, route=source)
            return runner(self.view, *mat, source, k, exclude)
        point, along = _RKNN[method]
        return (along if route else point)(self.view, *mat, source, k, exclude)

    def bichromatic_rknn(
        self,
        query: Location,
        k: int = 1,
        method: str = "eager",
        exclude: AbstractSet[int] = _EMPTY,
    ) -> RnnResult:
        """Bichromatic RkNN against the attached reference set (Section 5.1).

        Parameters
        ----------
        query:
            Query location (node id, or edge location when
            unrestricted).
        k:
            Neighborhood size among the *reference* points.
        method:
            ``"eager"``, ``"lazy"`` or ``"eager-m"`` on restricted
            networks (``eager-m`` needs :meth:`materialize_reference`);
            ``"eager"`` on unrestricted ones.
        exclude:
            Reference point ids hidden for the query's duration.

        Returns
        -------
        RnnResult
            Database points P that keep the query among their k
            nearest reference points.
        """
        self._require("bichromatic queries")
        if self._ref_view is None:
            raise QueryError("attach_reference() before bichromatic queries")
        self._check_query(query, k, method)
        return self._measured(
            RnnResult,
            lambda: tuple(self._run_bichromatic(query, k, method, exclude)),
        )

    def _run_bichromatic(self, query, k: int, method: str, exclude):
        view, ref_view = self.view, self._ref_view
        if not self.restricted:
            if method != "eager":
                raise QueryError(
                    "unrestricted bichromatic queries support method 'eager'"
                )
            return unrestricted.unrestricted_bichromatic_eager(
                view, ref_view, query, k, exclude
            )
        if method == "eager":
            return bichromatic_eager(view, ref_view, query, k, exclude)
        if method == "lazy":
            return bichromatic_lazy(view, ref_view, query, k, exclude)
        if method == "eager-m":
            if self._ref_materialized is None:
                raise QueryError("materialize_reference() before bichromatic eager-m")
            return bichromatic_eager_m(
                view, ref_view, self._ref_materialized, query, k, exclude
            )
        raise QueryError(
            "bichromatic queries support methods 'eager', 'lazy', 'eager-m'"
        )

    # -- plain NN queries ----------------------------------------------------------

    def knn(
        self,
        query: Location,
        k: int = 1,
        exclude: AbstractSet[int] = _EMPTY,
    ) -> KnnResult:
        """The k nearest data points of a location.

        Parameters
        ----------
        query:
            Query location (node id, or edge location when
            unrestricted); directed networks measure forward distances
            ``d(query -> x)``.
        k:
            Number of neighbors requested (>= 1).
        exclude:
            Data point ids hidden for the query's duration.

        Returns
        -------
        KnnResult
            ``(point id, network distance)`` pairs in ascending
            distance order, plus the cost record.
        """
        self._check_query(query, k)
        return self._measured(
            KnnResult, lambda: tuple(self._run_nn(query, k, None, exclude))
        )

    def range_nn(
        self,
        query: Location,
        k: int,
        radius: float,
        exclude: AbstractSet[int] = _EMPTY,
    ) -> KnnResult:
        """``range-NN(n, k, e)``: k nearest points strictly within ``radius``.

        Parameters
        ----------
        query:
            Query location (as in :meth:`knn`).
        k:
            Maximum number of points returned (>= 1).
        radius:
            Strict distance bound ``e``, finite and >= 0 (points at
            exactly ``radius`` are excluded).
        exclude:
            Data point ids hidden for the query's duration.

        Returns
        -------
        KnnResult
            Up to ``k`` points strictly inside the range, ascending.
        """
        self._check_query(query, k)
        if (not isinstance(radius, (int, float)) or not math.isfinite(radius)
                or radius < 0):
            raise QueryError(f"radius must be finite and >= 0, got {radius!r}")
        return self._measured(
            KnnResult, lambda: tuple(self._run_nn(query, k, radius, exclude))
        )

    def _run_nn(self, query, k: int, radius: float | None, exclude):
        """Up to ``k`` nearest points, strictly within ``radius``
        (``None``: unbounded, i.e. kNN)."""
        if self.restricted:
            bound = math.inf if radius is None else radius
            return restricted_range_nn(self.view, query, k, bound, exclude)
        if radius is None:
            return unrestricted.unrestricted_knn(self.view, query, k, exclude)
        return unrestricted.unrestricted_range_nn(
            self.view, query, k, radius, exclude
        )

    def in_route_knn(
        self,
        route: Sequence[int],
        k: int = 1,
        exclude: AbstractSet[int] = _EMPTY,
    ) -> tuple[list[RouteStop], KnnResult]:
        """The k nearest points of *every* node on a route ([16]).

        Unlike :meth:`continuous_rknn` (the union of reverse results),
        this is the forward in-route NN query: each route node gets its
        own kNN list.  Restricted networks only.  Returns the per-node
        lists plus an aggregate cost record.
        """
        self._require("in-route queries")
        if not self.restricted:
            raise QueryError("in-route queries require a restricted network")
        stops, diff = self.storage.measure(
            lambda: in_route_knn(self.view, route, k, exclude)
        )
        return stops, KnnResult((), diff.io_operations, diff.cpu_seconds, diff)

    def network_distance(self, loc1: Location, loc2: Location) -> float:
        """Exact network distance between two locations (uncharged;
        computed on the in-memory graph, intended for examples/tests)."""
        self._require("network distances")
        return baseline.location_distance(self.graph, loc1, loc2)

    # -- updates ---------------------------------------------------------------

    def insert_point(self, pid: int, location: Location) -> UpdateResult:
        """Add a data point, maintaining the materialized lists if any.

        Parameters
        ----------
        pid:
            New point id (must be unused).
        location:
            A node id on restricted (and directed) networks; an
            ``(u, v, pos)`` triplet on unrestricted ones.

        Returns
        -------
        UpdateResult
            The number of updated K-NN lists plus the cost record.
        """
        self._require_writable()

        def run() -> int:
            if self.restricted:
                if not isinstance(location, int):
                    raise self._node_ids_only("locations")
                self.points = self.points.with_point(pid, location)
                seeds = [(location, 0.0)]
            else:
                if isinstance(location, int):
                    raise QueryError("unrestricted networks take edge locations")
                u, v, pos = loc = unrestricted.normalize_location(location)
                self.points = self.points.with_point(pid, loc)
                self._edge_store.insert_point(pid, u, v, pos)
                seeds = [(u, pos), (v, self.graph.weight(u, v) - pos)]
            return self._maintain(True, pid, seeds)

        result = self._measured(UpdateResult, run)
        self._log_update("insert-point", pid=pid, node=location)
        return result

    def delete_point(self, pid: int) -> UpdateResult:
        """Remove a data point, maintaining the materialized lists if any.

        Parameters
        ----------
        pid:
            Id of the point to remove.

        Returns
        -------
        UpdateResult
            The number of repaired K-NN lists plus the cost record.
        """
        self._require_writable()

        def run() -> int:
            if self.restricted:
                seeds = [(self.points.node_of(pid), 0.0)]
                self.points = self.points.without_point(pid)
            else:
                u, v, pos = self.points.location(pid)
                seeds = [(u, pos), (v, self.graph.weight(u, v) - pos)]
                self.points = self.points.without_point(pid)
                self._edge_store.delete_point(pid, u, v)
            return self._maintain(False, pid, seeds)

        result = self._measured(UpdateResult, run)
        self._log_update("delete-point", pid=pid)
        return result

    def _maintain(self, insert: bool, pid: int, seeds) -> int:
        """Rebind the views to the updated points and repair the K-NN lists."""
        self._rebuild_views()
        if self.materialized is None:
            return 0
        if insert:
            return self.materialized.insert(self.view, pid, seeds)
        return self.materialized.delete(self.view, pid, seeds)

    def _require_writable(self) -> None:
        """Pinned read-only sessions refuse updates (see the compact
        backend's ``at_epoch``)."""

    def _log_update(self, kind: str, **fields) -> None:
        self.generation += 1

    # -- validation helpers -------------------------------------------------------

    def _require(self, feature: str) -> None:
        if feature in self._UNSUPPORTED:
            raise QueryError(f"{type(self).__name__} does not support {feature}")

    def _require_mat(self) -> MaterializedKNN:
        if self.materialized is None:
            raise QueryError("method 'eager-m' needs materialize() first")
        return self.materialized

    def _node_ids_only(self, what: str) -> QueryError:
        subject = self._NODE_IDS or (
            "restricted networks take" if self.backend == "disk"
            else f"the {self.backend} backend takes"
        )
        return QueryError(f"{subject} node-id {what}")

    def _check_query(self, query: Location, k: int, method: str | None = None) -> None:
        if method is not None and method not in self.METHODS:
            raise QueryError(
                f"unknown method {method!r}; choose one of {self.METHODS}"
            )
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        if isinstance(query, int):
            if not 0 <= query < self.graph.num_nodes:
                raise QueryError(f"query node {query} out of range")
        elif self.restricted:
            raise self._node_ids_only("queries")
        elif not math.isfinite(query[2]):
            raise QueryError(f"non-finite edge offset {query[2]}")

    def _check_route(self, route: Sequence[int], k: int, method: str) -> None:
        self.storage.folded(lambda: validate_route(self.view, route))
        self._check_query(route[0], k, method)


class DirectedDatabase(Database):
    """A :class:`Database` over a directed network (asymmetric distances).

    The directed extension of the paper (its Section 7 future-work
    item), e.g. road maps with one-way streets: monochromatic RkNN
    with ``eager`` / ``eager-m`` / ``naive``, forward kNN and
    range-NN, materialization with update maintenance.  A point ``p``
    is a reverse neighbor of ``q`` when ``d(p -> q) <= d(p -> p_k(p))``.
    Continuous, bichromatic and in-route queries and the landmark
    oracle are undirected-only and raise :class:`QueryError`.
    """

    METHODS = DIRECTED_METHODS

    _UNSUPPORTED = frozenset({
        "continuous queries", "bichromatic queries", "in-route queries",
        "distance oracles", "network distances",
    })

    _NODE_IDS = "directed networks take"

    @classmethod
    def from_arcs(
        cls,
        arcs: Iterable[tuple[int, int, float]],
        points: NodePointSet | None = None,
        **kwargs,
    ):
        """Build a directed database straight from an arc list.

        Parameters
        ----------
        arcs:
            ``(tail, head, weight)`` triples.
        points:
            Optional :class:`~repro.points.points.NodePointSet`.
        **kwargs:
            Forwarded to the constructor.
        """
        return cls(DiGraph.from_arcs(arcs), points, **kwargs)

    def _make_view(self, points, edge_store=None):
        return DirectedView(self.storage.adjacency, points, self.tracker)

    def _all_nn(self, view, capacity, points):
        return directed_all_nn(view, capacity)

    def _run_rknn(self, source, k, method, exclude, route=False):
        if method == "eager-m":
            self._require_mat()
        return directed_rknn(self.view, source, k, method, self.materialized, exclude)

    def _run_nn(self, query, k, radius, exclude):
        bound = math.inf if radius is None else radius
        return directed_range_nn(self.view, query, k, bound, exclude)

    def _maintain(self, insert, pid, seeds):
        self._rebuild_views()
        if self.materialized is None:
            return 0
        update = directed_insert if insert else directed_delete
        return update(self.view, self.materialized, pid, seeds[0][0])
