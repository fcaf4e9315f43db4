"""Sharded databases: the paper's queries over K storage shards.

:class:`ShardedDatabase` and :class:`ShardedDirectedDatabase` answer
the queries of :class:`~repro.database.Database` /
:class:`~repro.database.DirectedDatabase` over a :class:`ShardedStore`
wrapping a :class:`~repro.shard.store.ShardedGraphStore` (or
:class:`~repro.shard.store.ShardedDiGraphStore`).  The core views read
the stitched store directly, so results are **identical** to the
single-store database; what changes is the storage topology: every
adjacency read is served, buffered and charged by the shard owning
the node.  Materialized K-NN lists and landmark labels live on a side
file buffer charged to the global tracker.

Cost accounting follows the database convention: every query returns
the merged counter diff across the global tracker (CPU, heap traffic,
probes) and all per-shard trackers (page I/O), and the merged I/O is
folded back into ``db.tracker`` so the existing aggregate accounting
keeps working.  The per-shard decomposition stays available through
:meth:`ShardedDatabase.shard_counters`.
"""

from __future__ import annotations

from repro.database import (
    DIRECTED_METHODS,
    METHODS,
    Database,
    DirectedDatabase,
    Store,
)
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.points.points import NodePointSet
from repro.shard.store import (
    DEFAULT_BUFFER_PAGES,
    ShardedDiGraphStore,
    ShardedGraphStore,
)
from repro.storage.buffer import BufferManager
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.stats import CostTracker

__all__ = [
    "DIRECTED_METHODS",
    "METHODS",
    "ShardedDatabase",
    "ShardedDirectedDatabase",
    "ShardedStore",
]


class ShardedStore(Store):
    """K shard stores plus a side-file buffer, measured shard by shard.

    Parameters
    ----------
    adjacency:
        A :class:`~repro.shard.store.ShardedGraphStore` or
        :class:`~repro.shard.store.ShardedDiGraphStore`: each shard
        pages its slice through a private buffer and tracker.
    page_size / buffer_pages:
        Side-file storage parameters (the shards carry their own).
    """

    backend = "sharded"

    def __init__(self, adjacency, *, page_size: int, buffer_pages: int):
        tracker = CostTracker()
        super().__init__(
            adjacency, tracker, BufferManager(buffer_pages, tracker),
            page_size=page_size, order=adjacency.global_order(),
        )

    def measure(self, func):
        """Run ``func``, returning its outcome and the merged counter diff.

        Snapshots the global tracker and every shard tracker, times the
        call on the global tracker, then merges the per-tracker diffs
        into one cost record.  The shard-side diffs are folded back
        into the global tracker so ``db.tracker`` stays the aggregate
        of all work, while the per-shard trackers keep the
        decomposition.
        """
        trackers = [self.tracker, *self.adjacency.trackers()]
        before = [tracker.snapshot() for tracker in trackers]
        with self.tracker.time_block():
            outcome = func()
        diffs = [
            tracker.diff(snapshot) for tracker, snapshot in zip(trackers, before)
        ]
        for shard_diff in diffs[1:]:
            self.tracker.merge(shard_diff)
        return outcome, CostTracker.merged(diffs)

    def folded(self, func):
        """Run ``func`` folding shard counter diffs into the global tracker."""
        trackers = self.adjacency.trackers()
        before = [tracker.snapshot() for tracker in trackers]
        outcome = func()
        for tracker, snapshot in zip(trackers, before):
            self.tracker.merge(tracker.diff(snapshot))
        return outcome

    def read_clone(self) -> "ShardedStore":
        """A session: every shard and the side file get cold private
        buffers and zeroed trackers."""
        clone = super().read_clone()
        clone.adjacency = self.adjacency.read_clone()
        return clone

    def reset(self) -> None:
        """Zero the global tracker and every per-shard tracker."""
        self.tracker.reset()
        self.adjacency.reset_trackers()

    def clear(self) -> None:
        """Drop every shard's buffered pages (cold-start the next query)."""
        self.adjacency.clear_buffers()


class ShardedDatabase(Database):
    """Sharded disk-based graph database answering (reverse) NN queries.

    Parameters
    ----------
    graph:
        The network.  It is cut into ``num_shards`` edge-disjoint
        partitions, each paged to its own simulated disk.
    points:
        The data set P as a :class:`~repro.points.points.NodePointSet`
        (the sharded backend serves restricted networks).  ``None``
        creates an empty set.
    num_shards:
        Shard count ``K``; ``K = 1`` degenerates to the single-store
        layout.
    page_size / buffer_pages:
        Storage parameters.  ``buffer_pages`` is the per-shard LRU
        budget (each shard models an independent storage host).
    node_order:
        Cut heuristic and per-shard packing order: ``"bfs"`` (default)
        or ``"hilbert"`` (requires coordinates).
    """

    def __init__(
        self,
        graph: Graph,
        points: NodePointSet | None = None,
        *,
        num_shards: int = 4,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        node_order: str = "bfs",
    ):
        points = self._checked_points(graph, points, "sharded")
        adjacency = ShardedGraphStore(
            graph,
            num_shards=num_shards,
            order=node_order,
            page_size=page_size,
            buffer_pages=buffer_pages,
            point_nodes=frozenset(node for _, node in points.items()),
        )
        super().__init__(graph, points, ShardedStore(
            adjacency, page_size=page_size, buffer_pages=buffer_pages
        ))

    # -- shard introspection ------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of storage shards ``K``."""
        return self.store.num_shards

    def shard_of(self, node: int) -> int:
        """Shard owning ``node`` (free index look-up)."""
        return self.store.shard_of(node)

    def shard_counters(self) -> list[CostTracker]:
        """Cumulative per-shard counter snapshots (I/O decomposition).

        Returns
        -------
        list of CostTracker
            One immutable snapshot per shard, in shard order.  Diff two
            calls around a workload to attribute its I/O to shards.
        """
        return self.store.shard_counters()

    def merge_session_shards(self, session) -> None:
        """Fold a worker session's per-shard counters into this database.

        Called by the batch engine after a parallel chunk completes, so
        the per-shard I/O decomposition of work done on
        :meth:`read_clone` sessions is preserved in the parent's shard
        trackers (the aggregate is merged into ``tracker`` separately,
        through the per-query cost records).

        Parameters
        ----------
        session:
            A clone produced by this database's ``read_clone``.
        """
        for mine, theirs in zip(self.store.trackers(), session.store.trackers()):
            mine.merge(theirs)


class ShardedDirectedDatabase(DirectedDatabase):
    """Sharded disk-based directed graph database answering RkNN queries.

    The directed queries over a
    :class:`~repro.shard.store.ShardedDiGraphStore`: backward
    expansions and forward probes both stitch across shard boundaries
    through the per-direction boundary tables.

    Parameters
    ----------
    graph:
        The directed network, cut on its weak (direction-blind) BFS
        order.
    points:
        The data set P (``None`` creates an empty set).
    num_shards / page_size / buffer_pages:
        As in :class:`ShardedDatabase`.
    """

    def __init__(
        self,
        graph: DiGraph,
        points: NodePointSet | None = None,
        *,
        num_shards: int = 4,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ):
        points = self._checked_points(graph, points, "sharded")
        adjacency = ShardedDiGraphStore(
            graph,
            num_shards=num_shards,
            page_size=page_size,
            buffer_pages=buffer_pages,
            point_nodes=frozenset(node for _, node in points.items()),
        )
        super().__init__(graph, points, ShardedStore(
            adjacency, page_size=page_size, buffer_pages=buffer_pages
        ))

    num_shards = ShardedDatabase.num_shards
    shard_of = ShardedDatabase.shard_of
    shard_counters = ShardedDatabase.shard_counters
    merge_session_shards = ShardedDatabase.merge_session_shards
