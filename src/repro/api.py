"""Public facade: :class:`GraphDatabase`.

A :class:`GraphDatabase` owns the full storage stack of the paper's
architecture -- disk-paged adjacency lists, the (optional) edge-point
file, the shared LRU buffer, optional materialized K-NN lists -- and
exposes the query algorithms behind a small, cost-accounted API::

    from repro import GraphDatabase, NodePointSet

    db = GraphDatabase.from_edges(edges, points=NodePointSet({0: 5, 1: 9}))
    result = db.rknn(query=7, k=2, method="eager")
    print(result.points, result.io, result.cpu_seconds)

Every query method returns a result object carrying the exact counter
diff for that call, which is what the benchmark harness aggregates into
the paper's tables and figures.  The queries themselves live in
:class:`~repro.database.Database`; this module supplies the paged
single-disk :class:`DiskStore` beneath them.
"""

from __future__ import annotations

import copy
from typing import Sequence

from repro.database import METHODS, Database, Location, Store, packing_order
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.points.points import NodePointSet, PointSet
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskGraph
from repro.storage.disk_directed import DiskDiGraph
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.stats import CostTracker

__all__ = ["DEFAULT_BUFFER_PAGES", "DiskStore", "GraphDatabase", "Location", "METHODS"]

#: Default LRU buffer of the paper's evaluation: 1 MB = 256 pages of 4 KB.
DEFAULT_BUFFER_PAGES = 256


class DiskStore(Store):
    """The paper's storage scheme: one paged adjacency file and buffer.

    Every adjacency, K-NN list, edge-point and label read is a logical
    read through one LRU buffer charged to one tracker.

    Parameters
    ----------
    graph:
        The network (a :class:`~repro.graph.digraph.DiGraph` pages out
        forward and backward files).
    points:
        The data set (sets the adjacency records' has-point flags).
    page_size / buffer_pages:
        Storage parameters.
    order:
        Page-packing order of every file.
    """

    def __init__(
        self,
        graph,
        points: PointSet,
        *,
        page_size: int,
        buffer_pages: int,
        order: Sequence[int],
    ):
        tracker = CostTracker()
        buffer = BufferManager(buffer_pages, tracker)
        point_nodes = (
            frozenset(node for _, node in points.items())
            if isinstance(points, NodePointSet) else frozenset()
        )
        file_type = DiskDiGraph if isinstance(graph, DiGraph) else DiskGraph
        adjacency = file_type(
            graph, buffer, page_size=page_size, order=order,
            point_nodes=point_nodes,
        )
        super().__init__(
            adjacency, tracker, buffer, page_size=page_size, order=order
        )

    def read_clone(self) -> "DiskStore":
        """A session sharing the page images with a private cold buffer."""
        clone = super().read_clone()
        clone.adjacency = copy.copy(self.adjacency)
        if isinstance(self.adjacency, DiskDiGraph):
            clone.adjacency._forward = clone.rebind(self.adjacency._forward)
            clone.adjacency._backward = clone.rebind(self.adjacency._backward)
        else:
            clone.adjacency.buffer = clone.buffer
        return clone


class GraphDatabase(Database):
    """Disk-based graph database answering (reverse) NN queries.

    Parameters
    ----------
    graph:
        The network.  It is paged out to the simulated disk at
        construction; queries only touch the disk representation.
    points:
        The data set P: a :class:`NodePointSet` (restricted network) or
        an :class:`~repro.points.points.EdgePointSet` (unrestricted
        network).  ``None`` creates an empty restricted network.
    page_size / buffer_pages:
        Storage parameters; defaults match the paper (4 KB pages,
        256-page LRU buffer).
    node_order:
        Page-packing order.  ``"bfs"`` (default) packs topologically,
        ``"hilbert"`` packs spatially (requires coordinates).
    """

    def __init__(
        self,
        graph: Graph,
        points: PointSet | None = None,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        node_order: str = "bfs",
    ):
        points = self._checked_points(graph, points, "disk")
        storage = DiskStore(
            graph, points, page_size=page_size, buffer_pages=buffer_pages,
            order=packing_order(graph, node_order),
        )
        super().__init__(graph, points, storage)
