"""Public facade for directed networks: :class:`DirectedGraphDatabase`.

The directed extension of the paper (its Section 7 future-work item):
reverse nearest neighbors on graphs with asymmetric distances, e.g.
road maps with one-way streets.  The queries are those of
:class:`~repro.database.DirectedDatabase` (monochromatic RkNN with
``eager`` / ``eager-m`` / ``naive``, forward kNN and range-NN,
materialization with update maintenance) over the paged
:class:`~repro.api.DiskStore`::

    from repro import DirectedGraphDatabase, NodePointSet

    db = DirectedGraphDatabase.from_arcs(
        [(0, 1, 2.0), (1, 0, 5.0), (1, 2, 1.0)],
        points=NodePointSet({10: 0, 11: 2}),
    )
    db.rknn(query=1, k=1)
"""

from __future__ import annotations

from repro.api import DEFAULT_BUFFER_PAGES, DiskStore
from repro.database import DIRECTED_METHODS as METHODS
from repro.database import DirectedDatabase
from repro.graph.digraph import DiGraph
from repro.points.points import NodePointSet
from repro.storage.disk_directed import weak_bfs_order
from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = ["DEFAULT_BUFFER_PAGES", "DirectedGraphDatabase", "METHODS"]


class DirectedGraphDatabase(DirectedDatabase):
    """Disk-based directed graph database answering RkNN queries.

    Parameters
    ----------
    graph:
        The directed network; its forward and backward adjacency files
        are paged out in weak-BFS order.
    points:
        The data set P (``None`` creates an empty set).
    page_size / buffer_pages:
        Storage parameters.
    """

    def __init__(
        self,
        graph: DiGraph,
        points: NodePointSet | None = None,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ):
        points = self._checked_points(graph, points, "disk")
        storage = DiskStore(
            graph, points, page_size=page_size, buffer_pages=buffer_pages,
            order=weak_bfs_order(graph),
        )
        super().__init__(graph, points, storage)
