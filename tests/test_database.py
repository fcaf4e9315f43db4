"""The shared query layer: one validation and dispatch path for every backend.

The six public databases are thin constructors over
:class:`repro.database.Database`; these tests pin what that sharing
guarantees -- identical input validation on every constructor, the
queries the shared class answers on every undirected store, the
directed subclass rejecting what it does not support, and the compact
store's NumPy-free oracle labeling.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    CompactDatabase,
    CompactDirectedDatabase,
    DirectedGraphDatabase,
    GraphDatabase,
    NodePointSet,
    ShardedDatabase,
    ShardedDirectedDatabase,
)
from repro.errors import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from tests.conftest import build_random_graph

EDGES = [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 4.0), (3, 0, 3.0)]
POINTS = {7: 0, 8: 2}

CONSTRUCTORS = {
    "disk": lambda: GraphDatabase(Graph.from_edges(EDGES), NodePointSet(POINTS)),
    "sharded": lambda: ShardedDatabase(
        Graph.from_edges(EDGES), NodePointSet(POINTS), num_shards=2),
    "compact": lambda: CompactDatabase(
        Graph.from_edges(EDGES), NodePointSet(POINTS)),
    "disk-directed": lambda: DirectedGraphDatabase(
        DiGraph.from_arcs(EDGES), NodePointSet(POINTS)),
    "sharded-directed": lambda: ShardedDirectedDatabase(
        DiGraph.from_arcs(EDGES), NodePointSet(POINTS), num_shards=2),
    "compact-directed": lambda: CompactDirectedDatabase(
        DiGraph.from_arcs(EDGES), NodePointSet(POINTS)),
}


BAD_CALLS = {
    "knn-node-out-of-range": lambda db: db.knn(99),
    "range-node-out-of-range": lambda db: db.range_nn(99, 1, 5.0),
    "knn-k0": lambda db: db.knn(0, 0),
    "range-k-negative": lambda db: db.range_nn(0, -1, 5.0),
    "range-nan-radius": lambda db: db.range_nn(0, 1, float("nan")),
    "range-negative-radius": lambda db: db.range_nn(0, 1, -1.0),
    "rknn-k0": lambda db: db.rknn(0, 0),
}


@pytest.mark.parametrize("call", sorted(BAD_CALLS))
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_knn_and_range_validate_like_rknn(name, call):
    """knn / range_nn reject what rknn and QuerySpec reject, with a
    QueryError, instead of a StorageError or a silent empty answer."""
    db = CONSTRUCTORS[name]()
    with pytest.raises(QueryError):
        BAD_CALLS[call](db)
    assert db.knn(1, 1).neighbors
    assert db.range_nn(1, 2, 0.0).neighbors == ()


@pytest.fixture(scope="module")
def network():
    rng = random.Random(5)
    graph = build_random_graph(rng, 40, 25, int_weights=False)
    points = NodePointSet({pid: node for pid, node in
                           enumerate(rng.sample(range(40), 10))})
    return graph, points


UNDIRECTED = {
    "sharded": lambda graph, points: ShardedDatabase(graph, points, num_shards=3),
    "compact": lambda graph, points: CompactDatabase(graph, points),
}


@pytest.mark.parametrize("name", sorted(UNDIRECTED))
def test_in_route_knn_and_network_distance_match_disk(network, name):
    """The sharded and compact databases answer the in-route kNN and
    network-distance queries exactly as the disk database does."""
    graph, points = network
    disk = GraphDatabase(graph, points)
    other = UNDIRECTED[name](graph, points)
    route = [0]
    while len(route) < 6:
        route.append(graph.neighbors(route[-1])[0][0])
    for k in (1, 3):
        want, _ = disk.in_route_knn(route, k)
        got, cost = other.in_route_knn(route, k)
        assert got == want
        assert cost.neighbors == ()
    for u, v in ((0, 17), (3, 39), (12, 12)):
        assert other.network_distance(u, v) == disk.network_distance(u, v)


@pytest.mark.parametrize("name", sorted(n for n in CONSTRUCTORS if "directed" in n))
def test_directed_databases_reject_undirected_features(name):
    db = CONSTRUCTORS[name]()
    rejected = {
        "continuous_rknn": lambda: db.continuous_rknn([0, 1]),
        "bichromatic_rknn": lambda: db.bichromatic_rknn(0),
        "attach_reference": lambda: db.attach_reference(NodePointSet({1: 1})),
        "materialize_reference": lambda: db.materialize_reference(2),
        "in_route_knn": lambda: db.in_route_knn([0, 1]),
        "build_oracle": lambda: db.build_oracle(2),
        "open_oracle": lambda: db.open_oracle(None),
        "network_distance": lambda: db.network_distance(0, 1),
        "from_edges": lambda: type(db).from_edges(EDGES, NodePointSet(POINTS)),
    }
    for call in rejected.values():
        with pytest.raises(QueryError):
            call()


def test_compact_oracle_without_numpy_matches_disk(network, monkeypatch):
    """Without NumPy the compact store labels landmarks through the
    store Dijkstra over its CSR ``neighbors``: the same tables as the
    disk-built oracle."""
    graph, points = network
    disk = GraphDatabase(graph, points)
    disk.build_oracle(4, seed=3)
    monkeypatch.setattr("repro.compact.db.numpy_available", lambda: False)

    def vectorized(*args):
        raise AssertionError("the NumPy CSR kernel ran")

    monkeypatch.setattr("repro.compact.db.csr_landmark_distances", vectorized)
    compact = CompactDatabase(graph, points)
    report = compact.build_oracle(4, seed=3)
    assert report.landmarks == disk.oracle.landmarks
    assert report.io == 0 and report.pages == 0
    for node in range(graph.num_nodes):
        assert compact.oracle.label(node) == disk.oracle.label(node)
