"""The compact facades: parity, sessions, updates, validation."""

import random

import pytest

from repro import (
    CompactDatabase,
    CompactDirectedDatabase,
    DirectedGraphDatabase,
    GraphDatabase,
    NodePointSet,
)
from repro.errors import QueryError
from repro.graph.digraph import DiGraph
from repro.points.points import EdgePointSet
from tests.conftest import build_random_graph


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(42)
    graph = build_random_graph(rng, 70, 55)
    points = NodePointSet(
        {pid: node for pid, node in enumerate(rng.sample(range(70), 14))}
    )
    reference = NodePointSet(
        {100 + i: node for i, node in enumerate(rng.sample(range(70), 9))}
    )
    queries = rng.sample(range(70), 10)
    return graph, points, reference, queries


@pytest.fixture(scope="module")
def compact(setup):
    graph, points, reference, _ = setup
    db = CompactDatabase(graph, points)
    db.attach_reference(reference)
    db.materialize(4)
    db.materialize_reference(4)
    return db


@pytest.fixture(scope="module")
def disk(setup):
    graph, points, reference, _ = setup
    db = GraphDatabase(graph, points)
    db.attach_reference(reference)
    db.materialize(4)
    db.materialize_reference(4)
    return db


class TestCompactParity:
    @pytest.mark.parametrize("method", ["eager", "lazy", "lazy-ep", "eager-m"])
    def test_rknn_matches_disk(self, setup, compact, disk, method):
        _, _, _, queries = setup
        for query in queries:
            for k in (1, 2, 3):
                assert (compact.rknn(query, k, method=method).points
                        == disk.rknn(query, k, method=method).points)

    @pytest.mark.parametrize("method", ["eager", "lazy", "eager-m"])
    def test_bichromatic_matches_disk(self, setup, compact, disk, method):
        _, _, _, queries = setup
        for query in queries:
            assert (compact.bichromatic_rknn(query, 2, method=method).points
                    == disk.bichromatic_rknn(query, 2, method=method).points)

    def test_knn_and_range_match_disk(self, setup, compact, disk):
        _, _, _, queries = setup
        for query in queries:
            assert compact.knn(query, 3).neighbors == disk.knn(query, 3).neighbors
            assert (compact.range_nn(query, 3, 6.0).neighbors
                    == disk.range_nn(query, 3, 6.0).neighbors)

    def test_continuous_matches_disk(self, setup, compact, disk):
        graph, _, _, queries = setup
        route = [queries[0]]
        while len(route) < 4:
            route.append(graph.neighbors(route[-1])[0][0])
        assert (compact.continuous_rknn(route, 2).points
                == disk.continuous_rknn(route, 2).points)

    def test_queries_perform_no_io(self, setup, compact):
        _, _, _, queries = setup
        result = compact.rknn(queries[0], 2)
        assert result.io == 0
        assert result.counters.page_reads == 0
        assert result.counters.buffer_hits == 0
        assert result.counters.nodes_visited > 0

    def test_from_database_promotes_disk_store(self, setup, disk):
        _, _, _, queries = setup
        promoted = CompactDatabase.from_database(disk)
        for query in queries[:4]:
            assert promoted.rknn(query, 2).points == disk.rknn(query, 2).points


class TestCompactSessions:
    def test_read_clone_shares_arrays(self, compact):
        clone = compact.read_clone()
        assert clone.store is compact.store
        assert clone.store.csr is compact.store.csr
        assert clone.tracker is not compact.tracker

    def test_clone_counters_are_private(self, setup, compact):
        _, _, _, queries = setup
        clone = compact.read_clone()
        before = compact.tracker.snapshot()
        result = clone.rknn(queries[0], 1)
        assert result.counters.nodes_visited > 0
        assert compact.tracker.nodes_visited == before.nodes_visited

    def test_clear_buffer_is_a_noop(self, setup, compact):
        _, _, _, queries = setup
        first = compact.rknn(queries[1], 1).points
        compact.clear_buffer()
        assert compact.rknn(queries[1], 1).points == first

    def test_backend_tag(self, compact):
        assert compact.backend == "compact"
        assert compact.engine().backend == "compact"


class TestCompactUpdates:
    def test_updates_track_disk_database(self, setup):
        graph, points, _, queries = setup
        compact = CompactDatabase(graph, points)
        disk = GraphDatabase(graph, points)
        compact.materialize(3)
        disk.materialize(3)
        used = {node for _, node in points.items()}
        free = next(v for v in range(graph.num_nodes) if v not in used)
        for db in (compact, disk):
            db.insert_point(500, free)
            db.delete_point(2)
        for query in queries[:5]:
            assert (compact.rknn(query, 2, method="eager-m").points
                    == disk.rknn(query, 2, method="eager-m").points)

    def test_updates_bump_generation(self, setup):
        graph, points, _, _ = setup
        db = CompactDatabase(graph, points)
        used = {node for _, node in points.items()}
        free = next(v for v in range(graph.num_nodes) if v not in used)
        generation = db.generation
        db.insert_point(700, free)
        assert db.generation == generation + 1
        db.delete_point(700)
        assert db.generation == generation + 2


class TestCompactValidation:
    def test_rejects_edge_points(self, setup):
        graph, _, _, _ = setup
        edge = next(graph.edges())
        points = EdgePointSet({0: (edge[0], edge[1], edge[2] / 2)})
        with pytest.raises(QueryError, match="restricted"):
            CompactDatabase(graph, points)

    def test_rejects_bad_queries(self, compact, setup):
        graph, _, _, _ = setup
        with pytest.raises(QueryError, match="unknown method"):
            compact.rknn(0, 1, method="nope")
        with pytest.raises(QueryError, match="k must be"):
            compact.rknn(0, 0)
        with pytest.raises(QueryError, match="out of range"):
            compact.rknn(graph.num_nodes, 1)
        with pytest.raises(QueryError, match="node-id"):
            compact.rknn((0, 1, 0.5), 1)

    def test_eager_m_needs_materialization(self, setup):
        graph, points, _, _ = setup
        db = CompactDatabase(graph, points)
        with pytest.raises(QueryError, match="materialize"):
            db.rknn(0, 1, method="eager-m")

    def test_bichromatic_needs_reference(self, setup):
        graph, points, _, _ = setup
        db = CompactDatabase(graph, points)
        with pytest.raises(QueryError, match="attach_reference"):
            db.bichromatic_rknn(0, 1)

    def test_bad_node_order_rejected(self, setup):
        graph, points, _, _ = setup
        with pytest.raises(QueryError, match="node_order"):
            CompactDatabase(graph, points, node_order="zigzag")


@pytest.fixture(scope="module")
def directed_setup():
    rng = random.Random(9)
    arcs, seen = [], set()
    for _ in range(260):
        u, v = rng.sample(range(45), 2)
        if (u, v) not in seen:
            seen.add((u, v))
            arcs.append((u, v, float(rng.randint(1, 9))))
    graph = DiGraph.from_arcs(arcs, num_nodes=45)
    points = NodePointSet(
        {pid: node for pid, node in enumerate(rng.sample(range(45), 9))}
    )
    queries = rng.sample(range(45), 8)
    return graph, points, queries


class TestCompactDirected:
    @pytest.mark.parametrize("method", ["eager", "eager-m", "naive"])
    def test_rknn_matches_disk(self, directed_setup, method):
        graph, points, queries = directed_setup
        disk = DirectedGraphDatabase(graph, points)
        compact = CompactDirectedDatabase(graph, points)
        disk.materialize(4)
        compact.materialize(4)
        for query in queries:
            assert (compact.rknn(query, 2, method=method).points
                    == disk.rknn(query, 2, method=method).points)

    def test_knn_range_and_updates_match_disk(self, directed_setup):
        graph, points, queries = directed_setup
        disk = DirectedGraphDatabase(graph, points)
        compact = CompactDirectedDatabase(graph, points)
        used = {node for _, node in points.items()}
        free = next(v for v in range(graph.num_nodes) if v not in used)
        for db in (disk, compact):
            db.insert_point(500, free)
            db.delete_point(1)
        for query in queries:
            assert compact.knn(query, 3).neighbors == disk.knn(query, 3).neighbors
            assert (compact.range_nn(query, 2, 7.0).neighbors
                    == disk.range_nn(query, 2, 7.0).neighbors)

    def test_sessions_and_io(self, directed_setup):
        graph, points, queries = directed_setup
        db = CompactDirectedDatabase(graph, points)
        assert db.backend == "compact"
        result = db.rknn(queries[0], 1)
        assert result.io == 0
        clone = db.read_clone()
        assert clone.store is db.store
        assert clone.rknn(queries[0], 1).points == result.points
        assert CompactDirectedDatabase.from_database(
            DirectedGraphDatabase(graph, points)
        ).rknn(queries[0], 1).points == result.points

    def test_validation(self, directed_setup):
        graph, points, _ = directed_setup
        db = CompactDirectedDatabase(graph, points)
        with pytest.raises(QueryError, match="unknown method"):
            db.rknn(0, 1, method="lazy")
        with pytest.raises(QueryError, match="materialize"):
            db.rknn(0, 1, method="eager-m")
        with pytest.raises(QueryError, match="out of range"):
            db.rknn(graph.num_nodes, 1)
        # knn is validated like every other query method
        with pytest.raises(QueryError, match="out of range"):
            db.knn(graph.num_nodes, 1)
