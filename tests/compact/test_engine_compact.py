"""The batch engine over the compact backend: shared-array workers,
caching, planning and backend detection."""

import random

import pytest

from repro import (
    CompactDatabase,
    GraphDatabase,
    NodePointSet,
    QuerySpec,
    ShardedDatabase,
)
from repro.engine.planner import backend_of
from tests.conftest import build_random_graph


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(17)
    graph = build_random_graph(rng, 60, 45)
    points = NodePointSet(
        {pid: node for pid, node in enumerate(rng.sample(range(60), 12))}
    )
    specs = []
    for query in rng.sample(range(60), 10):
        specs.append(QuerySpec("rknn", query=query, k=2, method="eager"))
        specs.append(QuerySpec("knn", query=query, k=2))
        specs.append(QuerySpec("range", query=query, k=2, radius=5.0))
    return graph, points, specs


def test_backend_detection(setup):
    graph, points, _ = setup
    assert backend_of(GraphDatabase(graph, points)) == "disk"
    assert backend_of(ShardedDatabase(graph, points, num_shards=2)) == "sharded"
    assert backend_of(CompactDatabase(graph, points)) == "compact"
    assert backend_of(object()) == "disk"


def test_workers_match_sequential_and_disk_backend(setup):
    graph, points, specs = setup
    disk_results = GraphDatabase(graph, points).engine().run_batch(specs)
    compact = CompactDatabase(graph, points)

    def answers(outcome):
        return [
            result.points if hasattr(result, "points") else result.neighbors
            for result in outcome.results
        ]

    sequential = compact.engine(cache_entries=0).run_batch(specs)
    pooled = compact.engine(cache_entries=0).run_batch(specs, workers=4)
    assert answers(sequential) == answers(pooled) == answers(disk_results)
    assert pooled.io == 0  # compact workers never fault


def test_worker_counters_fold_into_parent(setup):
    graph, points, specs = setup
    compact = CompactDatabase(graph, points)
    engine = compact.engine(cache_entries=0)
    engine.run_batch(specs, workers=3)
    # the batch ran on shared-array sessions, yet the parent's global
    # accounting saw every expansion
    assert compact.tracker.nodes_visited > 0
    assert compact.tracker.page_reads == 0


def test_cache_and_generation(setup):
    graph, points, specs = setup
    compact = CompactDatabase(graph, points)
    engine = compact.engine()
    first = engine.run_batch(specs)
    again = engine.run_batch(specs)
    assert first.misses > 0
    assert again.misses == 0 and again.hits == len(specs)
    used = {node for _, node in points.items()}
    free = next(v for v in range(graph.num_nodes) if v not in used)
    compact.insert_point(900, free)
    assert engine.run_batch(specs).misses > 0  # generation invalidated


def test_planner_orders_by_locality_rank(setup):
    graph, points, specs = setup
    compact = CompactDatabase(graph, points)
    plan_on = compact.engine().run_batch(specs)
    assert sorted(plan_on.order) == list(range(len(specs)))
