"""The batch engine over a sharded backend: routing, pooling, caching."""

import random

import pytest

from repro import GraphDatabase, NodePointSet, QuerySpec, ShardedDatabase
from repro.engine.engine import _shard_chunks
from repro.engine.planner import home_shard, plan_batch
from tests.conftest import build_random_graph


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(99)
    graph = build_random_graph(rng, 120, 90)
    points = NodePointSet(
        {pid: node for pid, node in enumerate(rng.sample(range(120), 24))}
    )
    specs = []
    for query in rng.sample(range(120), 24):
        specs.append(QuerySpec("rknn", query=query, k=rng.choice([1, 2]),
                               method=rng.choice(["eager", "lazy"])))
        specs.append(QuerySpec("knn", query=query, k=2))
        specs.append(QuerySpec("range", query=query, k=2, radius=7.0))
    return graph, points, specs


@pytest.fixture
def sharded(setup):
    graph, points, _ = setup
    return ShardedDatabase(graph, points, num_shards=4)


def _answers(results):
    return [
        tuple(getattr(r, "points", ()) or getattr(r, "neighbors", ()))
        for r in results
    ]


class TestShardedBatches:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_batch_matches_unsharded_sequential(self, setup, sharded, workers):
        graph, points, specs = setup
        single = GraphDatabase(graph, points)
        sequential = [single.rknn(s.query, s.k, method=s.method)
                      if s.kind == "rknn"
                      else single.knn(s.query, s.k) if s.kind == "knn"
                      else single.range_nn(s.query, s.k, s.radius)
                      for s in specs]
        outcome = sharded.engine(cache_entries=0).run_batch(specs, workers=workers)
        assert _answers(outcome.results) == _answers(sequential)

    def test_warm_cache_serves_everything(self, setup, sharded):
        _, _, specs = setup
        engine = sharded.engine(cache_entries=1024)
        engine.run_batch(specs, workers=4)
        again = engine.run_batch(specs, workers=4)
        assert again.misses == 0 and again.io == 0

    def test_updates_invalidate_cache(self, setup, sharded):
        _, _, specs = setup
        engine = sharded.engine(cache_entries=1024)
        engine.run_batch(specs)
        sharded.insert_point(999, 0)
        assert engine.run_batch(specs).misses > 0
        sharded.delete_point(999)

    def test_worker_pool_preserves_shard_counters(self, setup):
        graph, points, specs = setup
        db = ShardedDatabase(graph, points, num_shards=4)
        outcome = db.engine(cache_entries=0).run_batch(specs, workers=4)
        shard_reads = sum(t.page_reads for t in db.shard_counters())
        shard_hits = sum(t.buffer_hits for t in db.shard_counters())
        # the parallel batch's shard-level I/O decomposition survives
        # the read_clone sessions (merged back by the engine)
        assert shard_reads >= 1
        assert shard_reads + shard_hits >= outcome.counters.logical_reads > 0


class TestShardRouting:
    def test_home_shard_routes_by_owner(self, sharded):
        for node in (0, 7, 63, 119):
            assert home_shard(sharded, node) == sharded.shard_of(node)
        # out-of-range locations rank 0 (validation happens later)
        assert home_shard(sharded, 10_000) == 0

    def test_home_shard_is_zero_for_unsharded(self, setup):
        graph, points, _ = setup
        db = GraphDatabase(graph, points)
        assert home_shard(db, 5) == 0

    def test_chunks_never_split_a_shard(self, setup, sharded):
        _, _, specs = setup
        pending = list(enumerate(specs))
        for workers in (2, 3, 4, 8):
            chunks = _shard_chunks(sharded, pending, workers)
            assert sum(len(c) for c in chunks) == len(pending)
            shard_sets = [
                {sharded.shard_of(spec.query) for _, spec in chunk}
                for chunk in chunks
            ]
            for i, left in enumerate(shard_sets):
                for right in shard_sets[i + 1:]:
                    assert left.isdisjoint(right)

    def test_plan_orders_shard_major(self, setup, sharded):
        _, _, specs = setup
        knn_specs = [s for s in specs if s.kind == "knn"]
        plan = plan_batch(sharded, knn_specs)
        shards_in_order = [
            sharded.shard_of(plan.specs[i].query) for i in plan.order
        ]
        # within the single (kind, method, k) group the shard ids are
        # non-decreasing: the planner groups by home shard
        assert shards_in_order == sorted(shards_in_order)
