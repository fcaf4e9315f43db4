"""QueryEngine: batch correctness, caching, concurrency, planning.

The engine's core contract: a batch returns results bitwise-identical
to a sequential loop over the facade, in the caller's order, for any
worker count -- the engine only reorders, deduplicates, and caches.
"""

import random

import pytest

from repro import GraphDatabase, NodePointSet, QuerySpec
from repro.analytics import CalibratingPlanner
from repro.datasets.workload import data_queries, place_edge_points
from repro.engine.planner import plan_batch
from repro.engine.spec import AUTO_METHOD
from repro.errors import QueryError
from tests.conftest import build_random_graph


def sequential_answers(db, specs):
    """The reference: one facade call per spec, no engine involved."""
    out = []
    for spec in specs:
        if spec.kind == "rknn":
            result = db.rknn(spec.query, spec.k, method=spec.method,
                             exclude=spec.exclude)
            out.append(result.points)
        elif spec.kind == "knn":
            out.append(db.knn(spec.query, spec.k, exclude=spec.exclude).neighbors)
        elif spec.kind == "range":
            out.append(db.range_nn(spec.query, spec.k, spec.radius,
                                   exclude=spec.exclude).neighbors)
        else:
            result = db.bichromatic_rknn(spec.query, spec.k, method=spec.method,
                                         exclude=spec.exclude)
            out.append(result.points)
    return out


def batch_answers(outcome):
    return [r.points if hasattr(r, "points") else r.neighbors
            for r in outcome.results]


@pytest.fixture
def db():
    rng = random.Random(7)
    graph = build_random_graph(rng, 60, 40)
    nodes = rng.sample(range(60), 12)
    database = GraphDatabase(graph, NodePointSet(
        {100 + i: node for i, node in enumerate(nodes)}
    ))
    database.materialize(4)
    return database


@pytest.fixture
def mixed_specs(db):
    rng = random.Random(13)
    specs = []
    for method in ("eager", "lazy", "lazy-ep", "eager-m"):
        for _ in range(4):
            specs.append(QuerySpec("rknn", rng.randrange(60), k=rng.randint(1, 2),
                                   method=method))
    for _ in range(6):
        specs.append(QuerySpec("knn", rng.randrange(60), k=3))
        specs.append(QuerySpec("range", rng.randrange(60), k=2, radius=6.0))
    return specs


class TestBatchEqualsSequential:
    def test_single_worker(self, db, mixed_specs):
        want = sequential_answers(db, mixed_specs)
        outcome = db.engine().run_batch(mixed_specs)
        assert batch_answers(outcome) == want
        assert len(outcome) == len(mixed_specs)

    def test_four_workers(self, db, mixed_specs):
        want = sequential_answers(db, mixed_specs)
        outcome = db.engine().run_batch(mixed_specs, workers=4)
        assert batch_answers(outcome) == want

    def test_uncached_batch(self, db, mixed_specs):
        want = sequential_answers(db, mixed_specs)
        outcome = db.engine(cache_entries=0).run_batch(mixed_specs, workers=2)
        assert batch_answers(outcome) == want

    def test_unrestricted_network(self):
        rng = random.Random(5)
        graph = build_random_graph(rng, 40, 25)
        db = GraphDatabase(graph, place_edge_points(graph, 0.2, seed=2))
        queries = data_queries(db.points, count=10, seed=3)
        specs = [QuerySpec("rknn", q.location, k=1, exclude=q.exclude)
                 for q in queries]
        want = sequential_answers(db, specs)
        assert batch_answers(db.engine().run_batch(specs, workers=3)) == want

    def test_bichromatic_specs(self, db):
        rng = random.Random(11)
        refs = NodePointSet({500 + i: node
                             for i, node in enumerate(rng.sample(range(60), 8))})
        db.attach_reference(refs)
        specs = [QuerySpec("bichromatic", rng.randrange(60), k=1, method=method)
                 for method in ("eager", "lazy") for _ in range(3)]
        want = sequential_answers(db, specs)
        assert batch_answers(db.engine().run_batch(specs, workers=2)) == want

    def test_invalid_workers(self, db):
        with pytest.raises(QueryError, match="workers"):
            db.engine().run_batch([QuerySpec("knn", 0)], workers=0)


class TestCache:
    def test_warm_hits_are_zero_io(self, db, mixed_specs):
        engine = db.engine()
        first = engine.run_batch(mixed_specs)
        warm = engine.run_batch(mixed_specs)
        assert warm.misses == 0
        assert warm.hits == len(mixed_specs)
        assert warm.io == 0
        assert all(r.io == 0 for r in warm.results)
        assert all(r.counters.io_operations == 0 for r in warm.results)
        assert batch_answers(warm) == batch_answers(first)

    def test_within_batch_duplicates_execute_once(self, db):
        spec = QuerySpec("rknn", 3, k=2)
        outcome = db.engine().run_batch([spec] * 5)
        assert outcome.executed == 1
        assert outcome.misses == 1 and outcome.hits == 4
        answers = batch_answers(outcome)
        assert all(a == answers[0] for a in answers)

    def test_single_run_uses_cache(self, db):
        engine = db.engine()
        spec = QuerySpec("knn", 7, k=2)
        first = engine.run(spec)
        second = engine.run(spec)
        assert second.neighbors == first.neighbors
        assert second.io == 0 and second.cpu_seconds == 0.0
        assert engine.cache_stats.hits == 1

    def test_insert_invalidates(self, db):
        engine = db.engine()
        spec = QuerySpec("rknn", 0, k=1)
        before = engine.run(spec)
        free_node = next(n for n in range(60) if db.points.point_at(n) is None)
        db.insert_point(999, free_node)
        after = engine.run(spec)  # re-executed, not served stale
        assert engine.cache_stats.hits == 0
        assert after.points == db.rknn(0, 1).points

    def test_delete_invalidates(self, db):
        engine = db.engine()
        victim = sorted(db.points.ids())[0]
        spec = QuerySpec("rknn", db.points.node_of(victim), k=1)
        stale = engine.run(spec)
        db.delete_point(victim)
        fresh = engine.run(spec)
        assert victim not in fresh.points
        assert engine.generation == db.generation

    def test_generation_counts_updates(self, db):
        g0 = db.generation
        free_node = next(n for n in range(60) if db.points.point_at(n) is None)
        db.insert_point(999, free_node)
        db.delete_point(999)
        assert db.generation == g0 + 2


class TestWorkers:
    def test_worker_counters_merge_into_db_tracker(self, db, mixed_specs):
        engine = db.engine(cache_entries=0)
        before = db.tracker.snapshot()
        outcome = engine.run_batch(mixed_specs, workers=4)
        diff = db.tracker.diff(before)
        # every page fault and node visit a worker session performed is
        # visible in the database's global accounting
        assert diff.page_reads == outcome.counters.page_reads
        assert diff.nodes_visited == outcome.counters.nodes_visited
        assert outcome.counters.nodes_visited > 0

    def test_batch_counters_sum_per_query_diffs(self, db, mixed_specs):
        outcome = db.engine().run_batch(mixed_specs, workers=1)
        assert outcome.counters.nodes_visited == sum(
            r.counters.nodes_visited for r in outcome.results
        )
        assert outcome.io == sum(r.io for r in outcome.results)

    def test_read_clone_is_independent(self, db):
        clone = db.read_clone()
        assert clone.tracker is not db.tracker
        assert clone.buffer is not db.buffer
        before = db.tracker.snapshot()
        result = clone.rknn(5, 2)
        assert result.points == db.rknn(5, 2).points
        # the clone's work never touched the parent's counters
        assert db.tracker.diff(before).nodes_visited == db.rknn(5, 2).counters.nodes_visited

    def test_more_workers_than_queries(self, db):
        specs = [QuerySpec("knn", 1), QuerySpec("knn", 2)]
        outcome = db.engine().run_batch(specs, workers=8)
        assert batch_answers(outcome) == sequential_answers(db, specs)


class TestPlanner:
    def test_plan_groups_same_pages_adjacently(self, db):
        specs = [QuerySpec("rknn", node, k=1) for node in range(0, 60, 3)]
        plan = plan_batch(db, specs)
        pages = [db.disk.page_of(plan.specs[i].query) for i in plan.order]
        # page ranks are non-decreasing within the single (kind, method, k) group
        assert pages == sorted(pages)
        assert sorted(plan.order) == list(range(len(specs)))

    def test_auto_method_needs_calibrator(self, db):
        with pytest.raises(QueryError, match="auto"):
            db.engine().run_batch([QuerySpec("rknn", 0, method=AUTO_METHOD)])

    def test_auto_method_resolved_by_calibrator(self, db):
        calibrator = CalibratingPlanner(db, samples=1)
        engine = db.engine(calibrator=calibrator)
        spec = QuerySpec("rknn", 0, k=1, method=AUTO_METHOD)
        outcome = engine.run_batch([spec])
        assert batch_answers(outcome) == [db.rknn(0, 1).points]
        assert calibrator.method_for(1) in ("eager", "lazy", "eager-m", "lazy-ep")

    def test_plan_explain_lists_every_query(self, db):
        specs = [QuerySpec("rknn", 1), QuerySpec("knn", 2)]
        text = plan_batch(db, specs).explain()
        assert "rknn" in text and "knn" in text
        assert len(text.splitlines()) == 3
