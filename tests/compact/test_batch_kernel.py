"""Unit surface of the vectorized batch RkNN kernel.

The randomized differential layers live in ``tests/conformance`` and
``tests/compact/test_batch_kernel_properties.py``; this module pins
the deterministic surface: validation parity with the scalar facade,
the numpy-free scalar fallback, oracle-filtered batches, the engine's
dispatch rules, the zero-copy view plumbing (CSR ``flat()`` views,
oracle label matrix) the kernel rides on, a medium-scale parity case
whose rows settle over many bucket rounds, and the kernel's memory
bound (touched entries only, never a dense ``(P, |V|)`` table).
"""

import random
import tracemalloc

import pytest

from repro import (
    CompactDatabase,
    CompactDirectedDatabase,
    NodePointSet,
    QuerySpec,
)
from repro.compact.batch import numpy_available
from repro.datasets.grid import generate_grid
from repro.datasets.workload import place_node_points
from repro.engine.planner import kernel_batch_kinds
from repro.errors import QueryError
from repro.graph.digraph import DiGraph


@pytest.fixture(scope="module")
def undirected():
    graph = generate_grid(100, average_degree=4.0, seed=3)
    points = place_node_points(graph, 0.1, seed=4)
    return graph, points


@pytest.fixture(scope="module")
def directed():
    rng = random.Random(11)
    arcs = [(i, (i + 1) % 30, float(rng.randint(1, 9))) for i in range(30)]
    arcs += [(rng.randrange(30), rng.randrange(30), float(rng.randint(1, 9)))
             for _ in range(60)]
    arcs = list({(u, v): (u, v, w) for u, v, w in arcs if u != v}.values())
    graph = DiGraph.from_arcs(arcs, num_nodes=30)
    points = NodePointSet({pid: node for pid, node in
                           enumerate(rng.sample(range(30), 6))})
    return graph, points


@pytest.fixture(scope="module")
def medium():
    """A ~2,500-node grid with 250 points, and a mixed batch over it:
    k in {1, 2, 3}, eager and lazy, one exclude, one continuous route."""
    graph = generate_grid(2_500, average_degree=4.0, seed=21)
    points = place_node_points(graph, 0.1, seed=22)
    rng = random.Random(23)
    route = [rng.randrange(graph.num_nodes)]
    for _ in range(4):
        route.append(graph.neighbors(route[-1])[0][0])
    specs = [
        QuerySpec("rknn", query=rng.randrange(graph.num_nodes), k=k,
                  method=method)
        for k in (1, 2, 3) for method in ("eager", "lazy")
    ]
    specs.append(QuerySpec("rknn", query=rng.randrange(graph.num_nodes), k=2,
                           exclude=frozenset({sorted(points.ids())[0]})))
    specs.append(QuerySpec("continuous", route=tuple(route), k=2))
    return graph, points, specs


def _specs(queries, k=2, method="eager"):
    return [QuerySpec("rknn", query=q, k=k, method=method) for q in queries]


def _points_of(results):
    return [result.points for result in results]


def test_batch_matches_scalar_with_oracle(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    db.build_oracle(4, seed=0)
    specs = _specs((3, 17, 42, 66, 91)) + [
        QuerySpec("rknn", query=25, k=1, method="lazy",
                  exclude=frozenset({0})),
    ]
    scalar = [db.rknn(s.query, s.k, method=s.method, exclude=s.exclude).points
              for s in specs]
    assert _points_of(db.batch_rknn(specs)) == scalar


def test_batch_serves_continuous_specs(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    route = [0]
    for _ in range(3):
        route.append(graph.neighbors(route[-1])[0][0])
    specs = _specs((3, 17)) + [
        QuerySpec("continuous", route=tuple(route), k=1, method="eager"),
    ]
    expected = [
        db.rknn(3, 2).points,
        db.rknn(17, 2).points,
        db.continuous_rknn(route, 1).points,
    ]
    assert _points_of(db.batch_rknn(specs)) == expected


def test_empty_batch_returns_empty_tuple(undirected):
    graph, points = undirected
    assert CompactDatabase(graph, points).batch_rknn([]) == ()


def test_empty_point_set_yields_empty_answers(undirected):
    graph, _ = undirected
    db = CompactDatabase(graph, NodePointSet({}))
    results = db.batch_rknn(_specs((3, 17)))
    assert _points_of(results) == [(), ()]


def test_unsupported_kind_rejected(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    with pytest.raises(QueryError, match="serves kinds"):
        db.batch_rknn([QuerySpec("knn", query=3, k=1)])


def test_unknown_method_rejected(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    with pytest.raises(QueryError, match="unknown method"):
        db.batch_rknn([QuerySpec("rknn", query=3, k=1, method="bogus")])


def test_out_of_range_query_rejected(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    with pytest.raises(QueryError, match="out of range"):
        db.batch_rknn(_specs((3, 4000)))


def test_eager_m_requires_materialization(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    with pytest.raises(QueryError, match="materialize"):
        db.batch_rknn(_specs((3, 17), method="eager-m"))


def test_eager_m_capacity_enforced(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    db.materialize(2)
    with pytest.raises(QueryError, match="materialized capacity"):
        db.batch_rknn(_specs((3, 17), k=3, method="eager-m"))


def test_scalar_fallback_without_numpy(undirected, monkeypatch):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    specs = _specs((3, 17, 42))
    vectorized = _points_of(db.batch_rknn(specs))
    monkeypatch.setattr("repro.compact.db.numpy_available", lambda: False)
    fallback = db.batch_rknn(specs)
    assert _points_of(fallback) == vectorized
    assert all(result.io == 0 for result in fallback)


def test_directed_batch_matches_scalar(directed):
    graph, points = directed
    db = CompactDirectedDatabase(graph, points)
    db.materialize(2)
    specs = []
    for query in (0, 7, 19, 23):
        for method in ("eager", "eager-m", "naive"):
            specs.append(QuerySpec("rknn", query=query, k=2, method=method))
    scalar = [db.rknn(s.query, s.k, method=s.method).points for s in specs]
    assert _points_of(db.batch_rknn(specs)) == scalar


def test_directed_validation_and_fallback(directed, monkeypatch):
    graph, points = directed
    db = CompactDirectedDatabase(graph, points)
    with pytest.raises(QueryError, match="serves kinds"):
        db.batch_rknn([QuerySpec("knn", query=0, k=1)])
    db.materialize(1)
    with pytest.raises(QueryError, match="materialized capacity"):
        db.batch_rknn(_specs((0, 7), k=2, method="eager-m"))
    assert db.batch_rknn([]) == ()

    specs = _specs((0, 7, 19))
    vectorized = _points_of(db.batch_rknn(specs))
    monkeypatch.setattr("repro.compact.db.numpy_available", lambda: False)
    assert _points_of(db.batch_rknn(specs)) == vectorized


def test_engine_dispatch_rules(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    specs = _specs((3, 17, 42, 66))

    baseline = [db.rknn(s.query, s.k, method=s.method).points for s in specs]
    for batch_kernel in (True, False):
        engine = db.engine(batch_kernel=batch_kernel, cache_entries=0)
        outcome = engine.run_batch(specs)
        assert _points_of(outcome.results) == baseline

    # a single batchable spec takes the scalar path (no kernel overhead)
    solo = db.engine(cache_entries=0).run_batch(specs[:1])
    assert _points_of(solo.results) == baseline[:1]


def test_kernel_batch_kinds_advertisement(undirected):
    graph, points = undirected
    from repro import GraphDatabase

    compact = CompactDatabase(graph, points)
    assert kernel_batch_kinds(compact) == ("rknn", "continuous")
    assert kernel_batch_kinds(GraphDatabase(graph, points)) == ()

    directed_graph = DiGraph.from_arcs([(0, 1, 1.0), (1, 0, 2.0)],
                                       num_nodes=2)
    directed_db = CompactDirectedDatabase(directed_graph, NodePointSet({}))
    assert kernel_batch_kinds(directed_db) == ("rknn",)


def test_csr_flat_views_are_memoized(undirected, directed):
    graph, points = undirected
    csr = CompactDatabase(graph, points).store.csr
    assert csr.flat() is csr.flat()
    offsets, targets, weights = csr.flat()
    assert len(offsets) == graph.num_nodes + 1
    assert len(targets) == len(weights) == int(offsets[-1])

    dgraph, dpoints = directed
    dcsr = CompactDirectedDatabase(dgraph, dpoints).store.csr
    assert dcsr.out_flat() is dcsr.out_flat()
    assert dcsr.in_flat() is dcsr.in_flat()
    out_offsets, _, _ = dcsr.out_flat()
    in_offsets, _, _ = dcsr.in_flat()
    assert int(out_offsets[-1]) == int(in_offsets[-1]) == dgraph.num_arcs


def test_oracle_labels_matrix_view(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    db.build_oracle(4, seed=0)
    matrix = db.oracle.labels_matrix()
    assert matrix is db.oracle.labels_matrix()
    assert matrix.shape == (graph.num_nodes, db.oracle.num_landmarks)
    assert not matrix.flags.writeable
    assert tuple(matrix[5]) == db.oracle.label(5)


def test_numpy_reported_available():
    assert numpy_available()


#: Counter fields the kernel charges; each must conserve exactly.
COUNTED = ("nodes_visited", "edges_expanded", "heap_pushes", "heap_pops",
           "verifications", "oracle_prunes")


def _assert_parity_and_conservation(db, specs):
    scalar = _points_of(db._scalar_batch(specs))
    before = db.tracker.snapshot()
    results = db.batch_rknn(specs)
    diff = db.tracker.diff(before)
    assert _points_of(results) == scalar
    assert any(scalar), "degenerate batch: every answer is empty"
    for field in COUNTED:
        assert sum(getattr(r.counters, field) for r in results) == \
            getattr(diff, field), field
    assert diff.nodes_visited > 0 and all(r.io == 0 for r in results)


def test_medium_scale_parity_undirected(medium):
    graph, points, specs = medium
    _assert_parity_and_conservation(CompactDatabase(graph, points), specs)


def test_medium_scale_parity_directed(medium):
    graph, points, specs = medium
    # each grid edge becomes two arcs of different weights, so forward
    # and reverse distances disagree
    rng = random.Random(24)
    arcs = []
    for u in range(graph.num_nodes):
        for v, weight in graph.neighbors(u):
            arcs.append((u, v, weight * rng.choice((0.5, 1.0, 2.0))))
    digraph = DiGraph.from_arcs(arcs, num_nodes=graph.num_nodes)
    # the directed facade names the lazy method "naive"
    rknn_specs = [
        QuerySpec("rknn", query=spec.query, k=spec.k, exclude=spec.exclude,
                  method="eager" if spec.method == "eager" else "naive")
        for spec in specs if spec.kind == "rknn"
    ]
    _assert_parity_and_conservation(
        CompactDirectedDatabase(digraph, points), rknn_specs)


def test_kernel_memory_stays_below_dense_table(medium):
    """The kernel holds touched ``(row, node)`` entries only: its traced
    peak stays under ``P * |V|`` bytes, an eighth of one dense float64
    ``(P, |V|)`` distance table."""
    graph, points, specs = medium
    db = CompactDatabase(graph, points)
    expected = _points_of(db._scalar_batch(specs))
    tracemalloc.start()
    try:
        results = db.batch_rknn(specs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _points_of(results) == expected
    dense_eighth = len(points) * graph.num_nodes
    assert peak < dense_eighth, (
        f"batch kernel peaked at {peak} bytes, above P*|V| = {dense_eighth}"
    )
