"""Multi-process fleet serving: conformance, mutations, fault injection.

The fleet must be indistinguishable from a single-process compact
server at the protocol level: identical answers, the same stamp
discipline (no response mixes base generations), read-your-writes
after mutations, and clean degradation -- not hangs, not mixed
generations -- when a worker process is killed mid-service.
"""

import errno
import os
import signal
import socket
import time

import pytest

from repro.compact import CompactDatabase
from repro.obs import parse_prometheus_text
from repro.points.points import NodePointSet
from repro.serve import ServeClient, fleet_in_thread, http_get, http_get_text
from repro.serve.fleet import FleetServer

from tests.serve.conftest import a_route, build_inputs, free_nodes


@pytest.fixture(scope="module")
def inputs():
    return build_inputs()


def build_compact(inputs):
    graph, placement = inputs
    return CompactDatabase(graph, NodePointSet(dict(placement)))


@pytest.fixture(scope="module")
def fleet(inputs):
    """One 2-worker fleet shared by the read-only tests."""
    db = build_compact(inputs)
    with fleet_in_thread(db, workers=2, window=0.001, max_batch=8,
                         materialize=4) as handle:
        db.materialize(4)  # mirror the workers for direct comparisons
        yield handle, db


def client_of(handle) -> ServeClient:
    return ServeClient(handle.host, handle.port)


class TestConformance:
    def test_rknn_matches_direct_calls(self, fleet, inputs):
        handle, db = fleet
        graph, _ = inputs
        with client_of(handle) as client:
            for query in range(0, graph.num_nodes, 7):
                for method in ("eager", "lazy", "eager-m"):
                    body = client.rknn(query, k=2, method=method)
                    assert body["status"] == "ok", body
                    direct = db.rknn(query, k=2, method=method)
                    assert body["points"] == sorted(direct.points), (
                        query, method)
                    # every response pins one snapshot stamp
                    assert (body["base_generation"],
                            body["delta_epoch"]) == (0, 0)

    def test_knn_range_continuous_match(self, fleet, inputs):
        handle, db = fleet
        graph, _ = inputs
        route = a_route(graph)
        with client_of(handle) as client:
            body = client.knn(5, k=3)
            assert ([tuple(pair) for pair in body["neighbors"]]
                    == list(db.knn(5, k=3).neighbors))
            body = client.query("range", 11, k=2, radius=9.0)
            assert ([tuple(pair) for pair in body["neighbors"]]
                    == list(db.range_nn(11, 2, 9.0).neighbors))
            body = client.query("continuous", route=route, k=1,
                                method="eager")
            assert body["points"] == sorted(
                db.continuous_rknn(route, 1).points)

    def test_pipelined_batch_is_index_aligned(self, fleet, inputs):
        handle, db = fleet
        graph, _ = inputs
        queries = [(3 * i) % graph.num_nodes for i in range(24)]
        payloads = [{"op": "query", "kind": "rknn", "query": q, "k": 1,
                     "method": "eager", "id": i}
                    for i, q in enumerate(queries)]
        with client_of(handle) as client:
            responses = client.pipeline(payloads)
        for i, (query, body) in enumerate(zip(queries, responses)):
            assert body["id"] == i
            assert body["points"] == sorted(db.rknn(query, 1).points)

    def test_bad_query_gets_error_not_batch_poison(self, fleet, inputs):
        handle, db = fleet
        graph, _ = inputs
        payloads = [
            {"op": "query", "kind": "rknn", "query": 4, "k": 1,
             "method": "eager", "id": 0},
            {"op": "query", "kind": "rknn", "query": graph.num_nodes + 50,
             "k": 1, "method": "eager", "id": 1},
            {"op": "query", "kind": "rknn", "query": 6, "k": 1,
             "method": "eager", "id": 2},
        ]
        with client_of(handle) as client:
            responses = client.pipeline(payloads)
        assert responses[0]["status"] == "ok"
        assert responses[1]["status"] == "error"
        assert "out of range" in responses[1]["error"]
        assert responses[2]["status"] == "ok"
        assert responses[2]["points"] == sorted(db.rknn(6, 1).points)

    def test_metrics_and_health(self, fleet):
        handle, _ = fleet
        with client_of(handle) as client:
            metrics = client.metrics()
            health = client.healthz()
        assert metrics["backend"] == "compact"
        assert metrics["mode"] == "fleet"
        assert metrics["workers"] == 2
        assert metrics["live_workers"] == 2
        assert metrics["worker_deaths"] == 0
        assert metrics["queries_served"] >= 1
        assert set(metrics["admission"]) == {
            "admitted", "shed", "batches", "coalesced"}
        assert health["status"] == "ok"
        assert health["live_workers"] == 2

    def test_subscribe_refused_cleanly(self, fleet):
        handle, _ = fleet
        with client_of(handle) as client:
            body = client.request(
                {"op": "subscribe", "queries": {0: 5}, "k": 1})
            assert body["status"] == "error"
            assert "fleet" in body["error"]
            # the connection survives the refusal
            assert client.healthz()["status"] == "ok"


class TestObservability:
    def test_http_metrics_and_healthz(self, fleet):
        handle, _ = fleet
        with client_of(handle) as client:
            assert client.rknn(3, k=1)["status"] == "ok"
        metrics = http_get(handle.host, handle.port, "/metrics")
        assert metrics["mode"] == "fleet"
        assert metrics["workers"] == 2
        assert "latency" in metrics
        assert metrics["latency"]["count"] >= 1
        health = http_get(handle.host, handle.port, "/healthz")
        assert health["status"] == "ok"
        assert health["live_workers"] == 2

    def test_http_prometheus_exposition_parses(self, fleet):
        handle, _ = fleet
        with client_of(handle) as client:
            assert client.rknn(5, k=1)["status"] == "ok"
        text = http_get_text(handle.host, handle.port,
                             "/metrics?format=prometheus")
        samples = parse_prometheus_text(text)
        assert samples["repro_workers"] == 2.0
        assert samples["repro_live_workers"] == 2.0
        assert samples["repro_queries_served_total"] >= 1.0
        assert samples["repro_worker_deaths_total"] == 0.0
        # the latency histogram renders cumulative buckets whose +Inf
        # bucket equals the series count
        inf_key = 'repro_batch_seconds_bucket{le="+Inf"}'
        assert samples[inf_key] == samples["repro_batch_seconds_count"]
        assert samples["repro_batch_seconds_count"] >= 1.0

    def test_request_seconds_counts_every_request(self, fleet):
        handle, _ = fleet

        def count() -> float:
            text = http_get_text(handle.host, handle.port,
                                 "/metrics?format=prometheus")
            return parse_prometheus_text(text)["repro_request_seconds_count"]

        before = count()
        with client_of(handle) as client:
            for node in range(4):
                assert client.rknn(node, k=1)["status"] == "ok"
        assert count() - before == 4

    def test_queue_wait_counts_every_query(self, fleet):
        """Each served query waits in a worker's batcher once -- traced
        and EXPLAIN requests included, since they ride the batchers."""
        handle, _ = fleet

        def counts() -> tuple[float, int]:
            text = http_get_text(handle.host, handle.port,
                                 "/metrics?format=prometheus")
            body = http_get(handle.host, handle.port, "/metrics")
            return (parse_prometheus_text(text)
                    ["repro_queue_wait_seconds_count"],
                    body["queue_wait"]["count"])

        before = counts()
        with client_of(handle) as client:
            for node in range(3):
                assert client.rknn(node, k=1)["status"] == "ok"
            traced = client.request({"op": "query", "kind": "knn",
                                     "query": 5, "trace": True})
            explained = client.request({
                "op": "query",
                "statement": "EXPLAIN SELECT * FROM rknn(query=6, k=2)",
            })
        assert "trace" in traced and "plan" in explained
        after = counts()
        assert after[0] - before[0] == 5
        assert after[1] - before[1] == 5

    def test_traced_query_carries_span_tree(self, fleet, inputs):
        handle, db = fleet
        with client_of(handle) as client:
            body = client.request({"op": "query", "kind": "rknn",
                                   "query": 9, "k": 2, "method": "eager",
                                   "trace": True})
        assert body["status"] == "ok"
        assert body["points"] == sorted(db.rknn(9, 2).points)
        spans = body["trace"]["spans"]
        names = {span["name"] for span in spans}
        assert "engine.run_batch" in names
        assert "execute.rknn" in names
        # untraced queries stay trace-free (zero-overhead default)
        with client_of(handle) as client:
            body = client.rknn(9, k=2)
        assert "trace" not in body

    def test_explain_statement_over_the_pipe(self, fleet, inputs):
        handle, db = fleet
        with client_of(handle) as client:
            # (query, k) chosen to miss the worker's result cache: a
            # cached EXPLAIN correctly answers without execute spans
            body = client.request({
                "op": "query",
                "statement": "EXPLAIN SELECT * FROM rknn(query=13, k=3)",
            })
        assert body["status"] == "ok"
        assert body["explain"] is True
        assert body["plan"]["backend"] == "compact"
        assert body["plan"]["method"] == "eager"
        assert body["points"] == sorted(db.rknn(13, 3).points)
        names = {span["name"] for span in body["trace"]["spans"]}
        assert "execute.rknn" in names


class TestMutations:
    def test_read_your_writes_and_fleet_stamps(self, inputs):
        graph, placement = inputs
        db = build_compact(inputs)
        node = free_nodes(graph, placement, 1)[0]
        pid = max(placement) + 100
        with fleet_in_thread(db, workers=2, window=0.001) as handle:
            with client_of(handle) as client:
                body = client.insert(pid, node)
                assert body["status"] == "ok", body
                assert (body["base_generation"], body["delta_epoch"]) == (0, 1)
                # the same connection immediately observes the write on
                # whichever worker serves the query (broadcast barrier)
                body = client.rknn(node, k=1)
                assert (body["base_generation"], body["delta_epoch"]) == (0, 1)
                db.insert_point(pid, node)
                assert body["points"] == sorted(db.rknn(node, 1).points)

                body = client.delete(pid)
                assert body["status"] == "ok"
                assert (body["base_generation"], body["delta_epoch"]) == (0, 2)
                db.delete_point(pid)
                body = client.rknn(node, k=1)
                assert body["points"] == sorted(db.rknn(node, 1).points)

    def test_compact_folds_every_worker_to_the_same_base(self, inputs):
        graph, placement = inputs
        db = build_compact(inputs)
        node = free_nodes(graph, placement, 1)[0]
        with fleet_in_thread(db, workers=2, window=0.001) as handle:
            with client_of(handle) as client:
                client.insert(max(placement) + 100, node)
                body = client.compact()
                assert body["status"] == "ok", body
                assert (body["base_generation"], body["delta_epoch"]) == (1, 0)
                body = client.rknn(node, k=1)
                assert (body["base_generation"], body["delta_epoch"]) == (1, 0)
                metrics = client.metrics()
                assert metrics["mutations_applied"] == 1
                assert metrics["compactions"] == 1

    def test_duplicate_insert_fails_on_every_worker(self, inputs):
        _, placement = inputs
        db = build_compact(inputs)
        pid, node = next(iter(placement.items()))
        with fleet_in_thread(db, workers=2, window=0.001) as handle:
            with client_of(handle) as client:
                body = client.insert(pid, node)
                assert body["status"] == "error"
                # the failed broadcast left every worker at the old stamp
                body = client.rknn(node, k=1)
                assert (body["base_generation"], body["delta_epoch"]) == (0, 0)


class TestFaults:
    def test_killed_worker_is_rerouted_without_mixing_generations(
            self, inputs):
        graph, placement = inputs
        db = build_compact(inputs)
        node = free_nodes(graph, placement, 1)[0]
        with fleet_in_thread(db, workers=2, window=0.001) as handle:
            with client_of(handle) as client:
                # put the fleet at a non-trivial stamp first, so a
                # stale-generation answer would be distinguishable
                assert client.insert(max(placement) + 100,
                                     node)["status"] == "ok"
                victim = handle.server._workers[0]
                os.kill(victim.process.pid, signal.SIGKILL)
                victim.process.join(timeout=10)

                statuses = []
                stamps = set()
                for i in range(3 * graph.num_nodes):
                    body = client.rknn(i % graph.num_nodes, k=1)
                    statuses.append(body["status"])
                    if body["status"] == "ok":
                        stamps.add((body["base_generation"],
                                    body["delta_epoch"]))
                # the router sheds or reroutes -- it never hangs and
                # never serves a response at another stamp
                assert statuses.count("ok") >= 1
                assert set(statuses) <= {"ok", "error"}
                assert stamps == {(0, 1)}

                metrics = client.metrics()
                assert metrics["live_workers"] == 1
                assert metrics["worker_deaths"] == 1
                assert metrics["reroutes"] >= 1
                assert client.healthz()["status"] == "ok"

                # mutations keep working on the surviving worker
                body = client.insert(max(placement) + 101, node + 0)
                assert body["status"] in ("ok", "error")

    def test_all_workers_dead_sheds_instead_of_hanging(self, inputs):
        db = build_compact(inputs)
        with fleet_in_thread(db, workers=1, window=0.001) as handle:
            with client_of(handle) as client:
                worker = handle.server._workers[0]
                os.kill(worker.process.pid, signal.SIGKILL)
                worker.process.join(timeout=10)
                saw_error = False
                for query in range(10):
                    body = client.rknn(query, k=1)
                    assert body["status"] in ("ok", "error")
                    saw_error = saw_error or body["status"] == "error"
                assert saw_error
                assert client.healthz()["status"] == "error"
                metrics = client.metrics()
                assert metrics["live_workers"] == 0


def test_fleet_server_rejects_zero_workers(tmp_path, inputs):
    from repro.errors import QueryError

    db = build_compact(inputs)
    root = db.save_snapshot(tmp_path / "snap")
    with pytest.raises(QueryError, match="workers"):
        FleetServer(root, workers=0)


def test_fleet_busy_port_fails_at_once(inputs):
    db = build_compact(inputs)
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen()
        began = time.monotonic()
        with pytest.raises(OSError) as failure:
            with fleet_in_thread(db, workers=1,
                                 port=blocker.getsockname()[1]):
                pass
        elapsed = time.monotonic() - began
    assert failure.value.errno == errno.EADDRINUSE
    assert elapsed < 5.0


def test_fleet_boots_from_existing_snapshot_dir(tmp_path, inputs):
    db = build_compact(inputs)
    root = db.save_snapshot(tmp_path / "snap")
    with fleet_in_thread(str(root), workers=1, window=0.001) as handle:
        with client_of(handle) as client:
            body = client.rknn(3, k=1)
            assert body["status"] == "ok"
            assert body["points"] == sorted(db.rknn(3, 1).points)
