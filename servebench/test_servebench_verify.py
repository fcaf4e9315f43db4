"""The benchmark's answer checker must catch a corrupted answer.

Responses are built the way the server builds them (the engine's
result through ``protocol.result_payload`` at the database's stamp),
on a 100-node grid, so the check needs no server process.
"""

from __future__ import annotations

import json
import random

from repro.compact.db import CompactDatabase
from repro.datasets.grid import generate_grid
from repro.datasets.workload import place_node_points
from repro.serve.protocol import result_payload
from servebench.load import Op, hot_specs
from servebench.verify import spec_of, verify_read_write, verify_reads


def _dataset():
    graph = generate_grid(100, average_degree=4.0, seed=5)
    return graph, place_node_points(graph, density=0.1, seed=5)


def _served(db, engine, payload: dict) -> Op:
    """One query answered as the server answers it."""
    result = engine.run(spec_of(payload))
    body = result_payload(result, db.generation, db.stamp)
    return Op(payload, 0.0, json.dumps(body).encode())


def _corrupt(op: Op) -> Op:
    """The same response with its answer changed."""
    body = json.loads(op.response)
    if "points" in body:
        body["points"] = body["points"][1:] if body["points"] else [999]
    else:
        body["neighbors"] = body["neighbors"][1:] or [[999, 0.5]]
    return Op(op.payload, op.latency, json.dumps(body).encode())


def _read_ops():
    graph, points = _dataset()
    db = CompactDatabase(graph, points)
    engine = db.engine()
    specs = hot_specs(random.Random("checker"), graph.num_nodes)
    return graph, points, [_served(db, engine, spec) for spec in specs * 2]


def test_correct_read_answers_pass():
    graph, points, ops = _read_ops()
    verdict = verify_reads(graph, points, ops)
    assert verdict.checked == len(ops)
    assert verdict.failed == 0, verdict.examples


def test_one_corrupted_read_answer_fails():
    graph, points, ops = _read_ops()
    ops[7] = _corrupt(ops[7])
    verdict = verify_reads(graph, points, ops)
    assert verdict.failed == 1


def test_error_status_fails():
    graph, points, ops = _read_ops()
    ops[3] = Op(ops[3].payload, 0.0, b'{"status":"overloaded"}')
    assert verify_reads(graph, points, ops).failed == 1


def _read_write_ops():
    """Reads interleaved with acknowledged inserts and deletes."""
    graph, points = _dataset()
    db = CompactDatabase(graph, points)
    engine = db.engine()
    specs = hot_specs(random.Random("checker"), graph.num_nodes)[:12]
    occupied = {node for _, node in points.items()}
    free = [node for node in range(graph.num_nodes) if node not in occupied]
    ops = []
    for step, node in enumerate(free[:4]):
        ops.extend(_served(db, engine, spec) for spec in specs)
        pid = 1000 + step
        db.insert_point(pid, node)
        ack = {"status": "ok", "delta_epoch": db.delta_epoch}
        ops.append(Op({"op": "insert", "pid": pid, "location": node}, 0.0,
                      json.dumps(ack).encode()))
        if step % 2:
            db.delete_point(pid - 1)
            ack = {"status": "ok", "delta_epoch": db.delta_epoch}
            ops.append(Op({"op": "delete", "pid": pid - 1}, 0.0,
                          json.dumps(ack).encode()))
    ops.extend(_served(db, engine, spec) for spec in specs)
    return graph, points, ops


def test_replayed_read_write_answers_pass():
    graph, points, ops = _read_write_ops()
    verdict = verify_read_write(graph, points, ops)
    assert verdict.checked == len(ops)
    assert verdict.failed == 0, verdict.examples


def test_one_corrupted_read_write_answer_fails():
    graph, points, ops = _read_write_ops()
    reads = [i for i, op in enumerate(ops) if op.payload["op"] == "query"]
    # a read served after the writes, so only the replay can judge it
    target = reads[-5]
    ops[target] = _corrupt(ops[target])
    verdict = verify_read_write(graph, points, ops)
    assert verdict.failed == 1
