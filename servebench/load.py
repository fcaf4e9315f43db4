"""Seeded inputs and closed-loop load generators for the three workloads.

Everything a run sends is derived from its ``--seed``: the grid, the
point placement, the hot spec set and its Zipf ranking, the cold query
stream and the read-write mix.  The server only ever sees the wire
requests.

The load generators keep raw response lines during the timed window
(parsing JSON there would spend the client's share of the two cores)
and hand them to :mod:`servebench.verify` afterwards.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.datasets.grid import generate_grid
from repro.datasets.workload import place_node_points
from repro.graph.io import save_graph
from repro.serve.protocol import encode

GRID_NODES = 10_000
POINT_DENSITY = 0.1
HOT_SPECS = 64
COLD_GROUP = 8
#: Every WRITE_EVERY-th read-write operation is a write (10%).
WRITE_EVERY = 10
#: First point id the read-write workload inserts (the data set uses
#: ids ``0 .. |P|-1``).
FIRST_NEW_PID = 1_000_000
#: Seconds any single socket operation may block before the run fails.
SOCKET_TIMEOUT = 60.0


def make_dataset(seed: int, path) -> tuple:
    """Write the seeded 10^4-node grid with density-0.1 node points."""
    graph = generate_grid(GRID_NODES, average_degree=4.0, seed=seed)
    points = place_node_points(graph, density=POINT_DENSITY, seed=seed)
    save_graph(path, graph, points)
    return graph, points


def query(kind: str, node: int, **fields) -> dict:
    """One ``query`` request payload."""
    return {"op": "query", "kind": kind, "query": node, **fields}


def hot_specs(rng: random.Random, num_nodes: int) -> list[dict]:
    """64 distinct read requests, in Zipf rank order (rank 1 first).

    Six templates cycle over the ranks -- kNN with k=2, range-NN with
    radius 10, then RkNN eager / lazy with k in {1, 2} -- on distinct
    seeded query nodes, so every seed puts the same Zipf mass on each
    template and only the nodes vary.  The cheap, node-insensitive
    templates hold the heaviest ranks, so a costly node drawn for
    rank 1 cannot swing a whole run.
    """
    templates = [
        {"kind": "knn", "k": 2},
        {"kind": "range", "k": 2, "radius": 10.0},
        {"kind": "rknn", "k": 1, "method": "eager"},
        {"kind": "rknn", "k": 2, "method": "eager"},
        {"kind": "rknn", "k": 1, "method": "lazy"},
        {"kind": "rknn", "k": 2, "method": "lazy"},
    ]
    nodes = rng.sample(range(num_nodes), HOT_SPECS)
    specs = []
    for rank, node in enumerate(nodes):
        template = dict(templates[rank % len(templates)])
        specs.append(query(template.pop("kind"), node, **template))
    return specs


def zipf_weights(count: int) -> list[float]:
    """Cumulative Zipf(s=1) weights over ranks ``1 .. count``."""
    total, cumulative = 0.0, []
    for rank in range(1, count + 1):
        total += 1.0 / rank
        cumulative.append(total)
    return cumulative


def hot_mix(seed: int, num_nodes: int):
    """The hot spec set, its wire lines and cumulative Zipf weights."""
    specs = hot_specs(random.Random(f"{seed}/hot"), num_nodes)
    return specs, [encode(spec) for spec in specs], zipf_weights(len(specs))


def cold_group(rng: random.Random, nodes: list[int]) -> list[dict]:
    """Eight never-repeating requests: 4 RkNN, 2 kNN, 2 range-NN.

    The RkNN four are eager and lazy with k in {1, 2}.  ``nodes`` is a
    seeded permutation of every node; each request consumes one, so no
    query node (hence no spec) ever repeats.
    """
    group = [query("rknn", nodes.pop(), k=k, method=method)
             for k in (1, 2) for method in ("eager", "lazy")]
    group += [query("knn", nodes.pop(), k=2) for _ in range(2)]
    group += [query("range", nodes.pop(), k=2, radius=10.0) for _ in range(2)]
    rng.shuffle(group)
    return group


class Connection:
    """One blocking JSON-lines connection; every wait is bounded."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=SOCKET_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def send(self, data: bytes) -> None:
        """Send request bytes (one or more lines)."""
        self.sock.sendall(data)

    def recv_line(self) -> bytes:
        """The next response line, without its newline."""
        while True:
            end = self._buffer.find(b"\n")
            if end >= 0:
                line, self._buffer = self._buffer[:end], self._buffer[end + 1:]
                return line
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk

    def request(self, data: bytes) -> bytes:
        """Send one request; return its response line."""
        self.send(data)
        return self.recv_line()

    def close(self) -> None:
        """Close the socket."""
        self.sock.close()


@dataclass
class Op:
    """One completed request of the timed window."""

    payload: dict
    latency: float
    response: bytes


@dataclass
class Outcome:
    """What one workload pass sent and received."""

    ops: list[Op] = field(default_factory=list)
    warmup: list[Op] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)

    @property
    def elapsed(self) -> float:
        """Length of the timed window in seconds."""
        return self.window[1] - self.window[0]


def _warm(conn: Connection, payloads: list[dict]) -> list[Op]:
    """Send each payload once, untimed, to fill caches and lazy set-up."""
    return [Op(payload, 0.0, conn.request(encode(payload)))
            for payload in payloads]


def run_hot(address, seed: int, seconds: float, num_nodes: int,
            mark) -> Outcome:
    """``serve_hot``: 2 closed-loop connections over 64 Zipf-drawn specs.

    ``mark()`` runs between the untimed warm-up and the timed window
    (as in every workload).
    """
    specs, wires, cumulative = hot_mix(seed, num_nodes)
    outcome = Outcome()
    conns: list[Connection] = []
    try:
        conns.extend(Connection(address) for _ in range(2))
        outcome.warmup = _warm(conns[0], specs)
        mark()
        results: list[list[Op]] = [[] for _ in conns]
        errors: list[BaseException] = []
        start = time.perf_counter()
        deadline = start + seconds

        def drive(index: int) -> None:
            rng = random.Random(f"{seed}/hot/{index}")
            conn, ops = conns[index], results[index]
            ranks = range(len(specs))
            try:
                while time.perf_counter() < deadline:
                    rank = rng.choices(ranks, cum_weights=cumulative)[0]
                    began = time.perf_counter()
                    line = conn.request(wires[rank])
                    ops.append(Op(specs[rank], time.perf_counter() - began,
                                  line))
            except Exception as exc:  # reported after the join
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(conns))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + SOCKET_TIMEOUT)
        if errors or any(thread.is_alive() for thread in threads):
            raise RuntimeError(f"hot load generator failed: {errors!r}")
        outcome.window = (start, time.perf_counter())
        outcome.ops = [op for ops in results for op in ops]
    finally:
        for conn in conns:
            conn.close()
    return outcome


def run_cold(address, seed: int, seconds: float, num_nodes: int,
             mark) -> Outcome:
    """``serve_cold``: 1 connection pipelining groups of 8 unique specs."""
    rng = random.Random(f"{seed}/cold")
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    outcome = Outcome()
    conn = Connection(address)
    try:
        warm = cold_group(rng, nodes)
        conn.send(b"".join(encode(spec) for spec in warm))
        outcome.warmup = [Op(spec, 0.0, conn.recv_line()) for spec in warm]
        mark()
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            if len(nodes) < COLD_GROUP:
                raise RuntimeError("cold workload ran out of query nodes")
            group = cold_group(rng, nodes)
            began = time.perf_counter()
            conn.send(b"".join(encode(spec) for spec in group))
            for spec in group:
                line = conn.recv_line()
                outcome.ops.append(
                    Op(spec, time.perf_counter() - began, line)
                )
        outcome.window = (start, time.perf_counter())
    finally:
        conn.close()
    return outcome


def run_rw(address, seed: int, seconds: float, num_nodes: int,
           points, mark) -> Outcome:
    """``serve_rw``: 1 connection, 90% Zipf reads, 10% insert/delete.

    Every tenth operation is a write, alternating an insert of a fresh
    pid on a node holding no point with a delete of a live pid this
    workload inserted -- so no write can fail because of the workload.
    """
    specs, wires, cumulative = hot_mix(seed, num_nodes)
    ranks = range(len(specs))
    rng = random.Random(f"{seed}/rw")
    occupied = {node for _, node in points.items()}
    free = [node for node in range(num_nodes) if node not in occupied]
    live: list[tuple[int, int]] = []  # (pid, node) inserted and live
    next_pid = FIRST_NEW_PID
    outcome = Outcome()
    conn = Connection(address)
    try:
        outcome.warmup = _warm(conn, specs)
        mark()
        start = time.perf_counter()
        deadline = start + seconds
        count = 0
        while time.perf_counter() < deadline:
            count += 1
            if count % WRITE_EVERY:
                rank = rng.choices(ranks, cum_weights=cumulative)[0]
                payload, wire = specs[rank], wires[rank]
            elif count % (2 * WRITE_EVERY):
                node = free.pop(rng.randrange(len(free)))
                live.append((next_pid, node))
                payload = {"op": "insert", "pid": next_pid, "location": node}
                next_pid += 1
                wire = encode(payload)
            else:
                pid, node = live.pop(rng.randrange(len(live)))
                free.append(node)
                payload = {"op": "delete", "pid": pid}
                wire = encode(payload)
            began = time.perf_counter()
            line = conn.request(wire)
            outcome.ops.append(Op(payload, time.perf_counter() - began, line))
        outcome.window = (start, time.perf_counter())
    finally:
        conn.close()
    return outcome
