"""Command-line interface: generate data sets, inspect them, run queries.

Usage (also ``python -m repro``)::

    python -m repro generate --kind spatial --nodes 2000 --density 0.02 \\
        --placement edge -o sf.graph
    python -m repro info sf.graph
    python -m repro query sf.graph --query 17 --k 2 --method eager
    python -m repro query sf.graph --query 3,9,12.5 --method lazy
    python -m repro query sf.graph -e "SELECT * FROM rknn(query=17, k=2)"
    python -m repro query sf.graph -e "SELECT * FROM topk_influence(k=2) LIMIT 5"
    python -m repro query sf.graph -e "EXPLAIN SELECT * FROM rknn(query=17, k=2)"
    python -m repro trace captured_trace.json
    python -m repro recommend sf.graph --k 2
    python -m repro report sf.graph
    python -m repro path sf.graph --source 3 --target 1200 --search alt
    python -m repro plan sf.graph --k 2 --samples 4
    python -m repro batch sf.graph --specs queries.jsonl --workers 4
    python -m repro shard build sf.graph --shards 4
    python -m repro batch sf.graph --specs queries.jsonl --backend sharded \\
        --workers 4
    python -m repro compact build sf.graph
    python -m repro batch sf.graph --specs queries.jsonl --backend compact \\
        --workers 4
    python -m repro oracle build sf.graph --landmarks 8
    python -m repro batch sf.graph --specs queries.jsonl --oracle
    python -m repro query sf.graph --query 17 --k 2 --backend compact --oracle
    python -m repro serve sf.graph --port 8750 --backend compact --workers 4

Backend selection is one shared option group: ``--backend
{disk,sharded,compact}`` (+ ``--shard-count K``) and ``--oracle``.

The ``batch`` subcommand reads one JSON query spec per line (see
:mod:`repro.engine.spec`), e.g.::

    {"kind": "rknn", "query": 17, "k": 2, "method": "eager"}
    {"kind": "knn", "query": 3, "k": 3}
    {"kind": "range", "query": 5, "k": 2, "radius": 8.0}

Graphs round-trip through the line-oriented format of
:mod:`repro.graph.io`, so generated data sets can be versioned and
shared between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from repro.analytics import (
    CalibratingPlanner,
    expansion_profile,
    network_report,
    recommend_method,
)
from repro.api import GraphDatabase
from repro.datasets.brite import generate_brite
from repro.datasets.dblp import generate_dblp
from repro.datasets.grid import generate_grid
from repro.datasets.spatial import generate_spatial
from repro.datasets.workload import place_edge_points, place_node_points
from repro.compact import CompactDatabase
from repro.engine.spec import load_specs
from repro.errors import QueryError, ReproError
from repro.graph.io import load_graph, save_graph
from repro.graph.partition import bfs_order, hilbert_order, partition_nodes
from repro.storage.page import adjacency_record_size
from repro.points.points import NodePointSet
from repro.shard import ShardedDatabase, ShardedGraphStore
from repro.oracle import DEFAULT_LANDMARKS as ORACLE_LANDMARKS
from repro.oracle import STRATEGIES as ORACLE_STRATEGIES
from repro.paths.astar import astar_path, euclidean_heuristic
from repro.obs import SlowQueryLog, render_trace
from repro.obs.slowlog import DEFAULT_THRESHOLD_MS
from repro.qlang import compile_statements, explain_spec
from repro.paths.bidirectional import bidirectional_search
from repro.paths.dijkstra import shortest_path
from repro.paths.landmarks import LandmarkIndex

KINDS = ("dblp", "brite", "spatial", "grid")

SEARCHES = ("dijkstra", "astar", "alt", "bidirectional")


def _add_backend_arguments(parser) -> None:
    """Backend-selection flags shared by ``query``, ``batch``, ``serve``.

    One option group: ``--backend {disk,sharded,compact}`` (+
    ``--shard-count``) and ``--oracle``.
    """
    parser.add_argument("--backend", choices=("disk", "sharded", "compact"),
                        default=None,
                        help="storage backend to serve from: the paged disk "
                        "store (default), the K-shard store, or the "
                        "memory-resident CSR store")
    parser.add_argument("--shard-count", type=int, default=4, metavar="K",
                        help="with --backend sharded: number of shards "
                        "(default 4)")
    parser.add_argument("--compact-threshold", type=int, default=None,
                        metavar="N", help="with the compact backend: "
                        "auto-fold the delta-overlay log into a fresh CSR "
                        "base once N mutations are pending")
    parser.add_argument("--oracle", action="store_true",
                        help="build a landmark distance oracle before serving; "
                        "answers are identical, expansions prune harder")
    parser.add_argument("--oracle-landmarks", type=int, default=ORACLE_LANDMARKS,
                        metavar="L", help="landmark count for --oracle")


def _resolve_backend(args: argparse.Namespace) -> tuple[str, int]:
    """Resolve the backend option group.

    Returns ``(backend, shard count)`` where ``backend`` is one of
    ``"disk"``, ``"sharded"``, ``"compact"``.
    """
    backend = args.backend or "disk"
    shard_count = args.shard_count
    if backend == "sharded" and shard_count < 1:
        raise QueryError(f"--shard-count must be >= 1, got {shard_count}")
    return backend, shard_count


def _open_backend(args: argparse.Namespace, graph, points):
    """Build the database the backend option group selects.

    Shared by ``query``, ``batch`` and ``serve``: validates the flag
    combination, constructs the disk / sharded / compact database,
    materializes K-NN lists and attaches the oracle when asked.
    Returns ``(db, backend label)``.
    """
    kind, shard_count = _resolve_backend(args)
    threshold = getattr(args, "compact_threshold", None)
    if threshold is not None and kind != "compact":
        raise QueryError("--compact-threshold requires the compact backend "
                         "(--backend compact)")
    if kind == "compact":
        db = CompactDatabase(graph, points, compact_threshold=threshold)
        backend = "compact"
    elif kind == "sharded":
        db = ShardedDatabase(graph, points, num_shards=shard_count,
                             buffer_pages=args.buffer_pages)
        backend = f"{shard_count} shard(s)"
    else:
        db = GraphDatabase(graph, points, buffer_pages=args.buffer_pages)
        backend = "unsharded"
    if getattr(args, "materialize", 0) > 0:
        db.materialize(args.materialize)
    if args.oracle:
        report = db.build_oracle(args.oracle_landmarks)
        print(f"oracle: {len(report.landmarks)} landmarks, "
              f"{report.entries} label entries, {report.pages} pages, "
              f"built for {report.io} page I/Os")
    return db, backend


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reverse nearest neighbors in large graphs "
        "(Yiu, Papadias, Mamoulis, Tao; ICDE 2005)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a data set and save it to a file"
    )
    generate.add_argument("--kind", choices=KINDS, required=True)
    generate.add_argument("--nodes", type=int, default=2_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--density", type=float, default=0.02,
                          help="data density |P|/|V| (0 disables points)")
    generate.add_argument("--placement", choices=("node", "edge"),
                          default="node")
    generate.add_argument("--degree", type=float, default=4.0,
                          help="average degree for grid graphs")
    generate.add_argument("-o", "--output", required=True)

    info = commands.add_parser("info", help="summarize a saved data set")
    info.add_argument("graph")

    query = commands.add_parser("query", help="run an RkNN or qlang query")
    query.add_argument("graph")
    query.add_argument("--query",
                       help="node id, or 'u,v,offset' for edge locations")
    query.add_argument("-e", "--execute", metavar="STATEMENT",
                       help="qlang statement(s) to run, e.g. "
                       "\"SELECT * FROM rknn(query=17, k=2)\"; "
                       "';' separates a script")
    query.add_argument("--k", type=int, default=1)
    query.add_argument("--method", default="eager",
                       choices=("eager", "lazy", "eager-m", "lazy-ep"))
    query.add_argument("--materialize", type=int, default=0, metavar="K",
                       help="build K-NN lists before querying (for eager-m)")
    query.add_argument("--buffer-pages", type=int, default=256)
    _add_backend_arguments(query)

    recommend = commands.add_parser(
        "recommend", help="analyze a data set and suggest a method"
    )
    recommend.add_argument("graph")
    recommend.add_argument("--k", type=int, default=1)

    report = commands.add_parser(
        "report", help="paper-style characterization of a data set"
    )
    report.add_argument("graph")

    path = commands.add_parser(
        "path", help="shortest path between two nodes"
    )
    path.add_argument("graph")
    path.add_argument("--source", type=int, required=True)
    path.add_argument("--target", type=int, required=True)
    path.add_argument("--search", choices=SEARCHES, default="dijkstra")
    path.add_argument("--landmarks", type=int, default=4,
                      help="landmark count for --search alt")

    plan = commands.add_parser(
        "plan", help="calibrate methods on sampled queries and pick one"
    )
    plan.add_argument("graph")
    plan.add_argument("--k", type=int, default=1)
    plan.add_argument("--samples", type=int, default=4)
    plan.add_argument("--materialize", type=int, default=0, metavar="K",
                      help="build K-NN lists so eager-m competes")

    batch = commands.add_parser(
        "batch", help="execute a JSONL batch of queries through the engine"
    )
    batch.add_argument("graph")
    batch.add_argument("--specs", required=True,
                       help="JSONL file: one query spec object per line")
    batch.add_argument("--workers", type=int, default=1)
    batch.add_argument("--repeat", type=int, default=1,
                       help="replay the batch N times (exercises the cache)")
    batch.add_argument("--cache-size", type=int, default=1024,
                       help="result-cache entries (0 disables caching)")
    batch.add_argument("--materialize", type=int, default=0, metavar="K",
                       help="build K-NN lists before executing (for eager-m)")
    batch.add_argument("--buffer-pages", type=int, default=256)
    batch.add_argument("--no-batch-kernel", action="store_true",
                       help="disable the vectorized compact batch kernel "
                            "(scalar per-query execution)")
    batch.add_argument("--quiet", action="store_true",
                       help="print only the batch summary")
    _add_backend_arguments(batch)

    serve = commands.add_parser(
        "serve", help="serve queries and mutations over TCP "
        "(micro-batched asyncio server)"
    )
    serve.add_argument("graph")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750,
                       help="listening port (0 picks an ephemeral port)")
    serve.add_argument("--window-ms", type=float, default=0.0,
                       help="micro-batch coalescing window in milliseconds "
                       "(default 0: batch by arrival -- requests that "
                       "arrive while a batch runs share the next one)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="flush a batch once this many requests wait")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="admission bound before requests are shed "
                       "with an 'overloaded' response")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes; > 1 boots a multi-process "
                       "fleet over a shared mmap'd CSR snapshot "
                       "(requires --backend compact)")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="result-cache entries (0 disables caching)")
    serve.add_argument("--materialize", type=int, default=0, metavar="K",
                       help="build K-NN lists before serving (for eager-m)")
    serve.add_argument("--buffer-pages", type=int, default=256)
    serve.add_argument("--ready-file", metavar="FILE",
                       help="write HOST:PORT to FILE once accepting "
                       "connections (lets scripts wait for readiness)")
    serve.add_argument("--log-level",
                       choices=("debug", "info", "warning", "error"),
                       default=None,
                       help="emit server events (sheds, reroutes, "
                       "compactions) through stdlib logging at this level")
    serve.add_argument("--slow-query-log", metavar="FILE",
                       help="append one JSON line per query slower than "
                       "--slow-query-ms to FILE (single-process server)")
    serve.add_argument("--slow-query-ms", type=float,
                       default=DEFAULT_THRESHOLD_MS, metavar="MS",
                       help="slow-query threshold in milliseconds "
                       f"(default {DEFAULT_THRESHOLD_MS:g})")
    _add_backend_arguments(serve)

    trace = commands.add_parser(
        "trace", help="pretty-print a captured trace JSON file "
        "as an indented span tree"
    )
    trace.add_argument("file",
                       help="trace JSON: a {'spans': [...]} payload, a bare "
                       "span list, or a serve response carrying 'trace'")

    shard = commands.add_parser(
        "shard", help="sharded-backend operations"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    shard_build = shard_sub.add_parser(
        "build", help="cut a data set into K shards and report the layout"
    )
    shard_build.add_argument("graph")
    shard_build.add_argument("--shards", type=int, default=4, metavar="K")
    shard_build.add_argument("--order", choices=("bfs", "hilbert"),
                             default="bfs", help="cut heuristic")
    shard_build.add_argument("--buffer-pages", type=int, default=256,
                             help="LRU budget per shard (each shard models "
                             "an independent storage host)")
    shard_build.add_argument("--assignment", metavar="FILE",
                             help="write 'node shard' lines to FILE")

    compact = commands.add_parser(
        "compact", help="compact (CSR flat-array) backend operations"
    )
    compact_sub = compact.add_subparsers(dest="compact_command", required=True)
    compact_build = compact_sub.add_parser(
        "build", help="flatten a data set into CSR arrays and report the layout"
    )
    compact_build.add_argument("graph")
    compact_build.add_argument("--order", choices=("bfs", "hilbert"),
                               default="bfs", help="locality rank fed to the "
                               "batch planner (answers never depend on it)")
    compact_compact = compact_sub.add_parser(
        "compact", help="apply a mutation log through the delta overlay "
        "and fold it into a fresh CSR base generation"
    )
    compact_compact.add_argument("graph")
    compact_compact.add_argument(
        "--mutations", metavar="FILE",
        help="JSONL mutation log: one object per line with op one of "
        "insert (pid, node), delete (pid), insert-edge (u, v, weight), "
        "delete-edge (u, v)"
    )
    compact_compact.add_argument(
        "--threshold", type=int, default=None, metavar="N",
        help="auto-fold whenever N delta ops are pending (default: "
        "fold once, at the end)"
    )

    oracle = commands.add_parser(
        "oracle", help="landmark distance-oracle operations"
    )
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    oracle_build = oracle_sub.add_parser(
        "build", help="select landmarks, label every node and report "
        "the oracle's layout and build cost"
    )
    oracle_build.add_argument("graph")
    oracle_build.add_argument("--landmarks", type=int,
                              default=ORACLE_LANDMARKS, metavar="L")
    oracle_build.add_argument("--seed", type=int, default=0)
    oracle_build.add_argument("--strategy", choices=ORACLE_STRATEGIES,
                              default="farthest")
    oracle_build.add_argument("--backend",
                              choices=("disk", "sharded", "compact"),
                              default="disk",
                              help="which backend's build kernel to run "
                              "(labels are interchangeable)")
    oracle_build.add_argument("--shards", type=int, default=4, metavar="K",
                              help="shard count for --backend sharded")
    oracle_build.add_argument("--buffer-pages", type=int, default=256)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _generate(args)
        if args.command == "info":
            return _info(args)
        if args.command == "query":
            return _query(args)
        if args.command == "recommend":
            return _recommend(args)
        if args.command == "report":
            return _report(args)
        if args.command == "path":
            return _path(args)
        if args.command == "plan":
            return _plan(args)
        if args.command == "batch":
            return _batch(args)
        if args.command == "serve":
            return _serve(args)
        if args.command == "trace":
            return _trace(args)
        if args.command == "shard":
            return _shard_build(args)
        if args.command == "compact":
            if args.compact_command == "compact":
                return _compact_compact(args)
            return _compact_build(args)
        if args.command == "oracle":
            return _oracle_build(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


def _generate(args: argparse.Namespace) -> int:
    if args.kind == "dblp":
        graph = generate_dblp(num_nodes=args.nodes, seed=args.seed).graph
    elif args.kind == "brite":
        graph = generate_brite(args.nodes, seed=args.seed)
    elif args.kind == "spatial":
        graph = generate_spatial(args.nodes, seed=args.seed)
    else:
        graph = generate_grid(args.nodes, average_degree=args.degree,
                              seed=args.seed)
    points = None
    if args.density > 0:
        if args.placement == "node":
            points = place_node_points(graph, args.density, seed=args.seed + 1)
        else:
            points = place_edge_points(graph, args.density, seed=args.seed + 1)
    save_graph(args.output, graph, points)
    point_count = len(points) if points is not None else 0
    print(f"wrote {args.output}: |V|={graph.num_nodes} "
          f"|E|={graph.num_edges} |P|={point_count}")
    return 0


def _info(args: argparse.Namespace) -> int:
    graph, points = load_graph(args.graph)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"average degree {graph.average_degree():.2f}")
    print(f"connected: {graph.is_connected()}")
    if points is None:
        print("points: none")
    else:
        mode = "nodes" if points.restricted else "edges"
        print(f"points: {len(points)} on {mode} "
              f"(density {len(points) / graph.num_nodes:.4f})")
    db = GraphDatabase(graph, points)
    profile = expansion_profile(db)
    regime = "exponential" if profile.exponential else "local"
    print(f"expansion: {regime} (hop-ball growth {profile.growth_ratio:.2f})")
    return 0


def _parse_location(text: str):
    if "," in text:
        u, v, pos = text.split(",")
        return (int(u), int(v), float(pos))
    return int(text)


def _spec_label(spec) -> str:
    """A short printable handle for one compiled statement."""
    if spec.kind == "continuous":
        source: object = list(spec.route)
    elif spec.kind == "aggregate_nn":
        source = list(spec.group)
    elif spec.query is None:
        source = ""
    else:
        source = spec.query
    return f"{spec.kind}({source})"


def _query(args: argparse.Namespace) -> int:
    if (args.query is None) == (args.execute is None):
        raise QueryError("query takes exactly one of --query or -e/--execute")
    graph, points = load_graph(args.graph)
    db, backend = _open_backend(args, graph, points)
    if args.execute is not None:
        statements = compile_statements(args.execute)
        engine = db.engine()
        started = time.perf_counter()
        results: list = [None] * len(statements)
        plain = [(position, statement.spec)
                 for position, statement in enumerate(statements)
                 if not statement.explain]
        if plain:
            outcome = engine.run_batch([spec for _, spec in plain])
            for (position, _), result in zip(plain, outcome.results):
                results[position] = result
        for position, statement in enumerate(statements):
            if statement.explain:
                results[position] = explain_spec(engine, statement.spec)
        elapsed = time.perf_counter() - started
        io = 0
        for statement, result in zip(statements, results):
            explained = result.result if statement.explain else result
            io += explained.io
            answer = (list(explained.points) if hasattr(explained, "points")
                      else list(explained.neighbors))
            print(f"{_spec_label(statement.spec)} k={statement.spec.k} "
                  f"-> {answer}")
            if statement.explain:
                print(json.dumps(result.to_payload(), indent=2,
                                 sort_keys=True))
        print(f"cost: {len(statements)} statement(s) in "
              f"{elapsed:.4f} s, {io} page I/Os, {backend}")
        return 0
    location = _parse_location(args.query)
    result = db.rknn(location, args.k, method=args.method)
    print(f"R{args.k}NN({args.query}) = {list(result.points)}")
    print(f"cost: {result.io} page I/Os, {result.cpu_seconds * 1000:.2f} ms "
          f"CPU, {result.counters.nodes_visited} node visits, "
          f"total {result.total_seconds():.4f} s at 10 ms/I-O, {backend}")
    return 0


def _recommend(args: argparse.Namespace) -> int:
    graph, points = load_graph(args.graph)
    db = GraphDatabase(graph, points)
    recommendation = recommend_method(db, k=args.k)
    profile = recommendation.profile
    print(f"recommended method: {recommendation.method}")
    print(f"reason: {recommendation.rationale}")
    print(f"hop-ball growth ratio: {profile.growth_ratio:.2f} "
          f"({'exponential' if profile.exponential else 'local'} expansion)")
    return 0


def _report(args: argparse.Namespace) -> int:
    graph, points = load_graph(args.graph)
    db = GraphDatabase(graph, points)
    for line in network_report(db).summary_lines():
        print(line)
    return 0


def _path(args: argparse.Namespace) -> int:
    graph, _ = load_graph(args.graph)
    for node in (args.source, args.target):
        if not 0 <= node < graph.num_nodes:
            raise QueryError(f"node {node} out of range")
    if args.search == "dijkstra":
        result = shortest_path(graph, args.source, args.target)
    elif args.search == "bidirectional":
        result = bidirectional_search(graph, args.source, args.target)
    elif args.search == "astar":
        if graph.coords is None:
            raise QueryError(
                "--search astar needs coordinates; this graph has none "
                "(use --search alt, which derives bounds from the metric)"
            )
        heuristic = euclidean_heuristic(graph.coords, args.target)
        result = astar_path(graph, args.source, args.target, heuristic)
    else:
        index = LandmarkIndex.build(graph, graph.num_nodes,
                                    count=args.landmarks)
        result = astar_path(graph, args.source, args.target,
                            index.heuristic(args.target))
    if not result.found:
        print(f"no path from {args.source} to {args.target}")
        return 1
    print(f"distance: {result.distance:.4f} over {result.hops} edges "
          f"({result.nodes_settled} nodes settled by {args.search})")
    print("path:", " -> ".join(str(node) for node in result.nodes))
    return 0


def _batch(args: argparse.Namespace) -> int:
    try:
        with open(args.specs) as handle:
            specs = load_specs(handle)
    except OSError as exc:
        raise QueryError(f"cannot read {args.specs}: {exc}") from exc
    if not specs:
        raise QueryError(f"{args.specs} contains no query specs")
    if args.repeat < 1:
        raise QueryError(f"--repeat must be >= 1, got {args.repeat}")
    graph, points = load_graph(args.graph)
    db, backend = _open_backend(args, graph, points)
    engine = db.engine(cache_entries=args.cache_size,
                       batch_kernel=not args.no_batch_kernel)
    for round_no in range(args.repeat):
        outcome = engine.run_batch(specs, workers=args.workers)
        if not args.quiet:
            for spec, result in zip(specs, outcome.results):
                answer = (list(result.points) if hasattr(result, "points")
                          else list(result.neighbors))
                print(f"{spec.kind}({spec.query}) k={spec.k} -> {answer} "
                      f"[{result.io} I/Os]")
        label = f"round {round_no + 1}/{args.repeat}: " if args.repeat > 1 else ""
        print(f"{label}{len(outcome)} queries in {outcome.elapsed_seconds:.4f} s "
              f"({outcome.queries_per_second:.0f} q/s), "
              f"{outcome.hits} cache hits / {outcome.misses} misses, "
              f"{outcome.io} page I/Os, {args.workers} worker(s), {backend}")
    if getattr(db, "num_shards", 0) and not args.quiet:
        for shard_id, counters in enumerate(db.shard_counters()):
            print(f"shard {shard_id}: {counters.page_reads} page reads, "
                  f"{counters.buffer_hits} buffer hits")
    return 0


def _serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import logging
    import tempfile

    if args.log_level is not None:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
        logging.getLogger("repro.serve").setLevel(
            getattr(logging, args.log_level.upper())
        )
    if args.window_ms < 0:
        raise QueryError(f"--window-ms must be >= 0, got {args.window_ms}")
    if args.max_batch < 1:
        raise QueryError(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.max_queue < 1:
        raise QueryError(f"--max-queue must be >= 1, got {args.max_queue}")
    if args.workers < 1:
        raise QueryError(f"--workers must be >= 1, got {args.workers}")
    if args.cache_size < 0:
        raise QueryError(f"--cache-size must be >= 0, got {args.cache_size}")
    if args.slow_query_ms < 0:
        raise QueryError(
            f"--slow-query-ms must be >= 0, got {args.slow_query_ms}"
        )
    slow_log = None
    if args.slow_query_log:
        if args.workers > 1:
            raise QueryError(
                "--slow-query-log records from the single-process server's "
                "engine; fleet workers run in separate processes (drop "
                "--workers or the slow-query flags)"
            )
        slow_log = SlowQueryLog(args.slow_query_log,
                                threshold_ms=args.slow_query_ms)
    backend_kind, _ = _resolve_backend(args)
    if args.workers > 1 and backend_kind != "compact":
        raise QueryError(
            "--workers > 1 runs a multi-process fleet over a shared CSR "
            "snapshot, which needs the compact backend: add --backend "
            "compact"
        )
    graph, points = load_graph(args.graph)
    snapshot_dir: tempfile.TemporaryDirectory | None = None
    if args.workers > 1:
        from repro.serve.fleet import FleetServer

        # workers materialize and build their own oracles from the
        # snapshot, so skip that work on the parent's throwaway copy
        threshold = getattr(args, "compact_threshold", None)
        parent_db = CompactDatabase(graph, points, compact_threshold=threshold)
        snapshot_dir = tempfile.TemporaryDirectory(prefix="repro-serve-")
        parent_db.save_snapshot(snapshot_dir.name)
        backend = "compact"
        server = FleetServer(
            snapshot_dir.name,
            workers=args.workers,
            window=args.window_ms / 1000.0,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            materialize=args.materialize,
            oracle_landmarks=args.oracle_landmarks if args.oracle else None,
            cache_entries=args.cache_size,
        )
    else:
        from repro.serve.server import RknnServer

        db, backend = _open_backend(args, graph, points)
        server = RknnServer(
            db,
            window=args.window_ms / 1000.0,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            workers=args.workers,
            cache_entries=args.cache_size,
            slow_log=slow_log,
        )

    def ready(address: tuple[str, int]) -> None:
        host, port = address
        print(f"serving {args.graph} ({backend}) on {host}:{port} "
              f"[window {args.window_ms:g} ms, batch <= {args.max_batch}, "
              f"queue <= {args.max_queue}, {args.workers} worker(s)]",
              flush=True)
        if args.ready_file:
            with open(args.ready_file, "w") as handle:
                handle.write(f"{host}:{port}\n")

    try:
        asyncio.run(server.run(args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        # a stale ready file would make a supervisor believe a dead (or
        # restarting) server is already accepting connections
        if args.ready_file:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(args.ready_file)
        if snapshot_dir is not None:
            snapshot_dir.cleanup()
    return 0


def _trace(args: argparse.Namespace) -> int:
    """Pretty-print a captured trace file as an indented span tree."""
    try:
        with open(args.file) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise QueryError(f"cannot read {args.file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise QueryError(f"{args.file} is not JSON: {exc}") from exc
    if isinstance(payload, dict) and "trace" in payload:
        # a saved serve response or EXPLAIN payload: unwrap its trace
        payload = payload["trace"]
    try:
        lines = render_trace(payload)
    except (KeyError, TypeError, AttributeError) as exc:
        raise QueryError(
            f"{args.file} does not look like a trace payload "
            f"({{'spans': [...]}} or a span list): {exc!r}"
        ) from exc
    if not lines:
        print("(empty trace)")
        return 0
    for line in lines:
        print(line)
    return 0


def _shard_build(args: argparse.Namespace) -> int:
    graph, points = load_graph(args.graph)
    if points is not None and not isinstance(points, NodePointSet):
        raise QueryError(
            "the sharded backend serves restricted (node-placed) data sets"
        )
    point_nodes = (frozenset(node for _, node in points.items())
                   if points is not None else frozenset())
    store = ShardedGraphStore(
        graph,
        num_shards=args.shards,
        order=args.order,
        buffer_pages=args.buffer_pages,
        point_nodes=point_nodes,
    )
    print(f"cut {graph.num_nodes} nodes / {graph.num_edges} edges into "
          f"{store.num_shards} shard(s) ({args.order} order): "
          f"{store.num_cut_edges} cut edges "
          f"({store.num_cut_edges / max(1, graph.num_edges):.1%} of edges)")
    for shard in store.shards:
        print(f"shard {shard.shard_id}: {shard.num_nodes} nodes, "
              f"{shard.num_intra_edges} intra edges, "
              f"{shard.num_boundary_nodes} boundary nodes, "
              f"{shard.disk.num_pages} pages, "
              f"{shard.buffer.capacity_pages} buffer pages")
    if args.assignment:
        with open(args.assignment, "w") as handle:
            for node, shard_id in enumerate(store.plan.assignment):
                handle.write(f"{node} {shard_id}\n")
        print(f"wrote assignment to {args.assignment}")
    return 0


def _compact_build(args: argparse.Namespace) -> int:
    graph, points = load_graph(args.graph)
    if points is not None and not isinstance(points, NodePointSet):
        raise QueryError(
            "the compact backend serves restricted (node-placed) data sets"
        )
    start = time.perf_counter()
    db = CompactDatabase(graph, points, node_order=args.order)
    elapsed = time.perf_counter() - start
    # the page count the disk layout would need, without building it
    order = (bfs_order(graph) if args.order == "bfs" else hilbert_order(graph))
    sizes = [adjacency_record_size(graph.degree(v))
             for v in range(graph.num_nodes)]
    disk_pages = len(partition_nodes(order, sizes))
    csr = db.store.csr
    print(f"flattened {graph.num_nodes} nodes / {graph.num_edges} edges "
          f"into CSR arrays in {elapsed:.3f} s ({args.order} order)")
    print(f"arrays: {len(csr.offsets)} offsets + {len(csr.targets)} targets "
          f"+ {len(csr.weights)} weights = {csr.nbytes:,} bytes "
          f"(vs {disk_pages} disk pages)")
    print("adjacency reads are free: no pages, no buffer, no charged I/O")
    return 0


def _compact_compact(args: argparse.Namespace) -> int:
    graph, points = load_graph(args.graph)
    if points is not None and not isinstance(points, NodePointSet):
        raise QueryError(
            "the compact backend serves restricted (node-placed) data sets"
        )
    if args.threshold is not None and args.threshold < 1:
        raise QueryError(f"--threshold must be >= 1, got {args.threshold}")
    db = CompactDatabase(graph, points, compact_threshold=args.threshold)
    applied = 0
    if args.mutations:
        with open(args.mutations) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    op = entry["op"]
                    if op in ("insert", "insert-point"):
                        db.insert_point(int(entry["pid"]), int(entry["node"]))
                    elif op in ("delete", "delete-point"):
                        db.delete_point(int(entry["pid"]))
                    elif op == "insert-edge":
                        db.insert_edge(int(entry["u"]), int(entry["v"]),
                                       float(entry["weight"]))
                    elif op == "delete-edge":
                        db.delete_edge(int(entry["u"]), int(entry["v"]))
                    else:
                        raise QueryError(f"unknown mutation op {op!r}")
                except (KeyError, TypeError, ValueError,
                        json.JSONDecodeError, ReproError) as exc:
                    raise QueryError(
                        f"{args.mutations}:{lineno}: bad mutation: {exc!r}"
                    ) from exc
                applied += 1
    pending = db.overlay.epoch
    print(f"applied {applied} mutation(s) through the delta overlay: "
          f"stamp {db.stamp}, {pending} pending delta op(s)")
    outcome = db.compact()
    print(f"folded {outcome.affected_nodes} delta op(s) into base "
          f"generation {db.base_generation} "
          f"({db.store.num_nodes} nodes / {db.store.num_edges} edges, "
          f"{sum(1 for _ in db.points.items())} points); "
          f"stamp {db.stamp}")
    print("readers pinned to older stamps keep their snapshot: "
          "compaction swaps the base, it never drains")
    return 0


def _oracle_build(args: argparse.Namespace) -> int:
    graph, points = load_graph(args.graph)
    if points is not None and not isinstance(points, NodePointSet):
        raise QueryError(
            "the distance oracle serves restricted (node-placed) data sets"
        )
    if args.backend == "sharded":
        db = ShardedDatabase(graph, points, num_shards=args.shards,
                             buffer_pages=args.buffer_pages)
    elif args.backend == "compact":
        db = CompactDatabase(graph, points)
    else:
        db = GraphDatabase(graph, points, buffer_pages=args.buffer_pages)
    report = db.build_oracle(args.landmarks, seed=args.seed,
                             strategy=args.strategy)
    print(f"selected {len(report.landmarks)} landmarks "
          f"({args.strategy}): {list(report.landmarks)}")
    print(f"labels: {report.entries} (landmark, node) distances over "
          f"{graph.num_nodes} nodes, {report.pages} pages on the "
          f"{args.backend} store")
    print(f"build cost: {report.io} page I/Os, "
          f"{report.cpu_seconds * 1000:.2f} ms CPU, "
          f"total {report.total_seconds():.4f} s at 10 ms/I-O")
    print("queries with the oracle attached return identical answers "
          "while expanding fewer edges")
    return 0


def _plan(args: argparse.Namespace) -> int:
    graph, points = load_graph(args.graph)
    if points is None or len(points) == 0:
        raise QueryError("planning needs a data set with points")
    db = GraphDatabase(graph, points)
    if args.materialize > 0:
        db.materialize(args.materialize)
    planner = CalibratingPlanner(db, samples=args.samples)
    print(planner.plan_for(args.k).explain())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
