"""Ablation: does topology-aware page packing matter?

The paper stores adjacency lists of neighboring nodes in the same page
(the Chan & Zhang grouping); DESIGN.md implements this as BFS-order
packing with an optional Hilbert-order packer for spatial graphs.  This
ablation runs identical workloads over three physical layouts of the
same network -- BFS order, Hilbert order, and a random order (no
locality) -- and reports the I/O difference.  Expected: random packing
costs substantially more I/O at small buffer sizes; BFS and Hilbert are
comparable on road networks.
"""

import random

from repro import GraphDatabase
from repro.bench.harness import run_workload
from repro.bench.report import format_table, save_report
from repro.datasets.spatial import generate_spatial
from repro.datasets.workload import data_queries, place_edge_points

DENSITY = 0.01


def test_ablation_page_packing(benchmark, profile):
    def experiment():
        graph = generate_spatial(
            max(1_200, profile.spatial_nodes // 2), seed=91
        )
        points = place_edge_points(graph, DENSITY, seed=92)
        layouts = {}
        layouts["bfs"] = GraphDatabase(
            graph, points, buffer_pages=profile.buffer_pages
        )
        layouts["hilbert"] = GraphDatabase(
            graph, points, node_order="hilbert",
            buffer_pages=profile.buffer_pages,
        )
        # random layout: shuffle the BFS order through a custom database
        random_db = GraphDatabase(
            graph, points, buffer_pages=profile.buffer_pages
        )
        shuffled = list(range(graph.num_nodes))
        random.Random(93).shuffle(shuffled)
        from repro.core.network import NetworkView
        from repro.storage.disk import DiskGraph, EdgePointStore

        random_db.storage.adjacency = DiskGraph(
            graph, random_db.buffer,
            page_size=random_db.page_size, order=shuffled,
        )
        random_db.view = NetworkView(
            random_db.disk, points, random_db.tracker,
            EdgePointStore(
                graph, points, random_db.buffer,
                page_size=random_db.page_size, order=shuffled,
            ),
        )
        layouts["random"] = random_db

        rows = []
        for name, db in layouts.items():
            queries = data_queries(db.points, count=profile.workload_size,
                                   seed=94)
            for method in ("eager", "lazy"):
                cost = run_workload(db, queries, k=1, method=method)
                rows.append({"layout": name, **cost.row()})
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    text = format_table(
        "Ablation -- page-packing order (SF-like, D=0.01, k=1)", rows
    )
    print("\n" + text)
    save_report("ablation_packing", text)

    if profile.name == "smoke":
        return  # smoke scale only checks the pipeline; shapes need size

    # random packing must cost more I/O than topology-aware packing
    def io_of(layout, method):
        return next(
            r["io"] for r in rows
            if r["layout"] == layout and r["method"] == method
        )

    for method in ("eager", "lazy"):
        assert io_of("random", method) > io_of("bfs", method)
