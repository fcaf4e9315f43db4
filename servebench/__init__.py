"""Served benchmark: a real ``repro serve --backend compact`` process
driven over TCP by one seeded load generator.

``python3 servebench/run.py --workload serve_hot --seed 1 --seconds 20
--trace 0`` runs one workload from the repository root; ``--trace 1``
adds a traced pass whose per-layer breakdown comes from
``servebench/traced_server.py``.
"""
