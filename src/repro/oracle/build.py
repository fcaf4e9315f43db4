"""Oracle preprocessing: landmark selection and per-backend labeling.

Selection uses the farthest-point heuristic (each new landmark is the
node farthest from the current set), which pushes landmarks to the
periphery where triangle-inequality bounds are tight; ``"random"`` is
the cheap baseline.  Labeling runs one single-source expansion per
landmark, with one of two kernels:

* :func:`store_landmark_distances` -- Dijkstra over any object with
  the ``neighbors`` protocol.  Over a
  :class:`~repro.storage.disk.DiskGraph` every adjacency read is
  charged through the buffer; over a sharded store the same traversal
  decomposes into per-shard frontiers stitched at boundary vertices,
  each read charged to the owning shard; over a compact store without
  NumPy it reads the CSR arrays for free.
* :func:`csr_landmark_distances` -- Dijkstra whose relaxation step is
  NumPy slice arithmetic over the CSR flat arrays; no pages, no
  charging.

Both kernels return the same dense table shape, so the oracle built by
any backend is interchangeable with the others (each backend's tables
are exact distances; bound soundness never depends on which kernel
produced them).
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Callable, Sequence

from repro.errors import QueryError

try:  # pragma: no cover - exercised through whichever path is available
    import numpy as _np
except ImportError:  # pragma: no cover - callers fall back to the store kernel
    _np = None

#: Landmark-selection strategies accepted by :func:`select_landmarks`.
STRATEGIES = ("farthest", "random")

#: Default landmark count: enough for tight grid/spatial bounds while
#: keeping the label table at 8 doubles per node.
DEFAULT_LANDMARKS = 8

DistanceFn = Callable[[int], list[float]]


def store_landmark_distances(store, num_nodes: int, source: int) -> list[float]:
    """Single-source Dijkstra over a paged store's ``neighbors`` protocol.

    Reads are whatever the store charges them as: buffered logical
    reads for the single disk store, per-shard charged reads (crossing
    shard boundaries through the boundary tables) for a sharded store.

    Parameters
    ----------
    store:
        Any object exposing ``neighbors(node) -> ((nbr, weight), ...)``.
    num_nodes:
        Dense node-id range of the graph.
    source:
        The landmark whose table is being computed.

    Returns
    -------
    list of float
        ``table[v] = d(source, v)`` with ``inf`` for unreachable nodes.
    """
    dist = [math.inf] * num_nodes
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nbr, weight in store.neighbors(node):
            nd = d + weight
            if nd < dist[nbr]:
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return dist


def csr_landmark_distances(csr, source: int) -> list[float]:
    """Single-source Dijkstra with CSR-sliced (vectorized) relaxation.

    Each settled node relaxes its whole adjacency range
    ``offsets[v]:offsets[v+1]`` at once as NumPy array arithmetic
    (requires NumPy; without it, run :func:`store_landmark_distances`
    over the compact store).  Free: the compact backend has no pages
    to charge.

    Parameters
    ----------
    csr:
        A :class:`~repro.compact.csr.CSRGraph` (``offsets`` /
        ``targets`` / ``weights`` flat arrays).
    source:
        The landmark whose table is being computed.

    Returns
    -------
    list of float
        ``table[v] = d(source, v)`` with ``inf`` for unreachable nodes.
    """
    if _np is None:
        raise QueryError("csr_landmark_distances needs NumPy")
    offsets = csr.offsets
    targets = _np.asarray(csr.targets, dtype=_np.int64)
    weights = _np.asarray(csr.weights, dtype=_np.float64)
    dist = _np.full(csr.num_nodes, _np.inf, dtype=_np.float64)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        lo, hi = offsets[node], offsets[node + 1]
        if lo == hi:
            continue
        span_targets = targets[lo:hi]
        candidate = d + weights[lo:hi]
        improved = candidate < dist[span_targets]
        if not improved.any():
            continue
        hits = span_targets[improved]
        values = candidate[improved]
        dist[hits] = values
        for nbr, nd in zip(hits.tolist(), values.tolist()):
            heapq.heappush(heap, (nd, nbr))
    return dist.tolist()


def select_landmarks(
    distance_fn: DistanceFn,
    num_nodes: int,
    count: int = DEFAULT_LANDMARKS,
    *,
    seed: int = 0,
    strategy: str = "farthest",
) -> tuple[list[int], list[list[float]]]:
    """Pick ``count`` landmarks and compute their distance tables.

    Parameters
    ----------
    distance_fn:
        Backend kernel mapping a source node to its dense distance
        table (one of the ``*_landmark_distances`` functions, bound to
        a store).
    num_nodes:
        Dense node-id range.
    count:
        Number of landmarks ``L``.
    seed:
        Seeds the first pick (and every pick under ``"random"``).
    strategy:
        ``"farthest"`` (default) or ``"random"``.

    Returns
    -------
    (landmarks, tables)
        Selection-ordered landmark ids and their distance tables.
    """
    if count < 1:
        raise QueryError(f"need at least one landmark, got {count}")
    if count > num_nodes:
        raise QueryError(f"cannot pick {count} landmarks from {num_nodes} nodes")
    if strategy not in STRATEGIES:
        raise QueryError(
            f"unknown landmark strategy {strategy!r}; choose one of {STRATEGIES}"
        )
    rng = random.Random(seed)
    landmarks = [rng.randrange(num_nodes)]
    tables = [distance_fn(landmarks[0])]
    while len(landmarks) < count:
        if strategy == "random":
            nxt = rng.choice([v for v in range(num_nodes) if v not in landmarks])
        else:
            nxt = _farthest_node(tables, num_nodes, landmarks)
        landmarks.append(nxt)
        tables.append(distance_fn(nxt))
    return landmarks, tables


def _farthest_node(
    tables: Sequence[Sequence[float]], num_nodes: int, chosen: Sequence[int]
) -> int:
    """The node maximizing the distance to its nearest chosen landmark.

    Nodes unreachable from every current landmark sit in an uncovered
    component; the lowest-id one is preferred outright, so disconnected
    graphs get at least one landmark per component (bounds of ``inf``
    then correctly separate components).
    """
    chosen_set = set(chosen)
    best_node = -1
    best_dist = -1.0
    for node in range(num_nodes):
        if node in chosen_set:
            continue
        nearest = min(table[node] for table in tables)
        if math.isinf(nearest):
            return node  # uncovered component: claim it immediately
        if nearest > best_dist:
            best_dist = nearest
            best_node = node
    if best_node < 0:
        raise QueryError("no candidate nodes left for landmarks")
    return best_node
