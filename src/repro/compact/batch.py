"""Vectorized batch RkNN kernel over the compact CSR flat arrays.

The scalar paper algorithms answer one query at a time through Python
heap loops.  This module answers a whole *batch* of monochromatic
RkNN / continuous-RkNN queries in one numpy pass over the CSR arrays:

1. **Candidate rows.**  Every data point is one row of a distance
   table over ``(row, node)`` pairs.  All P single-source expansions
   run together as a *bucketed* Dijkstra: per round, every frontier
   entry whose tentative distance lies below ``row_min +
   min_edge_weight`` is final (no shorter path can still reach it,
   since every further relaxation adds at least the minimum edge
   weight to a label that is at least ``row_min``), so the whole
   bucket settles at once and the relaxation of all settled entries
   is one vectorized scatter-min.  The table is held *sparse*: only
   touched entries exist, keyed ``row * |V| + node`` -- a sorted
   frontier of the tentative labels and a sorted store of the settled
   ones (:class:`_TouchedLabels`).  A round costs O(frontier +
   relaxations) and the kernel's memory is O(entries touched), which
   the per-row bound below keeps to each row's settle radius (a row
   with fewer than ``m`` reachable competitors exhausts its
   component); nothing is ever sized ``P * |V|`` or ``P * P``.
2. **Adaptive bound.**  A row stops expanding once its ``m``-th
   nearest competitor settles, where ``m = max(k_b + |exclude_b|)``
   over the queries the row is still a candidate for -- the same
   radius the scalar ``verify`` proves sufficient: a point's k-th
   nearest competitor is never farther than its ``m``-th nearest
   point, so every distance a membership decision reads is settled
   (exact) by then.
3. **Membership.**  Point ``p`` is a reverse neighbor of query ``q``
   iff fewer than ``k`` non-excluded competitors are *strictly*
   closer to ``p`` than ``q`` -- equivalently, with ``t`` the k-th
   smallest competitor label, iff ``d(p, q) <= t``.  All distances in
   the comparison come from ``p``'s own row, exactly as the scalar
   ``verify`` compares only within one expansion, so the answers are
   bitwise identical to the scalar backends (same floating-point path
   folds, same exact ``<=``).  Both ``t`` and the adaptive bound are
   order statistics over the row's touched point-bearing entries
   (untouched ones are infinite), and ``d(p, q)`` is one key look-up.
4. **Oracle filtering.**  With a landmark oracle attached, whole rows
   are dropped before the expansion when the ALT bounds prove them
   non-members of *every* query in the batch, under the same
   ``EPS``-band guard as :mod:`repro.oracle.prune` -- answer
   preserving by the same argument, and gated by the same
   :func:`~repro.oracle.prune.scan_is_profitable` cost rule.  The
   competitor upper bounds are scanned a block of rows at a time.

The kernel charges the scalar cost model honestly: every settled
``(row, node)`` entry counts one node visit, one heap pop and the
node's degree in expanded edges (the charge the scalar Dijkstra makes
when it de-heaps that node), every label improvement one heap push,
every evaluated ``(query, candidate)`` pair one verification, and the
compact backend's I/O stays zero.  Shared expansion work is split
evenly across the batch so the per-query cost records sum exactly to
the work performed.

The same kernel serves directed databases: rows expand over the
*out*-arc CSR (distances ``d(p -> .)``), and the membership test reads
``d(p -> q)`` against the competitor labels ``d(p -> x)`` -- the
directed RkNN definition.

numpy is optional: :func:`numpy_available` reports whether the
vectorized path can run, and the facades fall back to the scalar
per-spec loop when it cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.numeric import EPS
from repro.oracle.prune import scan_is_profitable
from repro.storage.stats import CostTracker

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None

#: Counter fields of the shared expansion work, split evenly across
#: the batch so per-query records sum to the total charged.
_SHARED_FIELDS = ("nodes_visited", "edges_expanded", "heap_pushes", "heap_pops")


def numpy_available() -> bool:
    """Whether the vectorized kernel can run (numpy is importable)."""
    return _np is not None


@dataclass(frozen=True)
class BatchRequest:
    """One RkNN membership question posed to the batch kernel.

    Attributes
    ----------
    sources:
        The query's source nodes: ``(query,)`` for a point query, the
        route's nodes for a continuous query (a point qualifies
        against its *nearest* route node, matching the scalar route
        semantics).
    k:
        Neighborhood size (>= 1).
    exclude:
        Point ids hidden for this request's duration.
    """

    sources: tuple[int, ...]
    k: int
    exclude: frozenset[int]


def _split_shared(charges: list[CostTracker], totals: dict) -> None:
    """Distribute the batch's shared expansion counters evenly.

    Division remainders go to the leading requests, so the per-request
    records always sum exactly to the charged totals (the cost model
    never undercounts).
    """
    count = len(charges)
    for name, total in totals.items():
        base, extra = divmod(int(total), count)
        for i, charge in enumerate(charges):
            setattr(charge, name,
                    getattr(charge, name) + base + (1 if i < extra else 0))


#: Cells per block of the oracle filter's competitor upper-bound table:
#: rows are scanned a block at a time so no ``(P, P)`` table is built.
_ORACLE_BLOCK_CELLS = 1 << 16


def _oracle_row_filter(oracle, pnodes, requests, excluded, eligible,
                       charges):
    """Drop candidate rows the ALT bounds prove non-members everywhere.

    For each still-eligible ``(row, request)`` pair the filter compares
    the oracle's *lower* bound on ``d(p, q)`` against the inflated
    ``k``-th smallest *upper* bound on the competitor distances: when
    the lower bound clears it beyond the ``EPS`` tie band, the true
    distance provably exceeds the true membership threshold and the
    pair is pruned (charged as ``oracle_prunes``).  Mirrors the scalar
    verification short-circuit of :mod:`repro.oracle.prune`, batched.
    """
    np = _np
    labels = oracle.labels_matrix()
    point_labels = labels[pnodes]  # (P, L)
    num_points = len(pnodes)
    thresholds = np.full((len(requests), num_points), np.inf)
    block = max(1, _ORACLE_BLOCK_CELLS // num_points)
    for lo in range(0, num_points, block):
        hi = min(num_points, lo + block)
        # competitor upper bounds: min over landmarks of label sums
        ub = np.full((hi - lo, num_points), np.inf)
        for column in point_labels.T:
            np.minimum(ub, column[lo:hi, None] + column[None, :], out=ub)
        ub[pnodes[lo:hi, None] == pnodes[None, :]] = 0.0  # same node: exact zero
        ub[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # self: no competitor
        for b, request in enumerate(requests):
            if request.k > num_points:
                continue
            competitors = ub
            if excluded[b]:
                competitors = ub.copy()
                competitors[:, excluded[b]] = np.inf
            thresholds[b, lo:hi] = np.partition(
                competitors, request.k - 1, axis=1)[:, request.k - 1]
    for b, request in enumerate(requests):
        lower = None
        for source in request.sources:
            with np.errstate(invalid="ignore"):
                gap = np.abs(point_labels - labels[source])
            gap = np.where(np.isnan(gap), 0.0, gap)  # both ends unreachable
            bound = gap.max(axis=1)
            bound[pnodes == source] = 0.0
            lower = bound if lower is None else np.minimum(lower, bound)
        threshold = thresholds[b]
        inflated = np.where(np.isinf(threshold), threshold,
                            threshold + EPS * np.abs(threshold))
        # strictly_less(inflated, lower), vectorized with exact inf rules
        margin = EPS * np.maximum(np.abs(inflated), np.abs(lower))
        either_inf = np.isinf(inflated) | np.isinf(lower)
        prune = np.where(either_inf, inflated < lower,
                         inflated < lower - margin)
        prune &= eligible[:, b]
        pruned = int(prune.sum())
        if pruned:
            charges[b].oracle_prunes += pruned
            eligible[prune, b] = False


def _contains(keys, probes):
    """Positions of ``probes`` in the sorted ``keys``, and which are there."""
    at = _np.searchsorted(keys, probes)
    if not len(keys):
        return at, _np.zeros(len(probes), dtype=bool)
    return at, keys[_np.minimum(at, len(keys) - 1)] == probes


class _TouchedLabels:
    """Every finite ``(row, node)`` label of the expansion, and nothing else.

    Entries are keyed ``row * |V| + node``.  ``settled`` holds the final
    labels; ``frontier`` the tentative ones (including labels past their
    row's bound, which no longer expand but still answer look-ups).  A
    key lives in at most one of the two, and both stay sorted, so a
    row's entries are one contiguous slice of each and a look-up is a
    binary search.  Memory is O(entries touched), never O(P * |V|).
    """

    def __init__(self, num_nodes, frontier_key):
        np = _np
        self.num_nodes = num_nodes
        self.frontier_key = frontier_key
        self.frontier_dist = np.zeros(len(frontier_key))
        self.settled_key = np.empty(0, dtype=np.int64)
        self.settled_dist = np.empty(0)

    def settle(self, process):
        """Move the masked frontier entries into the settled store."""
        np = _np
        key = self.frontier_key[process]
        dist = self.frontier_dist[process]
        self.frontier_key = self.frontier_key[~process]
        self.frontier_dist = self.frontier_dist[~process]
        at = np.searchsorted(self.settled_key, key)
        self.settled_key = np.insert(self.settled_key, at, key)
        self.settled_dist = np.insert(self.settled_dist, at, dist)
        return key, dist

    def is_settled(self, key):
        return _contains(self.settled_key, key)[1]

    def improve(self, key, best):
        """Lower the labels of the sorted unique ``key`` to ``best``
        where that improves them; returns the number improved."""
        np = _np
        at, present = _contains(self.frontier_key, key)
        current = np.full(len(key), np.inf)
        current[present] = self.frontier_dist[at[present]]
        improved = best < current
        update = improved & present
        self.frontier_dist[at[update]] = best[update]
        insert = improved & ~present
        self.frontier_key = np.insert(
            self.frontier_key, at[insert], key[insert])
        self.frontier_dist = np.insert(
            self.frontier_dist, at[insert], best[insert])
        return int(improved.sum())

    def _stores(self):
        return ((self.settled_key, self.settled_dist),
                (self.frontier_key, self.frontier_dist))

    def lookup(self, key):
        """Labels of ``key`` (``inf`` where untouched)."""
        np = _np
        out = np.full(len(key), np.inf)
        for keys, dists in self._stores():
            at, present = _contains(keys, key)
            out[present] = dists[at[present]]
        return out

    def on_points(self, pts_on_node, rows=None):
        """``(rows, nodes, labels)`` of the touched entries on
        point-bearing nodes, of the sorted ``rows`` (default: all)."""
        np = _np
        parts = []
        for keys, dists in self._stores():
            if rows is not None:
                lo, hi = np.searchsorted(
                    keys, np.stack((rows, rows + 1)) * self.num_nodes)
                picked = _runs(lo, hi - lo)
                keys, dists = keys[picked], dists[picked]
            kept = pts_on_node[keys % self.num_nodes] > 0
            parts.append((*np.divmod(keys[kept], self.num_nodes), dists[kept]))
        return tuple(np.concatenate(column) for column in zip(*parts))


def _runs(starts, lengths):
    """Concatenated ``range(start, start + length)`` runs, vectorized."""
    np = _np
    return np.arange(int(lengths.sum())) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths)


def _order_statistic(rows, dists, select, k):
    """The ``k``-th smallest label of each ``select`` row (``inf`` where
    the row has fewer); ``rows``/``dists`` sorted by row, then label."""
    np = _np
    start = np.searchsorted(rows, select)
    count = np.searchsorted(rows, select, side="right") - start
    out = np.full(len(select), np.inf)
    has = count >= k
    out[has] = dists[(start + k - 1)[has]]
    return out


def _relax(flat, labels, rows_idx, nodes_idx, source_dist, bound):
    """Relax every edge out of the just-settled ``(row, node)`` entries.

    Returns ``(edges expanded, heap pushes)``: each settled entry
    expands its node's full degree, and each improved label is one
    push.
    """
    np = _np
    offsets, targets, weights = flat
    num_nodes = labels.num_nodes
    degrees = offsets[nodes_idx + 1] - offsets[nodes_idx]
    total_edges = int(degrees.sum())
    if total_edges == 0:
        return 0, 0
    edge_index = _runs(offsets[nodes_idx], degrees)
    candidate = np.repeat(source_dist, degrees) + weights[edge_index]
    row_rep = np.repeat(rows_idx, degrees)
    linear = row_rep * num_nodes + targets[edge_index]
    # settled labels are final, and labels beyond the row's bound
    # can never decide a membership -- both relaxations are skipped
    keep = (candidate <= bound[row_rep]) & ~labels.is_settled(linear)
    if not keep.any():
        return total_edges, 0
    # the smallest candidate per key: sort by key, then value, and keep
    # the head of each run
    linear, candidate = linear[keep], candidate[keep]
    order = np.lexsort((candidate, linear))
    linear, candidate = linear[order], candidate[order]
    head = np.ones(len(linear), dtype=bool)
    head[1:] = linear[1:] != linear[:-1]
    return total_edges, labels.improve(linear[head], candidate[head])


def batch_rknn_kernel(
    flat,
    num_nodes: int,
    point_items: Sequence[tuple[int, int]],
    requests: Sequence[BatchRequest],
    oracle=None,
) -> tuple[list[list[int]], list[CostTracker]]:
    """Answer a batch of RkNN membership questions in one numpy pass.

    Parameters
    ----------
    flat:
        ``(offsets, targets, weights)`` numpy views of the CSR arrays
        the candidate expansions traverse (the undirected adjacency,
        or the out-arc triple of a directed kernel).
    num_nodes:
        Node count ``|V|`` of the network.
    point_items:
        ``(pid, node)`` pairs of the data set P, in a deterministic
        order (answers are returned as sorted pid lists regardless).
    requests:
        The batched :class:`BatchRequest` values.
    oracle:
        Optional :class:`~repro.oracle.oracle.DistanceOracle`; consulted
        for row pre-filtering only when
        :func:`~repro.oracle.prune.scan_is_profitable` says the scan
        pays for itself.

    Returns
    -------
    (answers, charges)
        Per-request sorted point-id lists, plus one
        :class:`~repro.storage.stats.CostTracker` per request whose
        fields sum to the batch's total charged work.
    """
    np = _np
    batch = len(requests)
    answers: list[list[int]] = [[] for _ in requests]
    charges = [CostTracker() for _ in requests]
    num_points = len(point_items)
    if num_points == 0 or batch == 0:
        return answers, charges

    weights = flat[2]
    pids = [pid for pid, _ in point_items]
    pnodes = np.array([node for _, node in point_items], dtype=np.int64)
    pts_on_node = np.bincount(pnodes, minlength=num_nodes)
    by_node = np.argsort(pnodes, kind="stable")
    first_point = np.cumsum(pts_on_node) - pts_on_node

    def competitor_runs(rows, nodes, dists):
        """One ``(row, point x, d(p, x))`` entry per competitor on the
        touched nodes (self excluded), sorted by row, then label."""
        copies = pts_on_node[nodes]
        point = by_node[_runs(first_point[nodes], copies)]
        rows, dists = np.repeat(rows, copies), np.repeat(dists, copies)
        other = point != rows
        order = np.lexsort((dists[other], rows[other]))
        return rows[other][order], point[other][order], dists[other][order]

    # (row, request) candidacy: a point is never a member of a query
    # that excludes it, and the oracle may retire more pairs up front
    excluded = [[r for r, pid in enumerate(pids) if pid in request.exclude]
                for request in requests]
    eligible = np.ones((num_points, batch), dtype=bool)
    for b, rows in enumerate(excluded):
        eligible[rows, b] = False
    if oracle is not None and scan_is_profitable(
            num_points, oracle.num_landmarks, num_nodes):
        _oracle_row_filter(oracle, pnodes, requests, excluded, eligible,
                           charges)

    # per-row expansion budget: settle the m nearest competitors, with
    # m covering every query the row is still a candidate for
    needed = np.array([request.k + len(request.exclude)
                       for request in requests], dtype=np.int64)
    m_rows = np.where(eligible, needed[None, :], 0).max(axis=1)

    live = np.nonzero(m_rows > 0)[0]
    labels = _TouchedLabels(num_nodes, live * num_nodes + pnodes[live])
    bound = np.full(num_points, np.inf)
    competitor_count = np.zeros(num_points, dtype=np.int64)
    min_weight = float(weights.min()) if weights.size else np.inf

    totals = {name: 0 for name in _SHARED_FIELDS}
    while True:
        front_rows = labels.frontier_key // num_nodes
        front_dist = labels.frontier_dist
        open_ = front_dist <= bound[front_rows]
        if not open_.any():
            break
        row_min = np.full(num_points, np.inf)
        np.minimum.at(row_min, front_rows[open_], front_dist[open_])
        # one bucket per row: entries below row_min + min_weight are
        # final -- any future relaxation lands at or above that line
        process = open_ & (front_dist < (row_min + min_weight)[front_rows])
        key, source_dist = labels.settle(process)
        rows_idx, nodes_idx = np.divmod(key, num_nodes)

        increments = (pts_on_node[nodes_idx]
                      - (nodes_idx == pnodes[rows_idx]).astype(np.int64))
        if increments.any():
            np.add.at(competitor_count, rows_idx, increments)
        newly = (competitor_count >= m_rows) & np.isinf(bound) & (m_rows > 0)
        if newly.any():
            # m-th smallest label over the row's touched competitors
            rows_new = np.nonzero(newly)[0]
            run_rows, _, run_dist = competitor_runs(
                *labels.on_points(pts_on_node, rows_new))
            bound[rows_new] = _order_statistic(
                run_rows, run_dist, rows_new, m_rows[rows_new])

        totals["nodes_visited"] += len(key)
        totals["heap_pops"] += len(key)
        edges, pushes = _relax(flat, labels, rows_idx, nodes_idx,
                               source_dist, bound)
        totals["edges_expanded"] += edges
        totals["heap_pushes"] += pushes

    # every competitor label d(p, x) on a touched point-bearing node;
    # untouched competitors are infinitely far
    comp_rows, comp_point, comp_dist = competitor_runs(
        *labels.on_points(pts_on_node))
    row_ids = np.arange(num_points)
    for b, request in enumerate(requests):
        candidates = eligible[:, b]
        charges[b].verifications += int(candidates.sum())
        sources = np.fromiter(request.sources, dtype=np.int64)
        query_dist = labels.lookup(
            (row_ids[:, None] * num_nodes + sources[None, :]).reshape(-1)
        ).reshape(num_points, len(sources)).min(axis=1)
        mask = ~np.isin(comp_point, excluded[b])
        threshold = _order_statistic(comp_rows[mask], comp_dist[mask],
                                     row_ids, request.k)
        member = candidates & np.isfinite(query_dist) & (query_dist <= threshold)
        answers[b] = sorted(pids[row] for row in np.nonzero(member)[0])

    _split_shared(charges, totals)
    return answers, charges
