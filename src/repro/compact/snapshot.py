"""On-disk snapshots of a compact database.

A snapshot is a directory holding the immutable pieces a
:class:`~repro.compact.db.CompactDatabase` is built from, each in the
flattest format that will carry it:

* ``graph.csr`` -- the CSR kernel in the :mod:`repro.compact.csr`
  on-disk format (mappable);
* ``order.i64`` -- the packing order behind the planner's locality
  rank, raw little-endian int64;
* ``coords.f64`` -- optional node coordinates, raw little-endian
  float64 ``x0 y0 x1 y1 ...``;
* ``meta.json`` -- format version plus the point set.

:func:`load_snapshot` rebuilds the database in **constant time** when
``mmap=True``: the CSR arrays become read-only ``numpy.memmap`` views,
so N worker processes loading the same snapshot share one set of
physical pages -- ``read_clone`` made zero-copy *across* processes,
which is what the serve fleet (:mod:`repro.serve.fleet`) boots its
workers from.  The graph protocol over a loaded snapshot is served by
:class:`CSRGraphAdapter`; only the rare edge-mutation and compaction
paths ever pay to reconstruct an edge list from it.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from pathlib import Path

from repro.compact.csr import CSRGraph, _merge_edge_order
from repro.errors import GraphError

_FORMAT = 1
_GRAPH_FILE = "graph.csr"
_ORDER_FILE = "order.i64"
_COORDS_FILE = "coords.f64"
_META_FILE = "meta.json"


def _write_i64(path: Path, values) -> None:
    """Dump a sequence of ints as raw little-endian int64."""
    arr = array("q", values)
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI
        arr.byteswap()
    path.write_bytes(arr.tobytes())


def _read_flat(path: Path, typecode: str) -> array:
    """Read one raw little-endian flat file back into a stdlib array."""
    arr = array(typecode)
    arr.frombytes(path.read_bytes())
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI
        arr.byteswap()
    return arr


class CSRGraphAdapter:
    """Graph-protocol facade over a loaded CSR kernel.

    A snapshot stores no :class:`~repro.graph.graph.Graph`; rebuilding
    one would cost O(E) and defeat the constant-time mmap load.  This
    adapter serves the protocol straight off the kernel instead:
    counts, adjacency and degrees are direct array reads, and
    ``edges()`` -- needed only by the rare edge-mutation and
    compaction paths -- reconstructs a consistent global edge order
    lazily, once.
    """

    def __init__(self, csr: CSRGraph, coords=None):
        self._csr = csr
        #: Optional node coordinates (``None`` when the snapshot has none).
        self.coords = coords
        self._edges: list[tuple[int, int, float]] | None = None

    @property
    def num_nodes(self) -> int:
        """Node count of the underlying kernel."""
        return self._csr.num_nodes

    @property
    def num_edges(self) -> int:
        """Edge count of the underlying kernel."""
        return self._csr.num_edges

    def nodes(self) -> range:
        """Dense node id range."""
        return range(self._csr.num_nodes)

    def neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """``(neighbor, weight)`` pairs of ``node`` in kernel order."""
        return self._csr.neighbors(node)

    def degree(self, node: int) -> int:
        """Neighbor count of ``node``."""
        return self._csr.degree(node)

    def average_degree(self) -> float:
        """Average node degree (2|E| / |V|)."""
        return 2.0 * self.num_edges / self.num_nodes

    def edges(self):
        """Iterate the edges in an order consistent with every
        adjacency list (reconstructed lazily on first call)."""
        if self._edges is None:
            lists = [
                list(self._csr.neighbors(v)) for v in range(self.num_nodes)
            ]
            self._edges = _merge_edge_order(lists)
        return iter(self._edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraphAdapter({self._csr!r})"


def save_snapshot(db, path) -> Path:
    """Write ``db``'s immutable base to the snapshot directory ``path``.

    Requires a clean CSR base (no pending edge deltas -- ``compact()``
    first); pending *point* deltas are fine, the current point set is
    what gets recorded.  The loaded database starts a fresh stamp
    history at ``(0, 0)``.

    Parameters
    ----------
    db:
        A :class:`~repro.compact.db.CompactDatabase`.
    path:
        Snapshot directory (created if missing).

    Returns
    -------
    pathlib.Path
        The snapshot directory.
    """
    db._require_base_network("save_snapshot")
    root = Path(os.fspath(path))
    root.mkdir(parents=True, exist_ok=True)
    store = db._base_store
    store.csr.save(root / _GRAPH_FILE)
    order = [0] * store.num_nodes
    for node, position in enumerate(store._rank):
        order[position] = node
    _write_i64(root / _ORDER_FILE, order)
    coords = getattr(db.graph, "coords", None)
    if coords is not None:
        flat: list[float] = []
        for x, y in coords:
            flat.extend((float(x), float(y)))
        arr = array("d", flat)
        if sys.byteorder == "big":  # pragma: no cover - little-endian CI
            arr.byteswap()
        (root / _COORDS_FILE).write_bytes(arr.tobytes())
    meta = {
        "format": _FORMAT,
        "num_nodes": store.num_nodes,
        "has_coords": coords is not None,
        "points": {str(pid): node for pid, node in db.points.items()},
    }
    (root / _META_FILE).write_text(json.dumps(meta, sort_keys=True))
    return root


def load_snapshot(path, *, mmap: bool = True, compact_threshold=None):
    """Rebuild a :class:`~repro.compact.db.CompactDatabase` from ``path``.

    Parameters
    ----------
    path:
        A directory written by :func:`save_snapshot`.
    mmap:
        Map the CSR arrays read-only (constant-time load, physical
        pages shared across every process mapping the same snapshot)
        instead of copying them into private memory.
    compact_threshold:
        Forwarded to the database (auto-compaction trigger).

    Returns
    -------
    CompactDatabase
        Answering exactly what the saved database answered, starting
        at stamp ``(0, 0)``.
    """
    from repro.compact.db import CompactDatabase
    from repro.compact.store import CompactGraphStore
    from repro.points.points import NodePointSet

    root = Path(os.fspath(path))
    try:
        meta = json.loads((root / _META_FILE).read_text())
    except FileNotFoundError:
        raise GraphError(f"no snapshot at {root} (missing {_META_FILE})")
    if meta.get("format") != _FORMAT:
        raise GraphError(f"unsupported snapshot format {meta.get('format')!r}")
    csr = CSRGraph.load(root / _GRAPH_FILE, mmap=mmap)
    order = _read_flat(root / _ORDER_FILE, "q")
    coords = None
    if meta.get("has_coords"):
        flat = _read_flat(root / _COORDS_FILE, "d")
        coords = [
            (flat[2 * v], flat[2 * v + 1]) for v in range(csr.num_nodes)
        ]
    points = NodePointSet(
        {int(pid): int(node) for pid, node in meta["points"].items()}
    )
    db = CompactDatabase.__new__(CompactDatabase)
    db._setup(
        CSRGraphAdapter(csr, coords=coords), points,
        CompactGraphStore(order=order, csr=csr), compact_threshold,
    )
    return db
