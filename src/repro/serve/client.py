"""Blocking client for the serving tier (tests, benchmarks, replay).

:class:`ServeClient` speaks the JSON-lines protocol of
:mod:`repro.serve.protocol` over one TCP connection.  Requests can be
issued one at a time (:meth:`request`) or pipelined
(:meth:`pipeline`), which is what lets a single client drive the
server's micro-batcher to full batches.

The module is also the CI replay tool: ``python -m repro.serve.client
--address HOST:PORT --replay requests.jsonl`` replays a recorded
request log against a running server and fails on any ``error``
response::

    python -m repro generate --kind grid --nodes 100 --density 0.1 -o g.graph
    python -m repro serve g.graph --port 8750 &
    python -m repro.serve.client --address 127.0.0.1:8750 \\
        --replay benchmarks/data/serve_requests.jsonl
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from typing import Iterable, Sequence

from repro.serve import protocol


class ServeClient:
    """One blocking protocol connection to a running server.

    Parameters
    ----------
    host / port:
        The server's bound address (see
        :func:`~repro.serve.server.serve_in_thread` or ``repro serve``).
    timeout:
        Socket timeout in seconds for connects and reads.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        #: Pushed membership events buffered by :meth:`recv_response`
        #: (populated when requests and a subscription share the
        #: connection; drain with :meth:`recv` when awaiting events).
        self.events: list[dict] = []

    # -- plumbing -----------------------------------------------------------

    def send(self, payload: dict) -> None:
        """Send one request object without waiting for its response."""
        self._file.write(protocol.encode(payload))
        self._file.flush()

    def recv(self) -> dict:
        """Read the next response (or pushed event) object."""
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def recv_response(self) -> dict:
        """Read the next *response*, buffering pushed events.

        Membership events interleave with responses on a subscribed
        connection; letting them consume response slots would
        desynchronize pipelined request/response accounting, so they
        are parked in :attr:`events` instead.
        """
        while True:
            payload = self.recv()
            if "event" in payload:
                self.events.append(payload)
                continue
            return payload

    def request(self, payload: dict) -> dict:
        """Send one request and wait for its response."""
        self.send(payload)
        return self.recv_response()

    def pipeline(self, payloads: Sequence[dict]) -> list[dict]:
        """Send every request back to back, then collect the responses.

        Pipelining is what feeds the server's micro-batcher: the
        requests arrive together, the server admits them in one pass
        and executes them as shared engine batches.
        """
        for payload in payloads:
            self._file.write(protocol.encode(payload))
        self._file.flush()
        return [self.recv_response() for _ in payloads]

    # -- queries ------------------------------------------------------------

    def query(self, kind: str, query=None, k: int = 1, **fields) -> dict:
        """Run one query (``kind``, location, ``k`` plus spec fields)."""
        payload = {"op": "query", "kind": kind, "k": k, **fields}
        if query is not None:
            payload["query"] = query
        return self.request(payload)

    def rknn(self, query, k: int = 1, method: str = "eager", **fields) -> dict:
        """Reverse k-NN of a location."""
        return self.query("rknn", query, k, method=method, **fields)

    def knn(self, query, k: int = 1, **fields) -> dict:
        """Forward k-NN of a location."""
        return self.query("knn", query, k, **fields)

    # -- mutations and standing queries -------------------------------------

    def insert(self, pid: int, location) -> dict:
        """Insert a data point; returns the new generation."""
        return self.request({"op": "insert", "pid": pid, "location": location})

    def delete(self, pid: int) -> dict:
        """Delete a data point; returns the new generation."""
        return self.request({"op": "delete", "pid": pid})

    def compact(self) -> dict:
        """Fold the server's delta-overlay log into a fresh base.

        Compact backend only; the response carries the folded
        operation count and the new ``base_generation`` /
        ``delta_epoch`` snapshot stamp.
        """
        return self.request({"op": "compact"})

    def subscribe(self, queries: dict, k: int = 1) -> dict:
        """Register standing RkNN queries on this connection.

        After the acknowledgment, membership events arrive interleaved
        on this connection; read them with :meth:`recv`.
        """
        return self.request({"op": "subscribe",
                             "queries": {str(q): n for q, n in queries.items()},
                             "k": k})

    # -- introspection ------------------------------------------------------

    def metrics(self) -> dict:
        """The server's metrics snapshot."""
        return self.request({"op": "metrics"})

    def healthz(self) -> dict:
        """The server's health summary."""
        return self.request({"op": "healthz"})

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the connection."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def http_get_text(host: str, port: int, path: str,
                  timeout: float = 10.0) -> str:
    """Fetch one HTTP path and return the raw response body.

    The text form behind :func:`http_get`, also used directly for the
    Prometheus exposition at ``/metrics?format=prometheus`` (which is
    not JSON).
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                     f"Connection: close\r\n\r\n".encode("latin-1"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, body = raw.partition(b"\r\n\r\n")
    status = header.split(b"\r\n", 1)[0].decode("latin-1")
    if " 200 " not in f"{status} ":
        raise ConnectionError(f"HTTP request failed: {status}")
    return body.decode("utf-8")


def http_get(host: str, port: int, path: str, timeout: float = 10.0) -> dict:
    """Fetch ``/metrics`` or ``/healthz`` over plain HTTP (JSON body)."""
    return json.loads(http_get_text(host, port, path, timeout=timeout))


def replay(lines: Iterable[str], host: str, port: int,
           pipeline_size: int = 32) -> dict:
    """Replay a recorded request log; return a response tally.

    ``lines`` hold one request object per line (blank lines and ``#``
    comments skipped).  Requests are sent in pipelined chunks so the
    replay exercises the server's batching path.  Raises
    :class:`AssertionError` on any ``error`` response -- the CI smoke
    job treats a failed replay as a failed build.
    """
    payloads = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        payloads.append(json.loads(line))
    tally = {"requests": len(payloads), "ok": 0, "overloaded": 0, "events": 0}
    with ServeClient(host, port) as client:
        for start in range(0, len(payloads), pipeline_size):
            chunk = payloads[start:start + pipeline_size]
            for response in client.pipeline(chunk):
                status = response.get("status")
                if status == "ok":
                    tally["ok"] += 1
                elif status == "overloaded":
                    tally["overloaded"] += 1
                else:
                    raise AssertionError(f"replay got error response: {response}")
        tally["events"] = len(client.events)
    return tally


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: replay a request log against a running server."""
    parser = argparse.ArgumentParser(
        prog="repro.serve.client",
        description="replay a recorded request log against a repro server",
    )
    parser.add_argument("--address", required=True, metavar="HOST:PORT",
                        help="server address, e.g. 127.0.0.1:8750")
    parser.add_argument("--replay", required=True, metavar="FILE",
                        help="JSONL request log (one request per line)")
    parser.add_argument("--pipeline", type=int, default=32,
                        help="requests per pipelined chunk")
    args = parser.parse_args(argv)
    host, _, port = args.address.rpartition(":")
    with open(args.replay) as handle:
        tally = replay(handle, host, int(port), pipeline_size=args.pipeline)
    print(f"replayed {tally['requests']} requests: {tally['ok']} ok, "
          f"{tally['overloaded']} overloaded, {tally['events']} events")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
