"""Answer verification, run after the timed window.

Every served answer is compared with an in-process reference over the
same data set: ``CompactDatabase(graph, points).engine(batch_kernel=
False)``, the scalar path.  The reference answers every RkNN spec with
the eager method, whatever method the request named: methods are
answer-equivalent, so a served lazy answer is checked against an
independent algorithm, and the slowest method on this grid (lazy with
k=2) is not paid twice.  For the read-write workload the
acknowledged writes are replayed in order and each read is checked at
its response's ``delta_epoch`` through
:meth:`~repro.compact.db.CompactDatabase.at_epoch`.

A response counts as failed when its ``status`` is not ``ok``
(``error`` or ``overloaded``) or its answer differs from the
reference's.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field, replace

from repro.compact.db import CompactDatabase
from repro.engine.spec import QuerySpec
from repro.serve.protocol import result_payload


@dataclass
class Verdict:
    """How many answers were checked and how many failed."""

    checked: int = 0
    failed: int = 0
    examples: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        """Record ``count`` failed answers (the first few keep detail)."""
        self.failed += count
        if len(self.examples) < 5:
            self.examples.append(message)


def spec_of(payload: dict) -> QuerySpec:
    """The :class:`QuerySpec` a ``query`` request payload asks for."""
    return QuerySpec.from_payload(
        {key: value for key, value in payload.items() if key != "op"}
    )


def answer_of(engine, spec: QuerySpec) -> dict:
    """The reference answer fields (``points`` or ``neighbors``)."""
    if spec.kind == "rknn":
        spec = replace(spec, method="eager")
    body = json.loads(json.dumps(result_payload(engine.run(spec), 0)))
    return {key: body[key] for key in ("points", "neighbors") if key in body}


def check_line(verdict: Verdict, line: bytes, expected: dict,
               what: str, count: int = 1) -> dict | None:
    """Check a response line (seen ``count`` times) against the
    expected answer fields; return its parsed body (``None`` if it was
    not valid JSON)."""
    verdict.checked += count
    try:
        body = json.loads(line)
    except ValueError:
        verdict.fail(f"{what}: unparsable response {line[:80]!r}", count)
        return None
    if body.get("status") != "ok":
        verdict.fail(f"{what}: status {body.get('status')!r} "
                     f"{body.get('error', '')}", count)
        return body
    for key, value in expected.items():
        if body.get(key) != value:
            verdict.fail(f"{what}: {key} {body.get(key)!r} != "
                         f"reference {value!r}", count)
            break
    return body


def verify_reads(graph, points, ops) -> Verdict:
    """Check every distinct response of a read-only workload.

    ``ops`` is any iterable of :class:`~servebench.load.Op` whose
    payloads are ``query`` requests; identical (request, response)
    pairs are checked once but counted for each occurrence.
    """
    engine = CompactDatabase(graph, points).engine(batch_kernel=False)
    distinct: dict[tuple[str, bytes], int] = defaultdict(int)
    for op in ops:
        distinct[json.dumps(op.payload, sort_keys=True), op.response] += 1
    verdict = Verdict()
    for (payload, line), count in distinct.items():
        expected = answer_of(engine, spec_of(json.loads(payload)))
        check_line(verdict, line, expected, payload, count)
    return verdict


def verify_read_write(graph, points, ops) -> Verdict:
    """Replay acknowledged writes; check each read at its epoch.

    ``ops`` is the workload's single-connection sequence (warm-up reads
    first, then the timed window), so its order is the server's order.
    Each write must be acknowledged at the next epoch; each read must
    equal the reference answer at its response's ``delta_epoch``.
    """
    verdict = Verdict()
    db = CompactDatabase(graph, points)
    reads: dict[int, list] = defaultdict(list)  # epoch -> read ops
    epoch = 0
    for op in ops:
        op_kind = op.payload["op"]
        if op_kind == "query":
            try:
                body = json.loads(op.response)
            except ValueError:
                body = {}
            reads[body.get("delta_epoch", -1)].append(op)
            continue
        body = check_line(verdict, op.response, {"delta_epoch": epoch + 1},
                          f"{op_kind} {op.payload['pid']}")
        if body is None or body.get("status") != "ok":
            continue  # an unacknowledged write is not replayed
        epoch += 1
        if op_kind == "insert":
            db.insert_point(op.payload["pid"], op.payload["location"])
        else:
            db.delete_point(op.payload["pid"])
    for read_epoch, read_ops in sorted(reads.items()):
        if not 0 <= read_epoch <= db.delta_epoch:
            verdict.checked += len(read_ops)
            verdict.fail(f"{len(read_ops)} reads at epoch {read_epoch}, "
                         f"outside 0 .. {db.delta_epoch}", len(read_ops))
            continue
        engine = db.at_epoch(read_epoch).engine(batch_kernel=False)
        expected: dict[str, dict] = {}
        for op in read_ops:
            key = json.dumps(op.payload, sort_keys=True)
            if key not in expected:
                expected[key] = answer_of(engine, spec_of(op.payload))
            check_line(verdict, op.response, expected[key],
                       f"{key} at epoch {read_epoch}")
    return verdict
