"""``execute``: run qlang text or specs on any backend facade.

This is the implementation behind every facade's ``Database.query``
method -- one public surface accepting a statement string, a
:class:`~repro.engine.spec.QuerySpec`, or a sequence mixing both, and
answering through the database's batch engine so compiled plans share
the planner, the result cache and (where the backend offers one) the
vectorized batch kernel.

``EXPLAIN``-prefixed statements answer with an :class:`ExplainResult`
instead of a bare result: the compiled plan (:func:`build_plan`) plus
the executed span tree of a dedicated traced run
(:func:`explain_spec`) -- the query-level surface of
:mod:`repro.obs.trace`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from repro.engine.groups import needs_expansion
from repro.engine.planner import kernel_batch_kinds, resolve_method
from repro.engine.spec import QuerySpec
from repro.errors import QueryError
from repro.obs.trace import Tracer, render_trace
from repro.qlang.compiler import Statement, compile_statements, compile_text


@dataclass(frozen=True)
class ExplainResult:
    """What one ``EXPLAIN`` statement answers with.

    Attributes
    ----------
    result:
        The statement's actual answer (EXPLAIN executes the query; the
        paper's cost counters come from a real run, not an estimate).
    plan:
        The compiled plan as plain JSON: the lowered spec payload, the
        resolved method, the backend, whether the spec expands into
        sub-queries and whether the backend's vectorized kernel can
        serve it (see :func:`build_plan`).
    trace:
        The executed span tree, in :meth:`repro.obs.trace.Tracer.to_payload`
        wire form.
    """

    result: object
    plan: dict
    trace: dict

    def to_payload(self) -> dict:
        """Plan + trace as one JSON-serializable mapping (the wire and
        CLI form; the result itself travels separately)."""
        return {"explain": True, "plan": self.plan, "trace": self.trace}

    def render(self) -> list[str]:
        """Human-readable lines: the plan summary, then the span tree."""
        lines = [f"plan: {json.dumps(self.plan, sort_keys=True)}"]
        lines.extend(render_trace(self.trace))
        return lines


def build_plan(engine, spec: QuerySpec) -> dict:
    """Describe how ``engine`` would execute ``spec``, as plain JSON.

    This is the static half of ``EXPLAIN`` -- resolved before running:
    the lowered spec payload, the method after ``auto`` resolution, the
    backend name, the cache snapshot stamp, whether the spec expands
    into sub-queries (group kinds), and whether the backend's
    vectorized batch kernel is eligible to serve it.
    """
    resolved = resolve_method(spec, engine.calibrator)
    stamp = engine.cache_stamp
    return {
        "spec": json.loads(resolved.to_json()),
        "backend": engine.backend,
        "method": resolved.method,
        "cache_stamp": list(stamp) if isinstance(stamp, tuple) else stamp,
        "expands": needs_expansion(resolved),
        "kernel_eligible": bool(
            engine.batch_kernel
            and resolved.kind in kernel_batch_kinds(engine.db)
        ),
    }


def explain_spec(engine, spec: QuerySpec, workers: int = 1) -> ExplainResult:
    """Execute one spec traced and package plan + span tree.

    The spec runs as its own single-statement batch under a fresh
    :class:`~repro.obs.trace.Tracer` (engine-wide tracing stays off),
    so the returned tree covers exactly this statement.
    """
    plan = build_plan(engine, spec)
    tracer = Tracer()
    outcome = engine.run_batch([spec], workers=workers, tracer=tracer)
    return ExplainResult(result=outcome.results[0], plan=plan,
                         trace=tracer.to_payload())


def as_specs(query) -> tuple[list[QuerySpec], bool]:
    """Coerce ``query`` into specs; also report whether it was singular.

    A single spec, or a statement string compiling to exactly one
    statement, is *singular*: :func:`execute` unwraps its one result.
    Anything else (multi-statement scripts, sequences) answers as a
    list.
    """
    if isinstance(query, QuerySpec):
        return [query], True
    if isinstance(query, str):
        specs = compile_text(query)
        return specs, len(specs) == 1
    if isinstance(query, Sequence):
        specs = []
        for item in query:
            if isinstance(item, QuerySpec):
                specs.append(item)
            elif isinstance(item, str):
                specs.extend(compile_text(item))
            else:
                raise QueryError(
                    f"queries are statements or QuerySpecs, got "
                    f"{type(item).__name__}"
                )
        return specs, False
    raise QueryError(
        f"queries are statements or QuerySpecs, got {type(query).__name__}"
    )


def as_statements(query) -> tuple[list[Statement], bool]:
    """Like :func:`as_specs`, but keeping each statement's EXPLAIN flag.

    Bare :class:`QuerySpec` values become plain (non-explain)
    statements; strings compile through
    :func:`~repro.qlang.compiler.compile_statements`.
    """
    if isinstance(query, QuerySpec):
        return [Statement(spec=query)], True
    if isinstance(query, str):
        statements = compile_statements(query)
        return statements, len(statements) == 1
    if isinstance(query, Sequence):
        statements: list[Statement] = []
        for item in query:
            if isinstance(item, QuerySpec):
                statements.append(Statement(spec=item))
            elif isinstance(item, str):
                statements.extend(compile_statements(item))
            else:
                raise QueryError(
                    f"queries are statements or QuerySpecs, got "
                    f"{type(item).__name__}"
                )
        return statements, False
    raise QueryError(
        f"queries are statements or QuerySpecs, got {type(query).__name__}"
    )


def execute(db, query, *, engine=None, workers: int = 1):
    """Answer qlang text (or specs) on ``db`` through its batch engine.

    Parameters
    ----------
    db:
        Any backend facade exposing ``engine()`` (disk, sharded,
        compact, and their directed variants).
    query:
        A qlang statement string (possibly ``;``-separated), a
        :class:`~repro.engine.spec.QuerySpec`, or a sequence of either.
    engine:
        Reuse an existing :class:`~repro.engine.engine.QueryEngine`
        (keeps its result cache warm across calls); by default a fresh
        engine is built per call.
    workers:
        Worker sessions for the batch (see
        :meth:`~repro.engine.engine.QueryEngine.run_batch`).

    Returns
    -------
    One result object for a singular query, else a list of results in
    statement order.  ``EXPLAIN`` statements answer with an
    :class:`ExplainResult` (result + plan + span tree) in place of the
    bare result; each runs as its own dedicated traced batch so its
    tree covers exactly that statement.
    """
    statements, singular = as_statements(query)
    runner = db.engine() if engine is None else engine
    if not any(statement.explain for statement in statements):
        outcome = runner.run_batch(
            [statement.spec for statement in statements], workers=workers
        )
        return outcome.results[0] if singular else list(outcome.results)
    results: list = [None] * len(statements)
    plain = [(position, statement.spec)
             for position, statement in enumerate(statements)
             if not statement.explain]
    if plain:
        outcome = runner.run_batch([spec for _, spec in plain],
                                   workers=workers)
        for (position, _), result in zip(plain, outcome.results):
            results[position] = result
    for position, statement in enumerate(statements):
        if statement.explain:
            results[position] = explain_spec(runner, statement.spec,
                                             workers=workers)
    return results[0] if singular else results
