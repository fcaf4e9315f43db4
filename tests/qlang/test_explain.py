"""EXPLAIN through the qlang pipeline: parse, format, compile, run."""

import json

import pytest

from repro import GraphDatabase, NodePointSet
from repro.qlang import (
    ExplainResult,
    Statement,
    compile_statements,
    compile_text,
    execute,
    format_script,
    format_statement,
    parse,
)

STATEMENT = "EXPLAIN SELECT * FROM rknn(query=5, k=2, method='eager')"


@pytest.fixture
def db():
    nodes = 40
    edges = [(i, (i + 1) % nodes, 1.0) for i in range(nodes)]
    edges += [(i, (i + 7) % nodes, 2.5) for i in range(0, nodes, 4)]
    points = NodePointSet({pid: node for pid, node in
                           enumerate(range(0, nodes, 5))})
    return GraphDatabase.from_edges(edges, points)


class TestParseAndFormat:
    def test_explain_prefix_sets_the_ast_flag(self):
        script = parse(STATEMENT)
        assert script.statements[0].explain is True
        plain = parse("SELECT * FROM rknn(query=5, k=2)")
        assert plain.statements[0].explain is False

    def test_canonical_format_round_trips(self):
        script = parse(STATEMENT + "; SELECT * FROM knn(query=0, k=1)")
        assert parse(format_script(script)) == script
        assert format_statement(script.statements[0]).startswith(
            "EXPLAIN SELECT * FROM rknn(")

    def test_explain_is_case_insensitive(self):
        script = parse("explain select * from rknn(query=5, k=2)")
        assert script.statements[0].explain is True


class TestCompile:
    def test_compile_statements_keeps_the_flag(self):
        statements = compile_statements(
            STATEMENT + "; SELECT * FROM rknn(query=5, k=2, method='eager')"
        )
        assert [s.explain for s in statements] == [True, False]
        # same spec either way: EXPLAIN changes the answer, not the query
        assert statements[0].spec == statements[1].spec
        assert isinstance(statements[0], Statement)

    def test_compile_text_drops_the_flag(self):
        specs = compile_text(STATEMENT)
        assert len(specs) == 1
        assert specs[0].kind == "rknn"
        assert specs[0].k == 2


class TestExecute:
    def test_explain_answers_with_plan_and_trace(self, db):
        explained = db.query(STATEMENT)
        assert isinstance(explained, ExplainResult)
        assert explained.plan["backend"] == "disk"
        assert explained.plan["spec"]["kind"] == "rknn"
        names = {span["name"] for span in explained.trace["spans"]}
        assert "execute.rknn" in names
        direct = db.query("SELECT * FROM rknn(query=5, k=2, method='eager')")
        assert list(explained.result.points) == list(direct.points)

    def test_mixed_script_keeps_statement_order(self, db):
        results = execute(
            db,
            "SELECT * FROM knn(query=0, k=1); " + STATEMENT,
        )
        assert len(results) == 2
        assert not isinstance(results[0], ExplainResult)
        assert isinstance(results[1], ExplainResult)

    def test_payload_and_render_are_serializable(self, db):
        explained = db.query(STATEMENT)
        payload = json.loads(json.dumps(explained.to_payload()))
        assert payload["explain"] is True
        assert set(payload) == {"explain", "plan", "trace"}
        lines = explained.render()
        assert lines[0].startswith("plan: ")
        assert len(lines) > 1  # the span tree follows

    def test_plan_names_kernel_eligibility(self, db):
        explained = db.query(STATEMENT)
        plan = explained.plan
        assert {"spec", "backend", "method", "expands",
                "kernel_eligible", "cache_stamp"} <= set(plan)
        assert plan["expands"] is False
