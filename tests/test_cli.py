"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def saved_graph(tmp_path):
    path = tmp_path / "net.graph"
    code = main([
        "generate", "--kind", "grid", "--nodes", "100",
        "--density", "0.1", "--placement", "node",
        "--seed", "3", "-o", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_creates_file(self, saved_graph, capsys):
        assert saved_graph.exists()

    def test_all_kinds(self, tmp_path):
        for kind in ("brite", "spatial", "grid"):
            path = tmp_path / f"{kind}.graph"
            assert main([
                "generate", "--kind", kind, "--nodes", "120",
                "--density", "0.05", "-o", str(path),
            ]) == 0
            assert path.exists()

    def test_edge_placement(self, tmp_path, capsys):
        path = tmp_path / "edges.graph"
        assert main([
            "generate", "--kind", "spatial", "--nodes", "150",
            "--density", "0.05", "--placement", "edge", "-o", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "|P|=" in out

    def test_no_points(self, tmp_path, capsys):
        path = tmp_path / "bare.graph"
        assert main([
            "generate", "--kind", "grid", "--nodes", "64",
            "--density", "0", "-o", str(path),
        ]) == 0
        assert "|P|=0" in capsys.readouterr().out


class TestInfo:
    def test_summarizes(self, saved_graph, capsys):
        assert main(["info", str(saved_graph)]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "points: 10" in out
        assert "expansion:" in out


class TestQuery:
    def test_node_query(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5"]) == 0
        out = capsys.readouterr().out
        assert "R1NN(5)" in out and "page I/Os" in out

    def test_materialized_query(self, saved_graph, capsys):
        assert main([
            "query", str(saved_graph), "--query", "5",
            "--k", "2", "--method", "eager-m", "--materialize", "3",
        ]) == 0
        assert "R2NN(5)" in capsys.readouterr().out

    def test_methods_agree(self, saved_graph, capsys):
        answers = set()
        for method in ("eager", "lazy", "lazy-ep"):
            main(["query", str(saved_graph), "--query", "7",
                  "--method", method])
            out = capsys.readouterr().out
            answers.add(out.splitlines()[0])
        assert len(answers) == 1

    def test_edge_location_query(self, tmp_path, capsys):
        path = tmp_path / "edges.graph"
        main(["generate", "--kind", "spatial", "--nodes", "200",
              "--density", "0.05", "--placement", "edge",
              "--seed", "1", "-o", str(path)])
        capsys.readouterr()
        # find an actual edge to place the query on
        from repro.graph.io import load_graph

        graph, _ = load_graph(path)
        u, v, w = next(iter(graph.edges()))
        assert main([
            "query", str(path), "--query", f"{u},{v},{w / 2}",
        ]) == 0
        assert "page I/Os" in capsys.readouterr().out


class TestQueryBackends:
    """`repro query` accepts the same backend flags as `repro batch`."""

    def test_compact_backend(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5",
                     "--k", "2", "--backend", "compact"]) == 0
        out = capsys.readouterr().out
        assert "R2NN(5)" in out and "compact" in out
        assert "0 page I/Os" in out  # compact adjacency reads are free

    def test_sharded_backend(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5",
                     "--k", "2", "--backend", "sharded",
                     "--shard-count", "4"]) == 0
        assert "4 shard(s)" in capsys.readouterr().out

    def test_negative_shards_rejected(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5",
                     "--backend", "sharded", "--shard-count", "-1"]) == 1
        assert "--shard-count" in capsys.readouterr().err

    def test_oracle_flag(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5",
                     "--k", "2", "--oracle", "--oracle-landmarks", "4"]) == 0
        out = capsys.readouterr().out
        assert "oracle: 4 landmarks" in out and "R2NN(5)" in out

    def test_backends_agree_on_answers(self, saved_graph, capsys):
        answers = set()
        for flags in ([], ["--backend", "compact"],
                      ["--backend", "sharded", "--shard-count", "3"],
                      ["--oracle"]):
            assert main(["query", str(saved_graph), "--query", "7",
                         "--k", "2", *flags]) == 0
            answers.add(capsys.readouterr().out.splitlines()[-2])
        assert len(answers) == 1


class TestBackendGroup:
    """The ``--backend`` option group (the old ``--shards`` /
    ``--compact`` aliases are gone)."""

    def test_backend_compact(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5",
                     "--k", "2", "--backend", "compact"]) == 0
        captured = capsys.readouterr()
        assert "compact" in captured.out
        assert "deprecated" not in captured.err

    def test_backend_sharded_with_count(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5",
                     "--backend", "sharded", "--shard-count", "3"]) == 0
        captured = capsys.readouterr()
        assert "3 shard(s)" in captured.out
        assert "deprecated" not in captured.err

    def test_shards_zero_means_unsharded(self, saved_graph, capsys):
        # without --backend sharded the shard count is ignored
        assert main(["query", str(saved_graph), "--query", "5",
                     "--shard-count", "0"]) == 0
        assert "unsharded" in capsys.readouterr().out

    def test_removed_aliases_rejected(self, saved_graph):
        for flags in (["--compact"], ["--shards", "2"]):
            with pytest.raises(SystemExit):
                main(["query", str(saved_graph), "--query", "5", *flags])

    def test_bad_shard_count_rejected(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5",
                     "--backend", "sharded", "--shard-count", "0"]) == 1
        assert "--shard-count must be >= 1" in capsys.readouterr().err

    def test_threshold_requires_compact_backend(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5",
                     "--compact-threshold", "3"]) == 1
        assert "--compact-threshold requires the compact backend" in \
            capsys.readouterr().err


class TestExecuteStatements:
    """``repro query -e``: qlang statements from the command line."""

    def test_single_statement(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "-e",
                     "SELECT * FROM rknn(query=5, k=2)"]) == 0
        out = capsys.readouterr().out
        assert "rknn(5) k=2 ->" in out
        assert "1 statement(s)" in out

    def test_statement_matches_query_flag(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5",
                     "--k", "2"]) == 0
        direct = capsys.readouterr().out.splitlines()[0]
        answer = direct.split(" = ")[1]
        assert main(["query", str(saved_graph), "-e",
                     "SELECT * FROM rknn(query=5, k=2)"]) == 0
        assert answer in capsys.readouterr().out

    def test_script_prints_one_line_per_statement(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "-e",
                     "SELECT * FROM knn(query=5, k=2); "
                     "SELECT * FROM topk_influence(k=1) LIMIT 3"]) == 0
        out = capsys.readouterr().out
        assert "knn(5) k=2 ->" in out
        assert "topk_influence() k=1 ->" in out
        assert "2 statement(s)" in out

    def test_statements_identical_across_backends(self, saved_graph, capsys):
        script = ("SELECT * FROM topk_influence(k=1) LIMIT 3; "
                  "SELECT * FROM aggregate_nn(group=[5, 9], k=2); "
                  "SELECT * FROM rknn(query=5, k=2) WHERE distance < 6.0")
        outputs = set()
        for flags in (["--backend", "disk"],
                      ["--backend", "sharded", "--shard-count", "3"],
                      ["--backend", "compact"]):
            assert main(["query", str(saved_graph), *flags,
                         "-e", script]) == 0
            lines = capsys.readouterr().out.splitlines()
            outputs.add("\n".join(lines[:-1]))  # cost line names the backend
        assert len(outputs) == 1

    def test_requires_exactly_one_input_form(self, saved_graph, capsys):
        assert main(["query", str(saved_graph)]) == 1
        assert "exactly one of --query or -e" in capsys.readouterr().err
        assert main(["query", str(saved_graph), "--query", "5",
                     "-e", "SELECT * FROM knn(query=5)"]) == 1
        assert "exactly one of --query or -e" in capsys.readouterr().err

    def test_bad_statement_reports_position(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "-e", "SELECT nope"]) == 1
        assert "qlang syntax error at 1:8" in capsys.readouterr().err

    def test_unknown_function_reports_allowed_set(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "-e",
                     "SELECT * FROM nope(query=1)"]) == 1
        err = capsys.readouterr().err
        assert "unknown query function 'nope'" in err
        assert "topk_influence" in err

    def test_explain_prints_answer_then_payload(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "-e",
                     "EXPLAIN SELECT * FROM rknn(query=5, k=2)"]) == 0
        out = capsys.readouterr().out
        assert "rknn(5) k=2 ->" in out
        payload = json.loads(out[out.index("{"):out.rindex("}") + 1])
        assert payload["explain"] is True
        assert payload["plan"]["backend"] == "disk"
        names = {span["name"] for span in payload["trace"]["spans"]}
        assert "execute.rknn" in names

    def test_explain_mixes_with_plain_statements(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "-e",
                     "SELECT * FROM knn(query=5, k=2); "
                     "EXPLAIN SELECT * FROM rknn(query=5, k=2)"]) == 0
        out = capsys.readouterr().out
        assert "knn(5) k=2 ->" in out
        assert "2 statement(s)" in out
        assert '"explain": true' in out


class TestTrace:
    """``repro trace``: pretty-print a saved span tree."""

    def explain_payload(self, saved_graph, capsys) -> dict:
        assert main(["query", str(saved_graph), "-e",
                     "EXPLAIN SELECT * FROM rknn(query=5, k=2)"]) == 0
        out = capsys.readouterr().out
        return json.loads(out[out.index("{"):out.rindex("}") + 1])

    def test_renders_an_indented_span_tree(self, saved_graph, tmp_path,
                                           capsys):
        payload = self.explain_payload(saved_graph, capsys)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        assert main(["trace", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("engine.run_batch")
        assert any(line.startswith("  ") and "execute.rknn" in line
                   for line in lines)

    def test_accepts_a_bare_trace_payload(self, saved_graph, tmp_path,
                                          capsys):
        payload = self.explain_payload(saved_graph, capsys)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload["trace"]))
        assert main(["trace", str(path)]) == 0
        assert "engine.run_batch" in capsys.readouterr().out

    def test_empty_trace_prints_placeholder(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"spans": []}))
        assert main(["trace", str(path)]) == 0
        assert "(empty trace)" in capsys.readouterr().out

    def test_unreadable_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text("{broken")
        assert main(["trace", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["trace", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeObservabilityFlags:
    def test_negative_slow_query_threshold_rejected(self, saved_graph,
                                                    capsys):
        assert main(["serve", str(saved_graph), "--slow-query-log",
                     "slow.jsonl", "--slow-query-ms", "-5"]) == 1
        assert "--slow-query-ms" in capsys.readouterr().err

    def test_slow_query_log_refused_in_fleet_mode(self, saved_graph,
                                                  capsys):
        assert main(["serve", str(saved_graph), "--workers", "2",
                     "--slow-query-log", "slow.jsonl"]) == 1
        assert "single-process" in capsys.readouterr().err


class TestBatch:
    @pytest.fixture
    def specs_file(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text(
            "# a mixed batch\n"
            '{"kind": "rknn", "query": 7, "k": 2, "method": "eager"}\n'
            '{"kind": "knn", "query": 3, "k": 3}\n'
            '{"kind": "range", "query": 5, "k": 2, "radius": 8.0}\n'
            '{"kind": "rknn", "query": 7, "k": 2, "method": "eager"}\n'
        )
        return path

    def test_executes_batch(self, saved_graph, specs_file, capsys):
        assert main(["batch", str(saved_graph), "--specs", str(specs_file),
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "rknn(7)" in out and "knn(3)" in out and "range(5)" in out
        assert "1 cache hits / 3 misses" in out  # the duplicate rknn line

    def test_repeat_exercises_cache(self, saved_graph, specs_file, capsys):
        assert main(["batch", str(saved_graph), "--specs", str(specs_file),
                     "--repeat", "2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "round 1/2" in out and "round 2/2" in out
        assert "4 cache hits / 0 misses" in out  # second round fully cached

    def test_quiet_prints_only_summary(self, saved_graph, specs_file, capsys):
        assert main(["batch", str(saved_graph), "--specs", str(specs_file),
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "rknn(7)" not in out
        assert "queries in" in out

    def test_matches_single_queries(self, saved_graph, specs_file, capsys):
        main(["query", str(saved_graph), "--query", "7", "--k", "2"])
        want = capsys.readouterr().out.splitlines()[0]  # "R2NN(7) = [...]"
        answer = want.split(" = ")[1]
        main(["batch", str(saved_graph), "--specs", str(specs_file)])
        batch_out = capsys.readouterr().out
        assert f"rknn(7) k=2 -> {answer}" in batch_out

    def test_missing_file_is_an_error(self, saved_graph, capsys):
        assert main(["batch", str(saved_graph), "--specs", "/nope.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_file_is_an_error(self, saved_graph, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("# nothing\n")
        assert main(["batch", str(saved_graph), "--specs", str(empty)]) == 1
        assert "no query specs" in capsys.readouterr().err

    def test_sharded_backend_matches_unsharded(self, saved_graph, specs_file,
                                               capsys):
        assert main(["batch", str(saved_graph), "--specs", str(specs_file)]) == 0
        unsharded = [line for line in capsys.readouterr().out.splitlines()
                     if "->" in line]
        assert main(["batch", str(saved_graph), "--specs", str(specs_file),
                     "--backend", "sharded", "--shard-count", "4",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        sharded = [line for line in out.splitlines() if "->" in line]
        # identical answers (the per-line I/O counts may differ)
        def strip(lines):
            return [line.split(" [")[0] for line in lines]
        assert strip(sharded) == strip(unsharded)
        assert "4 shard(s)" in out
        assert "shard 0:" in out and "shard 3:" in out

    def test_negative_shards_is_an_error(self, saved_graph, specs_file, capsys):
        assert main(["batch", str(saved_graph), "--specs", str(specs_file),
                     "--backend", "sharded", "--shard-count", "-1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sharded_rejects_edge_points(self, tmp_path, specs_file, capsys):
        path = tmp_path / "edge.graph"
        assert main(["generate", "--kind", "grid", "--nodes", "100",
                     "--density", "0.1", "--placement", "edge",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["batch", str(path), "--specs", str(specs_file),
                     "--backend", "sharded", "--shard-count", "2"]) == 1
        assert "restricted" in capsys.readouterr().err


class TestShardBuild:
    def test_reports_layout(self, saved_graph, capsys):
        assert main(["shard", "build", str(saved_graph), "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "into 4 shard(s)" in out
        assert "cut edges" in out
        for shard_id in range(4):
            assert f"shard {shard_id}:" in out

    def test_writes_assignment(self, saved_graph, tmp_path, capsys):
        target = tmp_path / "assignment.txt"
        assert main(["shard", "build", str(saved_graph), "--shards", "3",
                     "--assignment", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 100  # one line per node
        shards = {int(line.split()[1]) for line in lines}
        assert shards == {0, 1, 2}

    def test_single_shard_has_no_cut(self, saved_graph, capsys):
        assert main(["shard", "build", str(saved_graph), "--shards", "1"]) == 0
        assert "0 cut edges" in capsys.readouterr().out

    def test_too_many_shards_is_an_error(self, saved_graph, capsys):
        assert main(["shard", "build", str(saved_graph),
                     "--shards", "5000"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_spec_reports_line(self, saved_graph, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "knn", "query": 1}\n{"kind": "warp"}\n')
        assert main(["batch", str(saved_graph), "--specs", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err


class TestOracleBuild:
    def test_reports_layout_and_cost(self, saved_graph, capsys):
        assert main(["oracle", "build", str(saved_graph),
                     "--landmarks", "5"]) == 0
        out = capsys.readouterr().out
        assert "selected 5 landmarks (farthest):" in out
        assert "500 (landmark, node) distances" in out
        assert "pages on the disk store" in out
        assert "build cost:" in out

    @pytest.mark.parametrize("backend", ["sharded", "compact"])
    def test_alternate_backends(self, saved_graph, backend, capsys):
        assert main(["oracle", "build", str(saved_graph),
                     "--landmarks", "3", "--backend", backend,
                     "--strategy", "random"]) == 0
        out = capsys.readouterr().out
        assert "selected 3 landmarks (random):" in out
        assert f"on the {backend} store" in out

    def test_rejects_edge_point_data_sets(self, tmp_path, capsys):
        path = tmp_path / "edge.graph"
        assert main(["generate", "--kind", "grid", "--nodes", "100",
                     "--density", "0.1", "--placement", "edge",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["oracle", "build", str(path)]) == 1
        assert "restricted" in capsys.readouterr().err

    def test_batch_with_oracle_matches_plain(self, saved_graph, tmp_path,
                                             capsys):
        specs = tmp_path / "queries.jsonl"
        specs.write_text(
            '{"kind": "rknn", "query": 7, "k": 2}\n'
            '{"kind": "knn", "query": 3, "k": 3}\n'
        )
        assert main(["batch", str(saved_graph), "--specs", str(specs)]) == 0
        plain = [line.split(" [")[0] for line
                 in capsys.readouterr().out.splitlines() if "->" in line]
        assert main(["batch", str(saved_graph), "--specs", str(specs),
                     "--oracle", "--oracle-landmarks", "4"]) == 0
        out = capsys.readouterr().out
        oracled = [line.split(" [")[0] for line in out.splitlines()
                   if "->" in line]
        assert oracled == plain
        assert "oracle: 4 landmarks" in out

    def test_batch_oracle_composes_with_compact(self, saved_graph, tmp_path,
                                                capsys):
        specs = tmp_path / "queries.jsonl"
        specs.write_text('{"kind": "rknn", "query": 7, "k": 1}\n')
        assert main(["batch", str(saved_graph), "--specs", str(specs),
                     "--backend", "compact", "--oracle", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "oracle: 8 landmarks" in out and "compact" in out


class TestRecommend:
    def test_recommends(self, saved_graph, capsys):
        assert main(["recommend", str(saved_graph), "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "recommended method:" in out
        assert "hop-ball growth" in out

    def test_error_paths(self, tmp_path, capsys):
        missing = tmp_path / "nope.graph"
        with pytest.raises(FileNotFoundError):
            main(["info", str(missing)])


class TestReport:
    def test_prints_characterization(self, saved_graph, capsys):
        assert main(["report", str(saved_graph)]) == 0
        out = capsys.readouterr().out
        assert "|V| = " in out and "density" in out and "expansion:" in out


class TestPath:
    @pytest.fixture
    def spatial_file(self, tmp_path):
        path = tmp_path / "sp.graph"
        main(["generate", "--kind", "spatial", "--nodes", "300",
              "--density", "0.05", "--seed", "2", "-o", str(path)])
        return path

    def test_all_searches_agree(self, spatial_file, capsys):
        capsys.readouterr()
        distances = set()
        for search in ("dijkstra", "astar", "alt", "bidirectional"):
            assert main(["path", str(spatial_file), "--source", "0",
                         "--target", "50", "--search", search]) == 0
            out = capsys.readouterr().out
            distances.add(out.splitlines()[0].split()[1])
        assert len(distances) == 1

    def test_path_line_lists_nodes(self, spatial_file, capsys):
        capsys.readouterr()
        main(["path", str(spatial_file), "--source", "0", "--target", "10"])
        out = capsys.readouterr().out
        assert "path: 0 ->" in out

    def test_out_of_range_node_is_an_error(self, spatial_file, capsys):
        assert main(["path", str(spatial_file), "--source", "0",
                     "--target", "99999"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_astar_without_coords_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "b.graph"
        main(["generate", "--kind", "brite", "--nodes", "120",
              "--density", "0.05", "-o", str(path)])
        capsys.readouterr()
        assert main(["path", str(path), "--source", "0", "--target", "5",
                     "--search", "astar"]) == 1
        assert "coordinates" in capsys.readouterr().err


class TestPlan:
    def test_prints_calibration(self, saved_graph, capsys):
        assert main(["plan", str(saved_graph), "--k", "1",
                     "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "plan for k=1" in out
        assert "->" in out

    def test_materialize_enables_eager_m(self, saved_graph, capsys):
        assert main(["plan", str(saved_graph), "--k", "1", "--samples", "2",
                     "--materialize", "2"]) == 0
        assert "eager-m" in capsys.readouterr().out

    def test_plan_without_points_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bare.graph"
        main(["generate", "--kind", "grid", "--nodes", "64",
              "--density", "0", "-o", str(path)])
        capsys.readouterr()
        assert main(["plan", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestCompactCompact:
    """The ``compact compact`` verb: apply a mutation log, fold it."""

    def _targets(self, saved_graph):
        """A free node and a missing edge of the saved grid network."""
        from repro.graph.io import load_graph

        graph, points = load_graph(saved_graph)
        taken = {node for _, node in points.items()}
        free = next(n for n in range(graph.num_nodes) if n not in taken)
        missing = next(
            (a, b)
            for a in range(graph.num_nodes)
            for b in range(a + 1, graph.num_nodes)
            if not graph.has_edge(a, b)
        )
        return free, missing

    def test_folds_a_mutation_log(self, saved_graph, tmp_path, capsys):
        free, (a, b) = self._targets(saved_graph)
        log = tmp_path / "mutations.jsonl"
        log.write_text(
            f'{{"op": "insert", "pid": 900, "node": {free}}}\n'
            "\n"
            f'{{"op": "insert-edge", "u": {a}, "v": {b}, "weight": 2.5}}\n'
            f'{{"op": "delete-edge", "u": {a}, "v": {b}}}\n'
            '{"op": "delete", "pid": 900}\n'
        )
        assert main(["compact", "compact", str(saved_graph),
                     "--mutations", str(log)]) == 0
        out = capsys.readouterr().out
        assert "applied 4 mutation(s)" in out
        assert "stamp (0, 4), 4 pending delta op(s)" in out
        assert "folded 4 delta op(s) into base generation 1" in out
        assert "stamp (1, 0)" in out
        assert "never drains" in out

    def test_empty_log_is_idempotent(self, saved_graph, capsys):
        assert main(["compact", "compact", str(saved_graph)]) == 0
        out = capsys.readouterr().out
        assert "applied 0 mutation(s)" in out
        assert "folded 0 delta op(s)" in out

    def test_threshold_autocompacts_while_applying(self, saved_graph,
                                                   tmp_path, capsys):
        free, _ = self._targets(saved_graph)
        log = tmp_path / "mutations.jsonl"
        log.write_text(
            f'{{"op": "insert", "pid": 900, "node": {free}}}\n'
            '{"op": "delete", "pid": 900}\n'
        )
        assert main(["compact", "compact", str(saved_graph),
                     "--mutations", str(log), "--threshold", "1"]) == 0
        out = capsys.readouterr().out
        assert "stamp (2, 0), 0 pending delta op(s)" in out

    def test_bad_mutation_reports_file_and_line(self, saved_graph, tmp_path,
                                                capsys):
        log = tmp_path / "mutations.jsonl"
        log.write_text('{"op": "insert", "pid": 900, "node": 0}\n'
                       '{"op": "frobnicate"}\n')
        assert main(["compact", "compact", str(saved_graph),
                     "--mutations", str(log)]) == 1
        err = capsys.readouterr().err
        assert "mutations.jsonl:2: bad mutation" in err

    def test_query_threshold_requires_compact_backend(self, saved_graph,
                                                      capsys):
        assert main(["query", str(saved_graph), "--query", "5",
                     "--compact-threshold", "2"]) == 1
        assert "--compact-threshold requires the compact backend" in \
            capsys.readouterr().err

    def test_query_accepts_threshold_with_compact(self, saved_graph, capsys):
        assert main(["query", str(saved_graph), "--query", "5", "--k", "2",
                     "--backend", "compact", "--compact-threshold", "4"]) == 0
        assert "R2NN(5)" in capsys.readouterr().out
