import csv
import itertools
import json
import random

import pytest

from hampower import cli, core, instances, pipeline
from hampower.errors import InfeasibleConfigError
from hampower.instances import bijective_pattern, complete_collection


def write_instance(path, collection):
    core.save_json(str(path), core.collection_to_dict(collection))


def write_pattern(path, pattern):
    core.save_json(str(path), core.pattern_to_dict(pattern))


class TestGenOracle:
    def test_lowerbound_then_oracle_none(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        pat = tmp_path / "pat.json"
        code = cli.dispatch(
            ["gen", "lowerbound", "--k", "2", "--p", "3",
             "--out-instance", str(inst), "--out-pattern", str(pat)]
        )
        assert code == 0
        code = cli.dispatch(["oracle", "--instance", str(inst), "--pattern", str(pat)])
        out = capsys.readouterr().out
        assert code == 2
        assert "NONE" in out

    def test_oracle_found_on_complete(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        pat = tmp_path / "pat.json"
        assert cli.dispatch(["gen", "complete", "--n", "8", "--m", "16",
                             "--out-instance", str(inst)]) == 0
        write_pattern(pat, bijective_pattern(core.power_cycle(8, 2)))
        code = cli.dispatch(["oracle", "--instance", str(inst), "--pattern", str(pat)])
        assert code == 0
        assert "FOUND" in capsys.readouterr().out

    def test_oracle_count(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        pat = tmp_path / "pat.json"
        write_instance(inst, complete_collection(5, 20))
        write_pattern(pat, bijective_pattern(core.power_cycle(5, 2)))
        code = cli.dispatch(["oracle", "--instance", str(inst), "--pattern", str(pat), "--count"])
        assert code == 0
        assert "COUNT 120" in capsys.readouterr().out

    @pytest.mark.parametrize("extra, result", [
        ([], "NONE (nodes=777)"),
        (["--count"], "COUNT 0 (nodes=777)"),
        (["--budget", "5"], "UNKNOWN (budget exhausted after 5 nodes)"),
    ])
    def test_oracle_prints_symmetries_after_the_result(self, tmp_path, capsys, extra, result):
        # the k = 3, p = 3 member has no twins and 288 automorphisms
        inst, pat = tmp_path / "inst.json", tmp_path / "pat.json"
        assert cli.dispatch(["gen", "lowerbound", "--k", "3", "--p", "3",
                             "--out-instance", str(inst), "--out-pattern", str(pat)]) == 0
        capsys.readouterr()
        code = cli.dispatch(["oracle", "--instance", str(inst), "--pattern", str(pat), *extra])
        assert code == 2
        assert capsys.readouterr().out.splitlines() == [result, "symmetries=288"]

    def test_oracle_count_with_a_spent_budget(self, tmp_path, capsys):
        inst, pat = tmp_path / "inst.json", tmp_path / "pat.json"
        assert cli.dispatch(["gen", "lowerbound", "--k", "2", "--p", "3",
                             "--out-instance", str(inst), "--out-pattern", str(pat)]) == 0
        capsys.readouterr()
        code = cli.dispatch(["oracle", "--instance", str(inst), "--pattern", str(pat),
                             "--count", "--budget", "3"])
        assert code == 2
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "UNKNOWN (budget exhausted after 3 nodes, partial count 0)"

    def test_gen_multipartite_then_oracle(self, tmp_path, capsys):
        inst, pat = tmp_path / "inst.json", tmp_path / "pat.json"
        code = cli.dispatch(["gen", "multipartite", "--n", "8", "--parts", "4", "--m", "2",
                             "--p", "0.1", "--seed", "3", "--out-instance", str(inst)])
        assert code == 0
        assert "min degree=" in capsys.readouterr().out
        collection = core.collection_from_dict(core.load_json(str(inst)))
        rng = pipeline.derive_rng(3, "gen-multipartite")
        assert collection == instances.multipartite_collection(8, 4, 2, 0.1, rng)[0]
        assert core.min_degree(collection) >= 6
        write_pattern(pat, instances.random_pattern(core.power_cycle(8, 2), 2, random.Random(0)))
        code = cli.dispatch(["oracle", "--instance", str(inst), "--pattern", str(pat)])
        lines = capsys.readouterr().out.splitlines()
        assert (code, lines[0].split()[0]) == (0, "FOUND") and lines[1].startswith("symmetries=")


class TestSolveVerify:
    def test_solve_then_verify_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        pat = tmp_path / "pat.json"
        out = tmp_path / "cycle.json"
        pattern = bijective_pattern(core.power_cycle(40, 2))
        write_instance(inst, complete_collection(40, pattern.max_colour))
        write_pattern(pat, pattern)
        code = cli.dispatch(
            ["solve", "--instance", str(inst), "--pattern", str(pat),
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        assert out.exists() and (tmp_path / "cycle.json.trace.json").exists()
        code = cli.dispatch(
            ["verify", "--instance", str(inst), "--pattern", str(pat), "--cycle", str(out)]
        )
        assert code == 0
        assert "VALID" in capsys.readouterr().out

    def test_verify_rejects_bad_cycle(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        pat = tmp_path / "pat.json"
        cyc = tmp_path / "cycle.json"
        pattern = bijective_pattern(core.power_cycle(8, 2))
        # G_1 missing one edge makes the identity cycle invalid somewhere
        edge_lists = [
            [(u, v) for u in range(8) for v in range(u + 1, 8) if (u, v) != (0, 1)]
            for _ in range(16)
        ]
        write_instance(inst, core.GraphCollection.from_edge_lists(8, edge_lists))
        write_pattern(pat, pattern)
        core.save_json(str(cyc), {"k": 2, "vertices": list(range(8))})
        code = cli.dispatch(
            ["verify", "--instance", str(inst), "--pattern", str(pat), "--cycle", str(cyc)]
        )
        assert code == 2
        assert "INVALID" in capsys.readouterr().out

    @pytest.mark.parametrize("vertices, message", [
        ([0, 1, 2, 3, 4, 5, 6, 9], "vertex must be in [0, 7], got 9"),
        ([0, 1, 2, 3, 4, 5, 6, 3], "PowerCycle vertex 3 is repeated"),
        ([0, 1, 2, 3, 4, 5, 6], "vertex count must be 8, got 7"),
    ])
    def test_verify_names_the_offending_vertex_or_count(self, tmp_path, capsys, vertices, message):
        inst = tmp_path / "inst.json"
        pat = tmp_path / "pat.json"
        cyc = tmp_path / "cycle.json"
        pattern = bijective_pattern(core.power_cycle(8, 2))
        write_instance(inst, complete_collection(8, pattern.max_colour))
        write_pattern(pat, pattern)
        core.save_json(str(cyc), {"k": 2, "vertices": vertices})
        code = cli.dispatch(
            ["verify", "--instance", str(inst), "--pattern", str(pat), "--cycle", str(cyc)]
        )
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")

    def test_infeasible_solve_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        pat = tmp_path / "pat.json"
        out = tmp_path / "cycle.json"
        pattern = bijective_pattern(core.power_cycle(5, 2))
        write_instance(inst, complete_collection(5, pattern.max_colour))
        write_pattern(pat, pattern)
        code = cli.dispatch(
            ["solve", "--instance", str(inst), "--pattern", str(pat), "--out", str(out)]
        )
        assert code == 2
        assert "INFEASIBLE" in capsys.readouterr().out


class TestErrors:
    def test_usage_error_exit_1(self, capsys):
        assert cli.dispatch(["solve", "--instance"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_exit_1(self, capsys):
        assert cli.dispatch(["frobnicate"]) == 1

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = cli.dispatch(
            ["oracle", "--instance", str(tmp_path / "nope.json"),
             "--pattern", str(tmp_path / "nope2.json")]
        )
        assert code == 1

    def test_directory_path_exit_1(self, tmp_path, capsys):
        code = cli.dispatch(["oracle", "--instance", str(tmp_path), "--pattern", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("file error: ")

    def test_non_utf8_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"n": 3, "note": "caf\u00e9"}'.encode("latin-1"))
        code = cli.dispatch(["oracle", "--instance", str(bad), "--pattern", str(bad)])
        assert code == 1
        assert capsys.readouterr().err.startswith("file error: ")

    def test_malformed_json_exit_1_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3,\n  "m": }')
        code = cli.dispatch(["oracle", "--instance", str(bad), "--pattern", str(bad)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_oracle_pattern_colour_beyond_instance_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        pat = tmp_path / "pat.json"
        pattern = bijective_pattern(core.power_cycle(5, 2))
        write_instance(inst, complete_collection(5, pattern.max_colour - 1))
        write_pattern(pat, pattern)
        for extra in ([], ["--count"]):
            code = cli.dispatch(["oracle", "--instance", str(inst), "--pattern", str(pat), *extra])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: pattern colours exceed")

    def test_oracle_negative_budget_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        pat = tmp_path / "pat.json"
        write_instance(inst, complete_collection(5, 10))
        write_pattern(pat, bijective_pattern(core.power_cycle(5, 2)))
        args = ["oracle", "--instance", str(inst), "--pattern", str(pat), "--budget"]
        assert cli.dispatch(args + ["-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: --budget") and captured.out == ""
        assert cli.dispatch(args + ["0"]) == 2  # a zero budget stays legal
        assert "UNKNOWN (budget exhausted after 0 nodes)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["random", "--n", "-1", "--m", "2", "--delta", "0.5"],
            ["random", "--n", "0", "--m", "2", "--delta", "0.5"],
            ["random", "--n", "5", "--m", "0", "--delta", "0.5"],
            ["complete", "--n", "-1", "--m", "1"],
            ["complete", "--n", "5", "--m", "0"],
        ],
        ids=["random-negative-n", "random-zero-n", "random-zero-m", "complete-negative-n",
             "complete-zero-m"],
    )
    def test_gen_bad_size_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "inst.json"
        assert cli.dispatch(["gen", *argv, "--out-instance", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("generator", ["complete", "random", "multipartite", "lowerbound"])
    def test_gen_order_above_file_limit_exit_1(self, tmp_path, capsys, monkeypatch, generator):
        def refuse(*args):
            raise AssertionError("a generator ran on an order the loaders refuse")

        monkeypatch.setattr(instances, "complete_collection", refuse)
        monkeypatch.setattr(instances, "random_min_degree_collection", refuse)
        monkeypatch.setattr(instances, "multipartite_collection", refuse)
        monkeypatch.setattr(instances, "lowerbound_construction", refuse)
        out, pat = tmp_path / "inst.json", tmp_path / "pat.json"
        if generator == "lowerbound":
            p = core.MAX_FILE_ORDER // 3 + 1  # n = 3p, one part above the limit
            argv = ["gen", generator, "--k", "2", "--p", str(p), "--out-pattern", str(pat)]
            size = f"--k 2 --p {p} (n = {3 * p})"
        else:
            argv = ["gen", generator, "--n", str(core.MAX_FILE_ORDER + 1), "--m", "1"]
            size = f"--n {core.MAX_FILE_ORDER + 1}"
        if generator == "random":
            argv += ["--delta", "0.5"]
        if generator == "multipartite":
            argv += ["--parts", "4"]
        assert cli.dispatch([*argv, "--out-instance", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {size} exceeds the instance file limit"
        )
        assert not out.exists() and not pat.exists()

    @pytest.mark.parametrize("generator, limit, at, above", [
        ("complete", 6, ["--n", "6", "--m", "2"], ["--n", "7", "--m", "2"]),
        ("random", 6, ["--n", "6", "--m", "2", "--delta", "0.5"],
         ["--n", "7", "--m", "2", "--delta", "0.5"]),
        ("lowerbound", 9, ["--k", "2", "--p", "3"], ["--k", "2", "--p", "4"]),  # n = 3p
    ], ids=["complete", "random", "lowerbound"])
    def test_gen_order_at_file_limit_is_written(self, tmp_path, monkeypatch, generator, limit,
                                                at, above):
        monkeypatch.setattr(core, "MAX_FILE_ORDER", limit)

        def gen(size, name):
            files = ["--out-instance", str(tmp_path / f"{name}.json")]
            if generator == "lowerbound":
                files += ["--out-pattern", str(tmp_path / f"{name}-pattern.json")]
            return cli.dispatch(["gen", generator, *size, *files])

        assert gen(at, "at") == 0
        assert core.collection_from_dict(core.load_json(str(tmp_path / "at.json"))).n == limit
        assert gen(above, "above") == 1
        assert not list(tmp_path.glob("above*"))

    @pytest.mark.parametrize(
        "file, field, value",
        [
            ("instance", "graphs", [[]]),
            ("instance", "graphs", 5),
            ("pattern", "host", {"kind": "cycle", "k": 2}),
            ("pattern", "host", {"kind": "connector", "k": 2, "b": 1}),
            ("pattern", "host", {"kind": "cycle", "n_or_r": "x", "k": 2}),
            ("pattern", "host", {"kind": "cycle", "n_or_r": 5, "k": "x"}),
            ("pattern", "colours", 5),
            ("cycle", "vertices", 5),
            ("instance", "n", float("inf")),
            ("cycle", "k", float("inf")),
        ],
        ids=["graphs-count", "graphs-int", "no-n_or_r", "connector-no-a", "n_or_r-text",
             "k-text", "colours-int", "vertices-int", "n-infinity", "k-infinity"],
    )
    def test_schema_error_exit_1(self, tmp_path, capsys, file, field, value):
        pattern = bijective_pattern(core.power_cycle(5, 2))
        payloads = {
            "instance": core.collection_to_dict(complete_collection(5, pattern.max_colour)),
            "pattern": core.pattern_to_dict(pattern),
            "cycle": {"k": 2, "vertices": list(range(5))},
        }
        payloads[file][field] = value
        args = ["verify"]
        for name, payload in payloads.items():
            core.save_json(str(tmp_path / name), payload)
            args += [f"--{name}", str(tmp_path / name)]
        assert cli.dispatch(args) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestExperiment:
    def test_sweep_row_accounting(self, tmp_path, fixed_clock):
        out = tmp_path / "sweep.csv"
        code = cli.dispatch(
            ["experiment", "sweep", "--k", "2", "--n", "24",
             "--delta-from", "0.8", "--delta-to", "1.0", "--delta-step", "0.1",
             "--trials", "5", "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(cli.CSV_FIELDS)
        assert len(lines) == 1 + 3 * 5

    @pytest.mark.parametrize("extra", [
        ["--delta-from", "0.8", "--delta-to", "1.0", "--delta-step", "0", "--trials", "1"],
        ["--delta-from", "0.8", "--delta-to", "1.0", "--delta-step", "0.1", "--trials", "-3"],
        ["--delta-from", "0.8", "--delta-to", "1.0", "--delta-step", "0.1", "--trials", "0"],
        ["--delta-from", "0.9", "--delta-to", "0.8", "--delta-step", "0.1", "--trials", "1"],
    ], ids=["step-zero", "trials-negative", "trials-zero", "range-empty"])
    def test_empty_sweep_is_a_usage_error(self, tmp_path, capsys, extra):
        # these used to exit 0 after writing a header-only CSV
        out = tmp_path / "sweep.csv"
        code = cli.dispatch(["experiment", "sweep", "--k", "2", "--n", "20", *extra,
                             "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("size, flag", [
        (["--k", "0", "--n", "20"], "--k must be >= 1, got 0"),
        (["--k", "-2", "--n", "20"], "--k must be >= 1, got -2"),
        (["--k", "2", "--n", "0"], "--n must be >= 1, got 0"),
    ], ids=["k-zero", "k-negative", "n-zero"])
    def test_sweep_size_below_one_is_a_usage_error(self, tmp_path, capsys, size, flag):
        # --k 0 would otherwise be refused by the generator as "m must be >= 1",
        # an argument the user never passed
        out = tmp_path / "sweep.csv"
        code = cli.dispatch(["experiment", "sweep", *size, "--delta-from", "0.9",
                             "--delta-to", "0.9", "--delta-step", "0.1", "--trials", "1",
                             "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("k, n", [(2, 4), (2000, 20)])
    def test_sweep_order_below_2k_plus_1_is_a_usage_error_before_any_draw(
        self, tmp_path, capsys, monkeypatch, k, n
    ):
        # --k 2000 --n 20 drew 40 000 graphs before power_cycle refused the order
        streams = []
        monkeypatch.setattr(pipeline, "derive_rng", lambda *a: streams.append(a))
        out = tmp_path / "sweep.csv"
        code = cli.dispatch(["experiment", "sweep", "--k", str(k), "--n", str(n),
                             "--delta-from", "0.9", "--delta-to", "0.9", "--delta-step", "0.1",
                             "--trials", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"usage error: --n must be >= 2k+1 = {2 * k + 1} at --k {k}, got {n}\n"
        )
        assert not out.exists() and streams == []

    @pytest.mark.parametrize("deltas, flag", [
        (["0.9", "inf", "0.1"], "--delta-to must be a finite value in [0, 1], got inf"),
        (["0.9", "5", "1e-9"], "--delta-to must be a finite value in [0, 1], got 5.0"),
        (["nan", "0.9", "0.1"], "--delta-from must be a finite value in [0, 1], got nan"),
        (["-0.1", "0.9", "0.1"], "--delta-from must be a finite value in [0, 1], got -0.1"),
        (["0.9", "0.9", "inf"], "--delta-step must be positive, finite and move --delta-from, got inf"),
        (["0.9", "0.9", "-0.1"], "--delta-step must be positive, finite and move --delta-from, got -0.1"),
        (["0.9", "1", "1e-17"], "--delta-step must be positive, finite and move --delta-from, got 1e-17"),
    ], ids=["to-inf", "to-above-one", "from-nan", "from-negative", "step-inf", "step-negative",
            "step-below-resolution"])
    def test_sweep_delta_range_is_a_usage_error_before_any_trial(self, tmp_path, capsys, deltas, flag):
        # --delta-to inf looped forever, and --delta-to 5 --delta-step 1e-9
        # ran out of memory listing the values
        out = tmp_path / "sweep.csv"
        code = cli.dispatch(["experiment", "sweep", "--k", "2", "--n", "20",
                             "--delta-from", deltas[0], "--delta-to", deltas[1],
                             "--delta-step", deltas[2], "--trials", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {flag}\n"
        assert not out.exists()

    def test_sweep_deltas_are_made_one_at_a_time(self):
        deltas = cli._sweep_deltas(0.0, 1.0, 1e-9)
        assert list(itertools.islice(deltas, 3)) == [0.0, 1e-9, 2e-9]
        assert list(cli._sweep_deltas(0.8, 1.0, 0.1)) == [0.8, 0.9, 1.0]

    @pytest.mark.parametrize("limit, code", [(2399, 1), (2400, 0)])
    def test_sweep_refuses_graph_rows_beyond_the_limit_before_any_draw(
        self, tmp_path, capsys, monkeypatch, fixed_clock, limit, code
    ):
        # --k 2 --n 20 draws 40 graphs of 20 rows of 3 bytes: 2400 bytes
        drawn = []
        draw = instances.random_min_degree_collection
        monkeypatch.setattr(cli, "SWEEP_MAX_ROW_BYTES", limit)
        monkeypatch.setattr(
            instances, "random_min_degree_collection", lambda *a: drawn.append(a) or draw(*a)
        )
        out = tmp_path / "sweep.csv"
        assert cli.dispatch(["experiment", "sweep", "--k", "2", "--n", "20", "--delta-from", "0.9",
                             "--delta-to", "0.9", "--delta-step", "0.1", "--trials", "1",
                             "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err == (
                "usage error: --n 20 at --k 2 needs 2400 bytes of graph rows per trial, "
                "over the sweep's limit of 2399\n"
            )
            assert not out.exists() and not drawn
        else:
            assert out.exists() and len(drawn) == 1

    def test_sweep_deterministic_bytes(self, tmp_path, fixed_clock):
        args = [
            "experiment", "sweep", "--k", "2", "--n", "20",
            "--delta-from", "0.9", "--delta-to", "1.0", "--delta-step", "0.1",
            "--trials", "3", "--seed", "13",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.dispatch(args + ["--out", str(out1)]) == 0
        fixed_clock["t"] = 0.0
        assert cli.dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_strict_failure_reports_the_attempts_made(self, tmp_path, fixed_clock):
        # strict mode runs each stage once, so a failed trial made one attempt
        out = tmp_path / "strict.csv"
        code = cli.dispatch(
            ["experiment", "sweep", "--k", "2", "--n", "40",
             "--delta-from", "0.6", "--delta-to", "0.6", "--delta-step", "0.1",
             "--trials", "4", "--seed", "3", "--mode", "strict", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            failed = [row for row in csv.DictReader(fh) if row["success"] == "0"]
        assert failed
        assert all(row["nodes_or_retries"] == "1" for row in failed)

    def test_sweep_counts_the_failed_attempts_of_every_plan(self, tmp_path, fixed_clock):
        # every trial's plan 0 fails one stage on all 8 attempts; trial 1
        # then solves on plan 1 and the others fail plan 1 the same way
        out = tmp_path / "sweep.csv"
        code = cli.dispatch(
            ["experiment", "sweep", "--k", "2", "--n", "40",
             "--delta-from", "0.6", "--delta-to", "0.6", "--delta-step", "0.1",
             "--trials", "4", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = [(row["success"], row["nodes_or_retries"]) for row in csv.DictReader(fh)]
        assert rows == [("0", "16"), ("1", "8"), ("0", "16"), ("0", "16")]

    def test_solve_abort_writes_the_event_log(self, tmp_path, capsys):
        # vertex 0 is isolated in every graph, so every stage attempt that
        # needs it fails; the trace keeps them, and no cycle is written
        n = 60
        rest = ((1 << n) - 1) ^ 1
        coll = core.GraphCollection(n, [[0] + [rest ^ (1 << v) for v in range(1, n)]] * 3)
        inst, pat = tmp_path / "inst.json", tmp_path / "pat.json"
        write_instance(inst, coll)
        write_pattern(pat, instances.random_pattern(core.power_cycle(n, 2), 3, random.Random(0)))
        out, trace = tmp_path / "cycle.json", tmp_path / "trace.json"
        code = cli.dispatch(
            ["solve", "--instance", str(inst), "--pattern", str(pat), "--seed", "4",
             "--out", str(out), "--trace", str(trace)]
        )
        assert code == 2
        printed = capsys.readouterr().out
        assert printed.startswith("ABORT at stage ")
        assert not out.exists()
        written = json.loads(trace.read_text())
        assert written.keys() == {"seed", "mode", "events"}
        assert (written["seed"], written["mode"]) == (4, "best-effort")
        last = written["events"][-1]
        assert printed == f"ABORT at stage {last['stage']}: {last['message']}\n"
        assert len({e["plan_index"] for e in written["events"]}) > 1  # every plan's attempts

    def test_solve_outputs_deterministic_bytes(self, tmp_path, fixed_clock):
        inst = tmp_path / "inst.json"
        pat = tmp_path / "pat.json"
        pattern = bijective_pattern(core.power_cycle(30, 2))
        write_instance(inst, complete_collection(30, pattern.max_colour))
        write_pattern(pat, pattern)
        outs = []
        for name in ("c1.json", "c2.json"):
            fixed_clock["t"] = 0.0
            out = tmp_path / name
            trace = tmp_path / (name + ".trace")
            assert cli.dispatch(
                ["solve", "--instance", str(inst), "--pattern", str(pat),
                 "--seed", "21", "--out", str(out), "--trace", str(trace)]
            ) == 0
            outs.append((out.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]


# every flag that solve and experiment sweep share, at a value other than
# its default, and the config fields it sets (the seed is checked apart)
SHARED_FLAGS = [
    "--alpha", "0.3", "--beta", "0.1", "--gamma", "0.02", "--epsilon", "0.2",
    "--seed", "17", "--mode", "strict",
]
SHARED_FIELDS = dict(alpha=0.3, beta=0.1, gamma=0.02, epsilon=0.2, mode="strict")
DEFAULT_FIELDS = dict(
    alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, mode="best-effort", sampler_mode="fast"
)


class TestSharedSolverFlags:
    @pytest.fixture
    def configs(self, monkeypatch):
        seen = []

        def fake_solve(collection, pattern, config):
            seen.append(config)
            raise InfeasibleConfigError("not solved here", floor=0)

        monkeypatch.setattr(pipeline, "solve", fake_solve)
        return seen

    @pytest.mark.parametrize("flags, fields, seed", [
        (SHARED_FLAGS, SHARED_FIELDS, 17), ([], DEFAULT_FIELDS, 0),
    ])
    def test_solve(self, tmp_path, configs, flags, fields, seed):
        inst, pat = tmp_path / "inst.json", tmp_path / "pat.json"
        pattern = bijective_pattern(core.power_cycle(10, 2))
        write_instance(inst, complete_collection(10, pattern.max_colour))
        write_pattern(pat, pattern)
        code = cli.dispatch(
            ["solve", "--instance", str(inst), "--pattern", str(pat),
             "--out", str(tmp_path / "cycle.json"), *flags]
        )
        assert code == 2
        (config,) = configs
        assert {name: getattr(config, name) for name in fields} == fields
        assert (config.seed, config.r, config.max_retries) == (seed, 7, 8)

    @pytest.mark.parametrize("flags, fields, seed", [
        (SHARED_FLAGS, SHARED_FIELDS, 17), ([], DEFAULT_FIELDS, 0),
    ])
    def test_sweep(self, tmp_path, configs, flags, fields, seed):
        code = cli.dispatch(
            ["experiment", "sweep", "--k", "2", "--n", "20", "--delta-from", "0.9",
             "--delta-to", "0.9", "--delta-step", "0.1", "--trials", "1",
             "--out", str(tmp_path / "sweep.csv"), *flags]
        )
        assert code == 0
        (config,) = configs
        assert {name: getattr(config, name) for name in fields} == fields
        trial_seed = pipeline.derive_rng(seed, "experiment", 0, 0).getrandbits(63)
        assert (config.seed, config.r) == (trial_seed, 7)

    @pytest.mark.parametrize("k, flags, r", [(3, [], 8), (7, [], 12), (3, ["--r", "11"], 11)])
    def test_r_defaults_to_k_plus_5(self, tmp_path, configs, k, flags, r):
        # one --r for both commands (k = 2 is the cases above); solve's
        # default was 7 whatever the power
        n = 2 * k + 1
        inst, pat, out = tmp_path / "inst.json", tmp_path / "pat.json", tmp_path / "sweep.csv"
        pattern = bijective_pattern(core.power_cycle(n, k))
        write_instance(inst, complete_collection(n, pattern.max_colour))
        write_pattern(pat, pattern)
        assert cli.dispatch(
            ["solve", "--instance", str(inst), "--pattern", str(pat),
             "--out", str(tmp_path / "cycle.json"), *flags]
        ) == 2
        assert cli.dispatch(
            ["experiment", "sweep", "--k", str(k), "--n", str(n), "--delta-from", "0.9",
             "--delta-to", "0.9", "--delta-step", "0.1", "--trials", "1", "--out", str(out), *flags]
        ) == 0
        assert [config.r for config in configs] == [r, r]
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert row["r"] == str(r)

    @pytest.mark.parametrize("value", ["fast", "exact"])
    def test_sampler_flag_is_a_usage_error(self, tmp_path, configs, capsys, value):
        # one matching sampler: neither command takes --sampler any more
        inst, pat = tmp_path / "inst.json", tmp_path / "pat.json"
        pattern = bijective_pattern(core.power_cycle(10, 2))
        write_instance(inst, complete_collection(10, pattern.max_colour))
        write_pattern(pat, pattern)
        for argv in (
            ["solve", "--instance", str(inst), "--pattern", str(pat),
             "--out", str(tmp_path / "cycle.json")],
            ["experiment", "sweep", "--k", "2", "--n", "20", "--delta-from", "0.9",
             "--delta-to", "0.9", "--delta-step", "0.1", "--trials", "1",
             "--out", str(tmp_path / "sweep.csv")],
        ):
            assert cli.dispatch([*argv, "--sampler", value]) == 1
            assert "--sampler" in capsys.readouterr().err
        assert configs == []
