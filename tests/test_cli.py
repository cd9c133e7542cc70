import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chronolabel.cli import (
    CSV_COLUMNS,
    RATIO_COLUMNS,
    apply_min_activity,
    main,
)
from chronolabel.model import complexity, dump_instance, load_instance
from chronolabel.scenario import dump_scenario, extract_instance, synthesize_scenario
from chronolabel.solvers import SolveResult, Status
from chronolabel.validation import AmMode
from chronolabel.model import make_activity_set, TimeInterval

from conftest import build_i1, heavy_instance_doc, heavy_scenario_doc, random_instance

# complexity of the generated instance, without --min-activity and with its
# default of 1.0 s, pinned from one run each: the bundled demo, the reference
# scenario of perfbench and a 200-poi drive
GOLDEN_COMPLEXITY = [
    pytest.param(None, 173, 139, id="demo"),
    pytest.param(dict(seed=21), 335, 328, id="scenario-21"),
    pytest.param(dict(seed=11, n_edges=30, n_pois=200), 913, 827, id="drive-200-pois"),
]


@pytest.fixture
def i1_file(tmp_path) -> str:
    path = tmp_path / "i1.json"
    path.write_text(dump_instance(build_i1()))
    return str(path)


def read_meta(out: str) -> dict:
    return json.loads(Path(out + ".meta.json").read_text())


class TestGenerate:
    def test_demo_deterministic_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--demo", "--out", str(a)]) == 0
        assert main(["generate", "--demo", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("synth, raw, pruned", GOLDEN_COMPLEXITY)
    def test_golden_complexity(self, tmp_path, synth, raw, pruned):
        if synth is None:
            source = ["--demo"]
        else:
            path = tmp_path / "scenario.json"
            path.write_text(dump_scenario(synthesize_scenario(**synth)))
            source = [str(path)]
        out = tmp_path / "instance.json"
        for extra, expected in ((["--min-activity", "0"], raw), ([], pruned)):
            assert main(["generate", *source, *extra, "--out", str(out)]) == 0
            assert complexity(load_instance(out.read_text())) == expected

    def test_zero_poi_scenario_gives_empty_instance(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(
            json.dumps({"route": [[0, 0], [0, 1000]], "speed_mps": [10.0], "pois": []})
        )
        out = tmp_path / "out.json"
        assert main(["generate", str(scenario), "--out", str(out)]) == 0
        assert len(load_instance(out.read_text()).labels) == 0

    def test_missing_scenario_file(self, tmp_path):
        assert main(["generate", str(tmp_path / "nope.json"), "--out", "x"]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"settings": {"dt": "x"}},
            {"settings": [1]},
            {"settings": {"dt": 0}},
            {"route": [[math.inf, 0], [0, 1000]]},
            {"settings": {"viewport_px": [1920, 1080]}},
            {"settings": {"viewport_px": "nonsense"}},
            {"settings": {"smoothing_raduis": 40.0}},
        ],
    )
    def test_malformed_scenario_exit_2(self, tmp_path, doc):
        scenario = tmp_path / "s.json"
        scenario.write_text(
            json.dumps({"route": [[0, 0], [0, 1000]], "speed_mps": [10.0], "pois": [], **doc})
        )
        assert main(["generate", str(scenario), "--out", str(tmp_path / "out.json")]) == 2

    def test_min_activity_filter(self):
        instance = build_i1()
        # keep only intervals of at least 7 seconds: l3's [2,8] is dropped
        filtered = apply_min_activity(instance, 7.0)
        assert set(filtered.presences) == {"l1", "l2"}
        assert len(filtered.conflicts) == 1
        # conflicts referencing a dropped presence disappear with it
        assert set(apply_min_activity(instance, 11.0).presences) == set()


class TestSolve:
    def test_exact_am2_objective_20(self, i1_file, tmp_path):
        out = str(tmp_path / "sol.json")
        assert main(["solve", i1_file, "--algo", "exact", "--am", "2", "--out", out]) == 0
        meta = read_meta(out)
        assert meta["objective"] == pytest.approx(20.0)
        assert meta["status"] == "OPTIMAL"

    def test_krmt_k1_greedy_objective_10(self, i1_file, tmp_path):
        out = str(tmp_path / "sol.json")
        rc = main(
            ["solve", i1_file, "--problem", "krmt", "--k", "1", "--am", "1",
             "--algo", "greedy", "--out", out]
        )
        assert rc == 0
        assert read_meta(out)["objective"] == pytest.approx(10.0)

    def test_pls_krmt_unsupported_exit_3(self, i1_file, tmp_path):
        rc = main(
            ["solve", i1_file, "--problem", "krmt", "--k", "1", "--algo", "pls",
             "--out", str(tmp_path / "x.json")]
        )
        assert rc == 3
        assert not (tmp_path / "x.json").exists()

    def test_exact_timeout_exit_4_with_incumbent(self, i1_file, tmp_path):
        out = str(tmp_path / "sol.json")
        rc = main(["solve", i1_file, "--algo", "exact", "--am", "3",
                   "--time-limit", "0", "--out", out])
        assert rc == 4
        meta = read_meta(out)
        assert meta["status"] == "FEASIBLE"
        assert meta["upper_bound"] is not None
        # the incumbent itself still validates
        assert main(["validate", i1_file, out, "--am", "3"]) == 0

    def test_solution_revalidated_before_emission(self, i1_file, tmp_path, monkeypatch):
        # an (artificially) invalid solver output must never reach disk
        import chronolabel.cli as cli

        bad_phi = make_activity_set({"l1": [TimeInterval(0.0, 10.0)], "l2": [TimeInterval(0.0, 10.0)]})

        def fake_solve(instance, request):
            return SolveResult(phi=bad_phi, objective=20.0, status=Status.OPTIMAL, runtime=0.0)

        monkeypatch.setattr(cli, "solve", fake_solve)
        out = tmp_path / "sol.json"
        assert main(["solve", i1_file, "--algo", "exact", "--out", str(out)]) == 2
        assert not out.exists()

    def test_krmt_without_k_is_usage_error(self, i1_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", i1_file, "--problem", "krmt"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{i1}", "--problem", "krmt", "--k", "0"],
        ["bench", "{dir}", "--modes", "1,x"],
        ["bench", "{dir}", "--algos", "exact,magic"],
        ["solve", "{i1}", "--time-limit", "nan"],
        ["solve", "{i1}", "--time-limit", "inf"],
        ["solve", "{i1}", "--time-limit", "-1"],
        ["generate", "--demo", "--min-activity", "nan", "--out", "{dir}/out.json"],
        ["generate", "{dir}/nope.json", "--demo", "--out", "{dir}/out.json"],
        ["generate", "--demo", "--seed", "7", "--out", "{dir}/out.json"],
        ["generate", "{i1}", "--seed", "0", "--out", "{dir}/out.json"],
    ],
    ids=["k-0", "mode-x", "algo-magic", "limit-nan", "limit-inf", "limit-negative",
         "min-activity-nan", "demo-with-path", "demo-with-seed", "path-with-seed"],
)
def test_bad_flag_value_is_usage_error(i1_file, tmp_path, argv):
    argv = [a.format(i1=i1_file, dir=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "out.json").exists()


class TestValidate:
    def test_valid_solution_exit_0(self, i1_file, tmp_path, capsys):
        out = str(tmp_path / "sol.json")
        main(["solve", i1_file, "--algo", "greedy", "--am", "2", "--out", out])
        assert main(["validate", i1_file, out, "--am", "2"]) == 0
        assert '"valid": true' in capsys.readouterr().out

    def test_invalid_solution_exit_2(self, i1_file, tmp_path):
        sol = tmp_path / "bad.json"
        sol.write_text(
            json.dumps(
                {"activities": [
                    {"label": "l1", "start": 0.0, "end": 10.0},
                    {"label": "l2", "start": 0.0, "end": 10.0},
                ]}
            )
        )
        assert main(["validate", i1_file, str(sol), "--am", "1"]) == 2

    @pytest.mark.parametrize(
        "text", ['{"horizon": 1, "labels": 5}', '{"horizon": Infinity}']
    )
    def test_malformed_instance_exit_2(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["solve", str(bad), "--algo", "greedy"]) == 2
        assert main(["validate", str(bad), str(bad)]) == 2

    def test_min_activity_enforced(self, i1_file, tmp_path):
        sol = tmp_path / "short.json"
        sol.write_text(
            json.dumps(
                {"activities": [
                    {"label": "l1", "start": 0.0, "end": 10.0},
                    {"label": "l2", "start": 0.0, "end": 4.0},
                ]}
            )
        )
        assert main(["validate", i1_file, str(sol), "--am", "2"]) == 0
        assert main(["validate", i1_file, str(sol), "--am", "2", "--min-activity", "5"]) == 2


I1_DUMPS = {  # am -> (candidates as (label, presence index, start, end, weight), clusters, adjacency)
    1: (
        [("l1", 0, 0.0, 10.0, 10.0), ("l2", 0, 0.0, 10.0, 10.0), ("l3", 0, 2.0, 8.0, 6.0)],
        [[0], [1], [2]],
        [[1], [0], []],
    ),
    2: (
        [
            ("l1", 0, 0.0, 4.0, 4.0), ("l1", 0, 0.0, 10.0, 10.0),
            ("l2", 0, 0.0, 4.0, 4.0), ("l2", 0, 0.0, 10.0, 10.0),
            ("l3", 0, 2.0, 8.0, 6.0),
        ],
        [[0, 1], [2, 3], [4]],
        [[1], [0, 3], [3], [1, 2], []],
    ),
    3: (
        [
            ("l1", 0, 0.0, 4.0, 4.0), ("l1", 0, 0.0, 10.0, 10.0), ("l1", 0, 6.0, 10.0, 4.0),
            ("l2", 0, 0.0, 4.0, 4.0), ("l2", 0, 0.0, 10.0, 10.0), ("l2", 0, 6.0, 10.0, 4.0),
            ("l3", 0, 2.0, 8.0, 6.0),
        ],
        [[0, 1, 2], [3, 4, 5], [6]],
        [[1, 2], [0, 2, 4], [0, 1], [4, 5], [1, 3, 5], [3, 4], []],
    ),
}


class TestGraphDump:
    def test_dump_structure(self, i1_file, tmp_path):
        out = tmp_path / "graph.json"
        assert main(["graph-dump", i1_file, "--am", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "AM3"
        n = len(doc["candidates"])
        assert len(doc["adjacency"]) == n
        assert sorted(v for members in doc["clusters"] for v in members) == list(range(n))
        # adjacency is symmetric
        for v, neighbors in enumerate(doc["adjacency"]):
            for u in neighbors:
                assert v in doc["adjacency"][u]

    @pytest.mark.parametrize("am", sorted(I1_DUMPS))
    def test_dump_document(self, i1_file, tmp_path, am):
        out = tmp_path / "graph.json"
        assert main(["graph-dump", i1_file, "--am", str(am), "--out", str(out)]) == 0
        candidates, clusters, adjacency = I1_DUMPS[am]
        doc = {
            "mode": f"AM{am}",
            "candidates": [
                {"id": v, "label": lid, "presence_index": pi, "start": s, "end": t, "weight": w}
                for v, (lid, pi, s, t, w) in enumerate(candidates)
            ],
            "clusters": clusters,
            "adjacency": adjacency,
        }
        assert out.read_text() == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("command", ["graph-dump", "solve"])
    def test_size_limit_exit_3(self, i1_file, tmp_path, monkeypatch, capsys, command):
        from chronolabel import conflict_graph

        monkeypatch.setattr(conflict_graph, "SIZE_LIMIT", 3)
        out = tmp_path / "out.json"
        assert main([command, i1_file, "--am", "3", "--out", str(out)]) == 3
        assert "instance exceeds the candidate-graph size limit" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    @pytest.fixture
    def instance_dir(self, tmp_path) -> Path:
        d = tmp_path / "instances"
        d.mkdir()
        (d / "i1.json").write_text(dump_instance(build_i1()))
        for seed in (1, 2):
            (d / f"r{seed}.json").write_text(dump_instance(random_instance(seed)))
        return d

    def test_report_and_plots(self, instance_dir, tmp_path):
        out_dir = tmp_path / "bench"
        rc = main(
            ["bench", str(instance_dir), "--out-dir", str(out_dir),
             "--algos", "exact,greedy", "--modes", "1,2,3", "--time-limit", "30"]
        )
        assert rc == 0
        lines = (out_dir / "report.csv").read_text().splitlines()
        # golden column order: downstream tooling depends on it
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 3 * 3 * 2  # instances x modes x algos
        ratio_lines = (out_dir / "ratios.csv").read_text().splitlines()
        assert ratio_lines[0] == ",".join(RATIO_COLUMNS)
        assert len(ratio_lines) == 4
        for svg in ("quality.svg", "runtime.svg"):
            assert (out_dir / svg).read_text().startswith("<svg")

    def test_quality_and_ratio_bounds(self, instance_dir, tmp_path):
        import csv

        out_dir = tmp_path / "bench"
        main(["bench", str(instance_dir), "--out-dir", str(out_dir),
              "--algos", "exact,greedy,intgraph", "--modes", "1,2,3",
              "--time-limit", "30"])
        with (out_dir / "report.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            if row["quality"]:
                assert 0.0 <= float(row["quality"]) <= 1.0
            assert row["status"] in ("OPTIMAL", "FEASIBLE")
        with (out_dir / "ratios.csv").open() as handle:
            for row in csv.DictReader(handle):
                if row["am2_over_am1"]:
                    assert float(row["am2_over_am1"]) >= 1.0
                if row["am3_over_am1"]:
                    assert float(row["am3_over_am1"]) >= float(row["am2_over_am1"]) - 1e-9

    def test_capped_am3_ratio_not_below_am2(self, tmp_path):
        """Scenario 21's AM3 search times out at 0.5 s; its reported value
        still keeps the AM2 optimum it is seeded with."""
        import csv

        instance_dir = tmp_path / "instances"
        instance_dir.mkdir()
        instance = apply_min_activity(extract_instance(synthesize_scenario(21)), 1.0)
        (instance_dir / "s21.json").write_text(dump_instance(instance))
        out_dir = tmp_path / "bench"
        rc = main(["bench", str(instance_dir), "--out-dir", str(out_dir),
                   "--algos", "exact", "--time-limit", "0.5"])
        assert rc == 0
        with (out_dir / "ratios.csv").open() as handle:
            (row,) = csv.DictReader(handle)
        assert float(row["am3_over_am1"]) >= float(row["am2_over_am1"])

    def test_each_file_parsed_once(self, instance_dir, tmp_path, monkeypatch):
        import chronolabel.cli as cli

        parsed = []

        def counting_load(text):
            parsed.append(text)
            return load_instance(text)

        monkeypatch.setattr(cli, "load_instance", counting_load)
        rc = main(["bench", str(instance_dir), "--out-dir", str(tmp_path / "bench"),
                   "--modes", "1,2,3", "--time-limit", "30"])
        assert rc == 0
        assert len(parsed) == 3  # one per file, not one per model x algorithm

    def test_rows_repeat_apart_from_runtime(self, instance_dir, tmp_path):
        import csv

        reports = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            main(["bench", str(instance_dir), "--out-dir", str(out_dir),
                  "--algos", "exact,greedy,intgraph", "--time-limit", "30"])
            with (out_dir / "report.csv").open() as handle:
                rows = list(csv.DictReader(handle))
            for row in rows:
                del row["runtime_s"]
            reports.append(rows)
        assert len(reports[0]) == 3 * 3 * 3
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("flag, value", [("--modes", ""), ("--algos", ",")])
    def test_empty_list_is_usage_error(self, instance_dir, tmp_path, flag, value):
        out_dir = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(instance_dir), "--out-dir", str(out_dir), flag, value])
        assert exc.value.code == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("problem", [["--problem", "gmt"], ["--problem", "krmt", "--k", "1"]])
    def test_runtime_excludes_graph_build(self, instance_dir, tmp_path, monkeypatch, problem):
        import time

        from chronolabel import conflict_graph

        build, sleep = conflict_graph._build, 0.3

        def slow_build(instance, mode):
            time.sleep(sleep)
            return build(instance, mode)

        monkeypatch.setattr(conflict_graph, "_build", slow_build)
        out_dir = tmp_path / "bench"
        rc = main(["bench", str(instance_dir), "--out-dir", str(out_dir), *problem,
                   "--algos", "greedy,pls,exact,intgraph", "--time-limit", "30"])
        assert rc == 0
        with (out_dir / "report.csv").open() as handle:
            runtimes = [float(row["runtime_s"]) for row in csv.DictReader(handle)]
        assert len(runtimes) == 3 * 3 * 4
        assert max(runtimes) < sleep

    def test_empty_directory_exit_2(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["bench", str(d), "--out-dir", str(tmp_path / "o")]) == 2


class TestUnreadableInput:
    @pytest.fixture
    def not_utf8(self, tmp_path) -> str:
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + dump_instance(build_i1()).encode("utf-16-le"))
        return str(path)

    @pytest.mark.parametrize("command", ["solve", "validate", "graph-dump"])
    def test_directory_exit_2(self, i1_file, tmp_path, capsys, command):
        argv = [command, str(tmp_path)] + ([i1_file] if command == "validate" else [])
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "validate", "graph-dump"])
    def test_not_utf8_exit_2(self, i1_file, not_utf8, capsys, command):
        argv = [command, not_utf8] + ([i1_file] if command == "validate" else [])
        assert main(argv) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_solution_not_utf8_exit_2(self, i1_file, not_utf8):
        assert main(["validate", i1_file, not_utf8]) == 2

    def test_bench_directory_entry_exit_2(self, tmp_path):
        instances = tmp_path / "instances"
        (instances / "x.json").mkdir(parents=True)
        assert main(["bench", str(instances), "--out-dir", str(tmp_path / "o")]) == 2

    def test_bench_not_utf8_exit_2(self, not_utf8, tmp_path):
        instances = Path(not_utf8).parent
        assert main(["bench", str(instances), "--out-dir", str(tmp_path / "o")]) == 2


def run_cli(argv, timeout: float = 5.0) -> int:
    """The exit status of ``main(argv)`` in a child process, which is killed,
    failing the test, if it runs past ``timeout`` seconds."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    command = [sys.executable, "-m", "chronolabel.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True, timeout=timeout).returncode


class TestOverflowingWeight:
    """A weight whose weighted presence time overflows is rejected on load:
    solved, it would hang greedy, PLS and exact in saturation and give
    IntGraph an infinite objective."""

    @pytest.fixture
    def heavy(self, tmp_path) -> str:
        path = tmp_path / "instances" / "heavy.json"
        path.parent.mkdir()
        path.write_text(json.dumps(heavy_instance_doc(1e308)))
        return str(path)

    @pytest.mark.parametrize("algo", ["greedy", "pls", "exact", "intgraph"])
    def test_solve_exit_2(self, heavy, algo):
        assert run_cli(["solve", heavy, "--algo", algo, "--time-limit", "1"]) == 2

    def test_other_commands_exit_2(self, heavy, i1_file, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(heavy_scenario_doc(1e308)))
        for argv in (
            ["validate", heavy, i1_file],
            ["graph-dump", heavy],
            ["bench", str(Path(heavy).parent), "--out-dir", str(tmp_path / "o")],
            ["generate", str(scenario), "--out", str(tmp_path / "out.json")],
        ):
            assert run_cli(argv) == 2, argv

    @pytest.mark.parametrize("algo", ["greedy", "pls", "exact", "intgraph"])
    def test_largest_finite_total_solves(self, tmp_path, algo):
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(heavy_instance_doc(1e307)))
        out = str(tmp_path / "sol.json")
        assert run_cli(["solve", str(path), "--algo", algo, "--out", out]) == 0
        assert read_meta(out)["objective"] == 1e308
