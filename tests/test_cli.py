import json
from pathlib import Path

import pytest

from chronolabel.cli import (
    CSV_COLUMNS,
    RATIO_COLUMNS,
    apply_min_activity,
    main,
)
from chronolabel.model import complexity, dump_instance, load_instance
from chronolabel.solvers import SolveResult, Status
from chronolabel.validation import AmMode
from chronolabel.model import make_activity_set, TimeInterval

from conftest import build_i1, random_instance

DEMO_GOLDEN_COMPLEXITY = 139  # pinned from one run of the bundled demo scenario


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

    def test_demo_golden_complexity(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["generate", "--demo", "--out", str(out)]) == 0
        instance = load_instance(out.read_text())
        assert complexity(instance) == DEMO_GOLDEN_COMPLEXITY
        assert 50 <= complexity(instance) <= 5000

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
             "--algos", "exact,greedy", "--modes", "1,2,3", "--jobs", "2",
             "--time-limit", "30"]
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

    def test_empty_directory_exit_2(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["bench", str(d), "--out-dir", str(tmp_path / "o")]) == 2
