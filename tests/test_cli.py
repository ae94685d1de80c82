"""Command-line interface: exit codes, report structure, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from wrenchfeas import bundled_path
from wrenchfeas.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize alone adds about 0.1 s to start-up; the package solves
    # with its own NNLS and must not pull it in.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, wrenchfeas.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestAnalyze:
    def test_two_walls_unconstrained(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "two_walls")
        assert code == 0
        assert report["verdict"] == "unconstrained"
        assert report["witness"] == [0.0, 0.0, 0.0]
        assert abs(report["s_star"]) <= 1e-8
        assert report["wcm"] is None

    def test_flat_foot_constrained_with_rows(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "flat_foot")
        assert code == 0
        assert report["verdict"] == "constrained"
        assert report["wcm"]["row_count"] >= 4
        assert len(report["wcm"]["rows"]) == report["wcm"]["row_count"]

    def test_malformed_scene(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mass": -5, "gravity": [0, 0, -9.81],
                                    "com": [0, 0, 0], "contacts": []}))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "mass must be positive" in err

    def test_nonexistent_file(self, capsys):
        code, _, err = run(capsys, "analyze", "does_not_exist.json")
        assert code == 2
        assert "does_not_exist" in err

    def test_byte_identical_reports_modulo_timing(self, capsys):
        def strip(report):
            report.pop("timing_ms", None)
            return report

        _, a, _ = run_json(capsys, "analyze", "flat_foot")
        _, b, _ = run_json(capsys, "analyze", "flat_foot")
        assert strip(a) == strip(b)


class TestCheck:
    def test_static_support_feasible(self, capsys):
        code, report, _ = run_json(
            capsys, "check", "flat_foot", "--accel", "0,0,0"
        )
        assert code == 0
        assert report["verdict"] == "feasible"
        assert report["min_margin"] > 0

    def test_double_gravity_infeasible(self, capsys):
        code, report, _ = run_json(
            capsys, "check", "flat_foot", "--accel", "0,0,-19.62", "--ldot", "0,0,0"
        )
        assert code == 1
        assert report["verdict"] == "infeasible"

    def test_upward_between_walls(self, capsys):
        code, report, _ = run_json(
            capsys, "check", "two_walls", "--accel", "0,0,5"
        )
        assert code == 0
        assert report["classification"] == "unconstrained"

    def test_bad_triple(self, capsys):
        code, _, _ = run(capsys, "check", "flat_foot", "--accel", "1,2")
        assert code == 2


class TestShift:
    def test_zero_delta_identical(self, capsys):
        code, report, _ = run_json(
            capsys, "shift", "flat_foot", "--delta", "0,0,0", "--samples", "200"
        )
        assert code == 0
        assert report["agreement"]["disagree"] == 0
        assert np.allclose(report["original"]["rows"], report["shifted"]["rows"])

    def test_generic_delta(self, capsys):
        code, report, _ = run_json(
            capsys, "shift", "flat_foot", "--delta", "0.05,-0.02,0.1",
            "--samples", "400",
        )
        assert code == 0
        assert report["agreement"]["disagree"] == 0
        assert report["timing_ms"]["shift"] < report["timing_ms"]["rebuild"]

    def test_unconstrained_scene_refused(self, capsys):
        code, _, err = run(capsys, "shift", "two_walls", "--delta", "0,0,0.1")
        assert code == 1
        assert "no WCM exists: configuration is unconstrained" in err


class TestScenario:
    def test_climbing_all_unconstrained_all_feasible(self, capsys):
        code, report, _ = run_json(
            capsys, "scenario", str(bundled_path("climbing_scenario"))
        )
        assert code == 0
        assert all(
            p["classification"] == "unconstrained" for p in report["phases"]
        )
        assert all(entry["feasible"] for entry in report["timeline"])

    def test_traverse_all_constrained(self, capsys, tmp_path):
        csv_path = tmp_path / "timeline.csv"
        code, report, _ = run_json(
            capsys,
            "scenario",
            str(bundled_path("traverse_scenario")),
            "--csv",
            str(csv_path),
        )
        assert code == 0
        assert all(
            p["classification"] == "constrained" for p in report["phases"]
        )
        assert all(entry["feasible"] for entry in report["timeline"])
        contact_counts = [p["n_contacts"] for p in report["phases"]]
        assert contact_counts == [8, 12, 10, 10, 12, 12]
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "phase"
        assert len(rows) == 1 + len(report["timeline"])

    def test_traverse_shift_much_cheaper_than_build(self, capsys):
        _, report, _ = run_json(
            capsys, "scenario", str(bundled_path("traverse_scenario"))
        )
        for phase in report["phases"]:
            assert phase["mean_shift_us"] <= phase["wcm_build_us"] / 50.0

    def test_unconstrained_phase_with_pinned_moment_uses_oracle(
        self, capsys, tmp_path
    ):
        scene = json.load(open(bundled_path("two_walls")))
        scenario = {
            "phases": [
                {
                    "name": "pinned",
                    "scene": scene,
                    "com_trajectory": [
                        {
                            "t": 0.0,
                            "com": [0.0, 0.0, 0.6],
                            "accel": [0.0, 0.0, 1.0],
                            "l_dot": [0.0, 0.0, 0.0],
                        },
                        {
                            "t": 0.5,
                            "com": [0.0, 0.0, 0.65],
                            "accel": [0.0, 0.0, 0.5],
                            "l_dot": [0.0, 0.0, 0.0],
                        },
                    ],
                }
            ]
        }
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(scenario))
        code, report, _ = run_json(capsys, "scenario", str(path))
        assert report["phases"][0]["classification"] == "unconstrained"
        assert code in (0, 1)
        assert all(
            isinstance(entry["feasible"], bool) for entry in report["timeline"]
        )


class TestScenarioDeterminism:
    @staticmethod
    def strip_timing(report):
        for phase in report["phases"]:
            for key in ("classify_us", "wcm_build_us", "mean_shift_us"):
                phase.pop(key, None)
        return report

    def test_identical_reports_modulo_timing(self, capsys):
        path = str(bundled_path("traverse_scenario"))
        _, a, _ = run_json(capsys, "scenario", path)
        _, b, _ = run_json(capsys, "scenario", path)
        assert self.strip_timing(a) == self.strip_timing(b)


class TestBench:
    def test_twelve_contact_scene(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, report, _ = run_json(
            capsys,
            "bench",
            "traverse_phase2",
            "--reps",
            "12",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        assert set(report["stats"]) == {"classify", "build_wcm", "shift_wcm"}
        for stats in report["stats"].values():
            assert stats["median_ms"] > 0
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["operation", "median_ms", "mean_ms", "p95_ms"]
        assert len(rows) == 4

    def test_single_repetition(self, capsys):
        code, report, _ = run_json(capsys, "bench", "flat_foot", "--reps", "1")
        assert code == 0
        stats = report["stats"]["classify"]
        assert stats["median_ms"] == stats["mean_ms"] == stats["p95_ms"]

    def test_unconstrained_scene_classify_only(self, capsys):
        code, report, _ = run_json(capsys, "bench", "two_walls", "--reps", "5")
        assert code == 0
        assert set(report["stats"]) == {"classify"}

    def test_nonexistent_scene(self, capsys):
        code, _, _ = run(capsys, "bench", "nope.json", "--reps", "2")
        assert code == 2
