"""Command-line interface: exit codes, report structure, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from wrenchfeas import (
    MotionQuery,
    build_generating_matrices,
    bundled_path,
    required_wrench,
    wrench_membership_lp,
)
from wrenchfeas import cli
from wrenchfeas.cli import main
from wrenchfeas.scenes import scene_from_dict

BUNDLED_SCENES = sorted(
    p.stem for p in bundled_path("flat_foot").parent.glob("*.json")
    if "scenario" not in p.stem
)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "flat_foot", "--accel", "nan,0,0"],
        ["shift", "flat_foot", "--delta", "inf,0,0"],
        ["bench", "flat_foot", "--reps", "0"],
        ["shift", "flat_foot", "--delta", "0,0,0", "--samples", "-3"],
        ["check", "flat_foot", "--accel", "1e308,0,0"],
        ["shift", "flat_foot", "--samples", "2", "--delta", "1e200,0,0"],
        ["bench", "flat_foot", "--reps", "1", "--seed", "-1"],
        ["shift", "flat_foot", "--delta", "0,0,0", "--samples", "2", "--seed", "-1"],
    ],
    ids=[
        "nan-accel",
        "inf-delta",
        "zero-reps",
        "negative-samples",
        "overflowing-force",
        "overflowing-sample-wrench",
        "negative-bench-seed",
        "negative-shift-seed",
    ],
)
def test_out_of_range_flag_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert argv[-2] in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "flat_foot"],
        ["analyze", "two_walls"],
        ["check", "flat_foot", "--accel", "0.5,-1,2", "--ldot", "0,0.1,0"],
        ["scenario", str(bundled_path("climbing_scenario"))],
        ["scenario", str(bundled_path("traverse_scenario"))],
    ],
    ids=["analyze-constrained", "analyze-unconstrained", "check", "climbing", "traverse"],
)
def test_report_bytes_match_streamed_json_dump(capsys, argv):
    # The report is written in one piece; the bytes must be what json.dump
    # streams for the same report (floats round-trip through json exactly).
    _, out, _ = run(capsys, *argv)
    streamed = io.StringIO()
    json.dump(json.loads(out), streamed, indent=2)
    assert out == streamed.getvalue() + "\n"


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
        # Two walls, and two opposed contacts pinching the CoM height, where
        # a pinned moment about x is out of reach at the contacts' height.
        walls = json.load(open(bundled_path("two_walls")))
        pinch = {
            "mass": 60.0,
            "gravity": [0.0, 0.0, -9.81],
            "com": [0.0, 0.0, 0.6],
            "contacts": [
                {"point": [-0.3, 0.0, 0.6], "normal": [1, 0, 0], "mu": 0.8, "sides": 4},
                {"point": [0.3, 0.0, 0.6], "normal": [-1, 0, 0], "mu": 0.8, "sides": 4},
            ],
        }
        samples = [
            ([0.0, 0.0, 0.6], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),
            ([0.0, 0.0, 0.65], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]),
            ([0.0, 0.0, 0.6], [0.0, 0.0, 0.5], [5.0, 0.0, 0.0]),
            ([0.0, 0.0, 0.7], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]),
        ]
        trajectory = [
            {"t": 0.1 * k, "com": com, "accel": accel, "l_dot": l_dot}
            for k, (com, accel, l_dot) in enumerate(samples)
        ]
        scenes = {"walls": walls, "pinch": pinch}
        scenario = {
            "phases": [
                {"name": name, "scene": scene, "com_trajectory": trajectory}
                for name, scene in scenes.items()
            ]
        }
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(scenario))
        code, report, _ = run_json(capsys, "scenario", str(path))
        assert all(p["classification"] == "unconstrained" for p in report["phases"])

        expected = []
        for name, raw in scenes.items():
            scene = scene_from_dict(raw)
            for com, accel, l_dot in samples:
                gen = build_generating_matrices(scene.config, com)
                wrench = required_wrench(scene.body, MotionQuery(accel, l_dot), com)
                expected.append(wrench_membership_lp(gen, wrench).feasible)
        assert [entry["feasible"] for entry in report["timeline"]] == expected
        assert set(expected) == {True, False}
        assert code == 1

    @pytest.mark.parametrize("ldot", [None, "0.5,-1,2"], ids=["free", "pinned"])
    @pytest.mark.parametrize("name", BUNDLED_SCENES)
    def test_one_sample_scenario_matches_check(self, capsys, tmp_path, name, ldot):
        accel = "1,-2,4"
        check_argv = ["check", name, "--accel", accel]
        if ldot is not None:
            check_argv += ["--ldot", ldot]
        check_code, check, _ = run_json(capsys, *check_argv)

        raw = json.load(open(bundled_path(name)))
        sample = {"t": 0.0, "com": raw["com"], "accel": [float(x) for x in accel.split(",")]}
        if ldot is not None:
            sample["l_dot"] = [float(x) for x in ldot.split(",")]
        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            {"phases": [{"name": name, "scene": raw, "com_trajectory": [sample]}]}
        ))
        code, report, _ = run_json(capsys, "scenario", str(path))
        (entry,) = report["timeline"]
        assert code == check_code
        assert entry["feasible"] == (check["verdict"] == "feasible")
        assert report["phases"][0]["classification"] == check["classification"]
        if check["min_margin"] is None:
            assert entry["margin"] is None
        else:
            assert entry["margin"] == pytest.approx(check["min_margin"], rel=1e-12, abs=1e-12)


    def test_overflowing_sample_force_is_an_input_error(self, capsys, tmp_path):
        raw = json.load(open(bundled_path("flat_foot")))
        sample = {"t": 0, "com": [0, 0, 0.8], "accel": [1e308, 0, 0]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(
            {"phases": [{"name": "only", "scene": raw, "com_trajectory": [sample]}]}
        ))
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert out == ""
        assert "overflow.json.phases[0].com_trajectory[0].accel" in err

    def test_free_moment_samples_build_no_generators(self, capsys, monkeypatch):
        # Every climbing sample leaves the moment free in an unconstrained
        # phase: the verdict needs no generators at the sample CoM.
        built = []
        real = cli.build_generating_matrices
        monkeypatch.setattr(
            cli, "build_generating_matrices", lambda *a: built.append(a) or real(*a)
        )
        code, report, _ = run_json(capsys, "scenario", str(bundled_path("climbing_scenario")))
        assert code == 0 and len(report["timeline"]) == 18
        assert built == []


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
