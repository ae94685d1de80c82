"""Command-line interface: exit codes, report structure, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from wrenchfeas import (
    MotionQuery,
    build_generating_matrices,
    build_wcm,
    bundled_path,
    classify,
    cli,
    feasibility,
    load_scene,
    required_wrench,
    shift_wcm,
    wrench_membership_lp,
)
from wrenchfeas import wcm as wcm_module
from wrenchfeas.cli import main
from wrenchfeas.scenes import scene_from_dict
from wrenchfeas.wcm import WrenchConstraintMatrix

from conftest import reference_agreement

CONSTRAINED_SCENES = ["flat_foot"] + [f"traverse_phase{k}" for k in range(1, 7)]
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

    def test_non_utf8_scene_exits_2_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert f"error: {path}: not UTF-8: invalid start byte at byte 0" in err

    def test_huge_normal_exits_2_without_numpy_warning(self, tmp_path):
        # An input error naming the field, with no numpy overflow warning on
        # the way and no blame on the rotation built from it.
        scene = json.loads(bundled_path("flat_foot").read_text(encoding="utf-8"))
        scene["contacts"][0].pop("rotation", None)
        scene["contacts"][0]["normal"] = [0.0, 0.0, 1e200]
        path = tmp_path / "huge_normal.json"
        path.write_text(json.dumps(scene), encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "wrenchfeas.cli", "analyze", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 2, out.stderr
        assert "contacts[0].normal: a normal component of 1e+200" in out.stderr
        assert "Warning" not in out.stderr

    def test_huge_mu_exits_2_without_numpy_warning(self, tmp_path):
        # A single contact is never unconstrained; at this mu the classifier
        # cannot tell, so the scene is an input error naming the contact.
        scene = {"mass": 60.0, "gravity": [0, 0, -9.81], "com": [0, 0, 0.8],
                 "contacts": [{"point": [0, 0, 0], "normal": [0, 0, 1], "mu": 1e200, "sides": 4}]}
        path = tmp_path / "huge_mu.json"
        path.write_text(json.dumps(scene), encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "wrenchfeas.cli", "analyze", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 2, out.stderr
        assert "huge_mu.json.contacts[0]: mu of 1e+200 exceeds" in out.stderr
        assert "Warning" not in out.stderr

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

    def test_overflowing_weight_names_mass(self, capsys, tmp_path):
        # The flag is in range: the scene's weight is what overflows.
        raw = json.load(open(bundled_path("flat_foot")))
        raw["mass"] = 1e308
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "check", str(path), "--accel", "0,0,0")
        assert code == 2
        assert out == ""
        assert "heavy.json.mass" in err and "--accel" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "flat_foot", "--accel", "nan,0,0"],
        ["shift", "flat_foot", "--delta", "inf,0,0"],
        ["bench", "flat_foot", "--reps", "0"],
        ["shift", "flat_foot", "--delta", "0,0,0", "--samples", "-3"],
        ["check", "flat_foot", "--accel", "1e308,0,0"],
        ["shift", "flat_foot", "--delta", "1e200,0,0"],
        ["shift", "flat_foot", "--delta", "0,0,0", "--samples", "2", "--seed", "-1"],
        ["check", "flat_foot", "--accel", "a,b,c"],
    ],
    ids=[
        "nan-accel",
        "inf-delta",
        "zero-reps",
        "negative-samples",
        "overflowing-force",
        "overflowing-sample-wrench",
        "negative-shift-seed",
        "non-numeric-accel",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "flat_foot", "--accel", "-1,0,0"],
        ["check", "flat_foot", "--accel", "-0.5,2,-19.62"],
        ["check", "flat_foot", "--accel", "0,0,0", "--ldot", "-1,0,0"],
        ["check", "two_walls", "--accel", ".5,0,0", "--ldot", "-.5,0,0"],
        ["shift", "flat_foot", "--delta", "-0.05,0,0"],
        ["check", "flat_foot", "--acc", "-1,0,0", "--l", "-1,0,0"],
    ],
    ids=["accel", "accel-infeasible", "ldot", "ldot-unconstrained", "delta", "prefixes"],
)
def test_negative_vector_flag_reads_as_the_equals_form(capsys, argv):
    # argparse takes "-0.05,0,0" for an option unless it follows "=".
    def strip(out):
        report = json.loads(out)
        report.pop("timing_ms", None)
        return report

    command, scene, *flags = argv
    equals = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
    code, out, err = run(capsys, command, scene, *equals)
    spaced_code, spaced_out, spaced_err = run(capsys, *argv)
    assert (spaced_code, strip(spaced_out), spaced_err) == (code, strip(out), err)
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "flat_foot", "--accel"],
        ["check", "flat_foot", "--accel", "0,0,0", "--ldot"],
        ["shift", "flat_foot", "--delta"],
        ["shift", "flat_foot", "--delta", "--csv", "shift.csv"],
    ],
    ids=["accel", "ldot", "delta", "delta-before-flag"],
)
def test_vector_flag_without_value_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "expected one argument" in err


def test_far_shift_names_the_shifted_matrix(capsys):
    code, out, err = run(capsys, "shift", "flat_foot", "--delta", "1e200,0,0")
    assert code == 2 and out == ""
    assert "--delta" in err and "shifted constraint matrix overflows" in err
    assert "force" not in err


class TestShift:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("name", CONSTRAINED_SCENES)
    def test_batched_tally_matches_one_at_a_time(self, capsys, monkeypatch, name, axis):
        # A shifted matrix with one more row, a plane through the sum of the
        # generators whose normal is force axis ``axis`` made orthogonal to
        # that sum, rejects about half the generators and the inside probes
        # on one side of it, so the tally holds agreements of both verdicts
        # and disagreements.
        scene = load_scene(bundled_path(name))

        def halved(wcm, delta):
            shifted = shift_wcm(wcm, delta)
            middle = build_generating_matrices(scene.config, shifted.anchor).stacked().sum(axis=1)
            cut = np.eye(6)[axis] - middle * middle[axis] / (middle @ middle)
            rows = np.vstack([shifted.rows, cut / np.linalg.norm(cut)])
            return WrenchConstraintMatrix(rows, shifted.anchor)

        monkeypatch.setattr(cli, "shift_wcm", halved)
        code, report, _ = run_json(capsys, "shift", name, "--delta", "0.05,-0.02,0.1")
        assert code == 0
        cls = classify(scene.config, scene.com)
        delta = np.array([0.05, -0.02, 0.1])
        target = scene.com + delta
        counts, disagreements = reference_agreement(
            build_generating_matrices(scene.config, target),
            halved(build_wcm(scene.config, scene.com, cls.witness), delta),
            build_wcm(scene.config, target, cls.witness),
        )
        probes = sum(counts.values()) + len(disagreements)
        assert report["agreement"] == {
            "probes": probes,
            "agree": counts["agree_feasible"] + counts["agree_infeasible"],
            "disagree": len(disagreements),
            "boundary_excluded": counts["boundary_excluded"],
        }
        assert len(disagreements) >= 0.1 * probes
        assert counts["agree_feasible"] > 0 and counts["agree_infeasible"] > 0

    @pytest.mark.parametrize("name", CONSTRAINED_SCENES)
    def test_zero_delta_agrees_on_every_probe(self, capsys, name):
        code, report, _ = run_json(capsys, "shift", name, "--delta", "0,0,0")
        agreement = report["agreement"]
        assert code == 0
        assert agreement["agree"] == agreement["probes"] > 0
        assert agreement["disagree"] == agreement["boundary_excluded"] == 0

    def test_zero_delta_identical(self, capsys):
        code, report, _ = run_json(capsys, "shift", "flat_foot", "--delta", "0,0,0")
        assert code == 0
        assert report["agreement"]["disagree"] == 0
        assert np.allclose(report["original"]["rows"], report["shifted"]["rows"])

    def test_generic_delta(self, capsys):
        code, report, _ = run_json(capsys, "shift", "flat_foot", "--delta", "0.05,-0.02,0.1")
        assert code == 0
        assert report["agreement"]["disagree"] == 0
        assert report["timing_ms"]["shift"] < report["timing_ms"]["rebuild"]

    @pytest.mark.parametrize("option", [["--samples", "5"], ["--seed", "0"]])
    def test_sampling_options_are_gone(self, capsys, option):
        code, out, err = run(capsys, "shift", "flat_foot", "--delta", "0,0,0", *option)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in err

    def test_csv_holds_the_report_timings(self, capsys, tmp_path):
        csv_path = tmp_path / "shift.csv"
        code, report, _ = run_json(
            capsys, "shift", "flat_foot", "--delta", "0.05,-0.02,0.1", "--csv", str(csv_path)
        )
        assert code == 0
        with open(csv_path, newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == ["operation", "time_ms"]
        assert [op for op, _ in rows] == ["shift", "rebuild"]
        assert [float(t) for _, t in rows] == [report["timing_ms"][op] for op, _ in rows]

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

    def test_csv_rows_carry_their_own_phase_timings(self, capsys, tmp_path):
        # Two phases under one name: each row's timings are its own phase's.
        sample = {"t": 0.0, "com": [0.0, 0.0, 0.8], "accel": [0.0, 0.0, 0.0]}
        phases = [
            {"name": "p", "scene": json.load(open(bundled_path(scene))), "com_trajectory": [sample]}
            for scene in ("flat_foot", "two_walls")
        ]
        path, csv_path = tmp_path / "same_name.json", tmp_path / "same_name.csv"
        path.write_text(json.dumps({"phases": phases}))
        _, report, _ = run_json(capsys, "scenario", str(path), "--csv", str(csv_path))
        with open(csv_path, newline="") as handle:
            header, *rows = list(csv.reader(handle))
        timings = ("classify_us", "wcm_build_us", "mean_shift_us")
        assert [
            [float(cell) if cell else None for cell in row[-3:]] for row in rows
        ] == [[phase[key] for key in timings] for phase in report["phases"]]
        assert header[-3:] == list(timings)
        assert rows[0][-2] != "" and rows[1][-2] == ""

    def test_traverse_shift_much_cheaper_than_build(self, capsys):
        # Each phase's medians over five runs: one run's single build timing
        # is at the mercy of whatever else shares the CPU.
        runs = [
            run_json(capsys, "scenario", str(bundled_path("traverse_scenario")))[1]["phases"]
            for _ in range(5)
        ]
        for phase in zip(*runs):
            build_us = np.median([run["wcm_build_us"] for run in phase])
            shift_us = np.median([run["mean_shift_us"] for run in phase])
            assert shift_us <= build_us / 50.0, phase[0]["phase"]

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
        assert entry["margin"] == check["min_margin"]


    def test_non_utf8_phase_scene_exits_2_naming_the_file(self, capsys, tmp_path):
        (tmp_path / "latin1.json").write_bytes('{"mass": 60, "name": "pi\xe8ce"}'.encode("latin-1"))
        sample = {"t": 0, "com": [0, 0, 0.8], "accel": [0, 0, 0]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            {"phases": [{"name": "only", "scene": "latin1.json", "com_trajectory": [sample]}]}
        ))
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert out == ""
        assert f"error: {tmp_path / 'latin1.json'}: not UTF-8: invalid continuation byte" in err

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

    # Unconstrained, a sample that leaves l_dot free is read from no matrix,
    # yet its CoM has the same range rule as any other sample.
    @pytest.mark.parametrize(
        "name,l_dot",
        [
            pytest.param("flat_foot", [0, 0, 0], id="flat_foot"),
            pytest.param("two_walls", [0, 0, 0], id="two_walls"),
            pytest.param("two_walls", None, id="two_walls-free"),
        ],
    )
    def test_far_sample_is_an_input_error(self, capsys, tmp_path, name, l_dot):
        raw = json.load(open(bundled_path(name)))
        sample = {"t": 0, "com": [1e200, 0, 0.8], "accel": [0, 0, 0]}
        if l_dot is not None:
            sample["l_dot"] = l_dot
        path = tmp_path / "far.json"
        path.write_text(json.dumps(
            {"phases": [{"name": "far", "scene": raw, "com_trajectory": [sample]}]}
        ))
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert out == ""
        assert "phase far: a shift component of 1e+200 exceeds" in err

    def test_overflowing_weight_names_mass(self, capsys, tmp_path):
        raw = json.load(open(bundled_path("flat_foot")))
        raw["mass"] = 1e308
        sample = {"t": 0, "com": [0, 0, 0.8], "accel": [0, 0, 0]}
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(
            {"phases": [{"name": "only", "scene": raw, "com_trajectory": [sample]}]}
        ))
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert out == ""
        assert "heavy.json.phases[0].scene.mass" in err and "accel" not in err

    def test_free_moment_samples_build_no_generators(self, capsys, monkeypatch):
        # Every climbing sample leaves the moment free in an unconstrained
        # phase: the verdict needs no generators at the sample CoM.
        built = []
        for module in (cli, wcm_module):
            real = module.build_generating_matrices
            monkeypatch.setattr(
                module, "build_generating_matrices",
                lambda *a, real=real: built.append(a) or real(*a),
            )
        code, report, _ = run_json(capsys, "scenario", str(bundled_path("climbing_scenario")))
        assert code == 0 and len(report["timeline"]) == 18
        assert built == []


def test_scenario_re_anchors_once_per_phase(capsys, monkeypatch, tmp_path):
    # Generators are built once per phase: by W's build when constrained,
    # else on the first read of the classification's generators.  No sample
    # shifts W or builds generators at its own CoM.
    built, shifted = [], []
    for module in (cli, feasibility, wcm_module):
        real = module.build_generating_matrices
        monkeypatch.setattr(
            module, "build_generating_matrices",
            lambda *a, real=real: built.append(a) or real(*a),
        )
    for module in (cli, wcm_module):
        monkeypatch.setattr(module, "shift_wcm", lambda *a: shifted.append(a))
    phases = []
    for name in ("flat_foot", "two_walls", "traverse_phase2"):
        raw = json.load(open(bundled_path(name)))
        trajectory = [
            {"t": 0.1 * k, "com": [c + 0.01 * k for c in raw["com"]],
             "accel": [0.1, 0.0, 0.2 * k], "l_dot": [0.0, 0.1 * k, 0.0]}
            for k in range(6)
        ]
        phases.append({"name": name, "scene": raw, "com_trajectory": trajectory})
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps({"phases": phases}))
    code, report, _ = run_json(capsys, "scenario", str(path))
    assert code in (0, 1) and len(report["timeline"]) == 18
    constrained = sum(p["classification"] == "constrained" for p in report["phases"])
    assert constrained == 2
    assert len(built) == len(phases)
    assert shifted == []


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

    def test_seed_is_not_an_option(self, capsys):
        code, out, err = run(capsys, "bench", "flat_foot", "--reps", "1", "--seed", "0")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --seed 0" in err
