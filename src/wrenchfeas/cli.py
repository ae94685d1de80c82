"""Command-line interface.

Subcommands::

    analyze  <scene>                          classification + constraint rows
    check    <scene> --accel x,y,z [--ldot x,y,z]   motion feasibility
    shift    <scene> --delta x,y,z            shifted vs rebuilt constraint matrix
    scenario <file> [--csv path]              phase/timeline runner with timings
    bench    <scene> --reps N [--seed S] [--csv path]   timing statistics

Every command prints a JSON report to stdout.  Exit codes: 0 success or
feasible, 1 infeasible / no constraint matrix exists, 2 input error.  Scene
arguments take a file path or the name of a bundled example (``wrenchfeas
analyze two_walls``).
"""

import argparse
import csv
import functools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from .contacts import MotionQuery, build_generating_matrices
from .errors import SceneFormatError
from .feasibility import classify
from .scenes import Scene, bundled_path, load_scenario, load_scene
from .wcm import (
    acceleration_verdict,
    agreement_tally,
    build_wcm,
    shift_wcm,
    trajectory_verdicts,
    wrench_verdicts,
)

WARMUP_REPS = 10
_VECTOR_FLAGS = ("--accel", "--ldot", "--delta")
_NEGATIVE = re.compile(r"-[0-9.]")


def _triple(text: str) -> np.ndarray:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 3 or not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"expected finite numbers x,y,z, got {text!r}")
    return np.array(values)


def _at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid integer
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return integer


def _flag_checked(flag: str, build):
    """``build()``, reporting its ValueError (an overflow) as bad ``flag``."""
    try:
        return build()
    except ValueError as exc:
        raise SceneFormatError(f"{flag}: {exc}") from None


def _resolve(path_arg: str) -> Path:
    path = Path(path_arg)
    if path.exists():
        return path
    try:
        return bundled_path(path_arg)
    except FileNotFoundError:
        raise SceneFormatError(f"no such file or bundled example: {path_arg}") from None


def _emit(report: dict):
    # One write: json.dump would stream a few hundred small ones.
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _classify_and_build(scene: Scene):
    """Classification and, when constrained, ``W`` at the scene CoM, with the
    seconds each took (``W`` and its time are None when unconstrained)."""
    cls, t_classify = _timed(lambda: classify(scene.config, scene.com))
    wcm = t_build = None
    if cls.constrained:
        wcm, t_build = _timed(lambda: build_wcm(scene.config, scene.com, cls.witness))
    return cls, wcm, t_classify, t_build


def cmd_analyze(args) -> int:
    scene = load_scene(_resolve(args.scene))
    cls, wcm, t_classify, t_build = _classify_and_build(scene)
    report = {
        "command": "analyze",
        "n_contacts": len(scene.config),
        "n_generators": scene.config.n_generators,
        "verdict": "constrained" if cls.constrained else "unconstrained",
        "s_star": cls.s_star,
        "witness": (cls.witness.tolist() if cls.constrained else [0.0, 0.0, 0.0]),
        "wcm": None,
        "timing_ms": {"classify": 1e3 * t_classify},
    }
    if wcm is not None:
        report["wcm"] = {
            "anchor": wcm.anchor.tolist(),
            "row_count": wcm.n_rows,
            "rows": wcm.rows.tolist(),
        }
        report["timing_ms"]["wcm_build"] = 1e3 * t_build
    _emit(report)
    return 0


def cmd_check(args) -> int:
    scene = load_scene(_resolve(args.scene))
    query = MotionQuery(args.accel, args.ldot)
    cls, wcm, _, _ = _classify_and_build(scene)
    feasible, margin = _flag_checked(
        "--accel", lambda: acceleration_verdict(cls, wcm, scene.body, query, scene.com)
    )
    _emit(
        {
            "command": "check",
            "verdict": "feasible" if feasible else "infeasible",
            "classification": "constrained" if cls.constrained else "unconstrained",
            "accel": args.accel.tolist(),
            "l_dot": None if args.ldot is None else args.ldot.tolist(),
            "min_margin": margin,
        }
    )
    return 0 if feasible else 1


def cmd_shift(args) -> int:
    scene = load_scene(_resolve(args.scene))
    cls, original, _, _ = _classify_and_build(scene)
    if original is None:
        print("no WCM exists: configuration is unconstrained", file=sys.stderr)
        return 1
    shifted, t_shift = _flag_checked(
        "--delta", lambda: _timed(lambda: shift_wcm(original, args.delta))
    )
    target_com = scene.com + args.delta
    rebuilt, t_rebuild = _timed(lambda: build_wcm(scene.config, target_com, cls.witness))

    # Every other sample is a nonnegative generator combination; the ones
    # between are Gaussian, scaled by the largest combination drawn so far.
    rng = np.random.default_rng(args.seed)
    stacked = build_generating_matrices(scene.config, target_com).stacked()
    draws = [
        rng.exponential(size=stacked.shape[1]) if k % 2 == 0 else rng.normal(size=6)
        for k in range(args.samples)
    ]
    wrenches = np.empty((args.samples, 6))
    wrenches[0::2] = np.array(draws[0::2]) @ stacked.T
    hints = np.maximum.accumulate(np.maximum(np.linalg.norm(wrenches[0::2], axis=1), 1.0))
    gaussian = np.array(draws[1::2]).reshape(-1, 6)
    wrenches[1::2] = gaussian * hints[: args.samples // 2, None] / np.sqrt(6.0)
    a, margin_a = wrench_verdicts(shifted, wrenches, target_com)
    b, margin_b = wrench_verdicts(rebuilt, wrenches, target_com)
    near = np.minimum(np.abs(margin_a), np.abs(margin_b))
    agree, excluded = (int(np.sum(m)) for m in agreement_tally(a, b, near, wrenches))
    disagree = args.samples - agree - excluded

    report = {
        "command": "shift",
        "delta": args.delta.tolist(),
        "original": {"anchor": original.anchor.tolist(), "rows": original.rows.tolist()},
        "shifted": {"anchor": shifted.anchor.tolist(), "rows": shifted.rows.tolist()},
        "timing_ms": {"shift": 1e3 * t_shift, "rebuild": 1e3 * t_rebuild},
        "agreement": {
            "samples": args.samples,
            "agree": agree,
            "disagree": disagree,
            "boundary_excluded": excluded,
        },
    }
    _emit(report)
    if args.csv:
        rows = [["shift", 1e3 * t_shift], ["rebuild", 1e3 * t_rebuild]]
        _write_csv(args.csv, ["operation", "time_ms"], rows)
    return 0


def cmd_scenario(args) -> int:
    scenario = load_scenario(_resolve(args.scenario))
    phase_rows = []
    timeline = []
    all_feasible = True
    for phase in scenario.phases:
        scene = phase.scene
        cls, wcm, t_classify, t_build = _classify_and_build(scene)
        columns = phase.coms, phase.accels, phase.l_dots
        (verdicts, margins), t_answer = _timed(
            lambda: _flag_checked(
                f"phase {phase.name}",
                lambda: trajectory_verdicts(cls, wcm, scene.body, *columns),
            )
        )
        all_feasible &= all(verdicts)
        timeline.extend(
            {"phase": phase.name, "t": t, "com": list(com), "feasible": feasible, "margin": margin}
            for t, com, feasible, margin in zip(phase.times, phase.coms, verdicts, margins)
        )
        phase_rows.append(
            {
                "phase": phase.name,
                "n_contacts": len(scene.config),
                "classification": "constrained" if cls.constrained else "unconstrained",
                "classify_us": 1e6 * t_classify,
                "wcm_build_us": None if t_build is None else 1e6 * t_build,
                # The batched answer at W's anchor (re-anchoring and verdicts),
                # per sample; null when the phase has no W.
                "mean_shift_us": (
                    1e6 * t_answer / len(phase.times) if wcm is not None and phase.times else None
                ),
                "n_samples": len(phase.times),
            }
        )
    _emit(
        {
            "command": "scenario",
            "phases": phase_rows,
            "timeline": timeline,
            "all_feasible": all_feasible,
        }
    )
    if args.csv:
        timings = ("classify_us", "wcm_build_us", "mean_shift_us")
        # The timeline lists each phase's samples in turn, phase by phase.
        owners = (row for row in phase_rows for _ in range(row["n_samples"]))
        rows = [
            [
                entry["phase"],
                entry["t"],
                int(entry["feasible"]),
                "" if entry["margin"] is None else entry["margin"],
                *(owner[key] or "" for key in timings),
            ]
            for entry, owner in zip(timeline, owners)
        ]
        _write_csv(args.csv, ["phase", "t", "feasible", "margin", *timings], rows)
    return 0 if all_feasible else 1


def cmd_bench(args) -> int:
    scene = load_scene(_resolve(args.scene))
    rng = np.random.default_rng(args.seed)
    timings = {}
    for i in range(-WARMUP_REPS, args.reps):
        cls, wcm, t_classify, t_build = _classify_and_build(scene)
        times = {"classify": t_classify}
        if wcm is not None:
            delta = rng.uniform(-0.1, 0.1, size=3)
            times["build_wcm"] = t_build
            times["shift_wcm"] = _timed(lambda: shift_wcm(wcm, delta))[1]
        if i >= 0:
            for op, t in times.items():
                timings.setdefault(op, []).append(t)

    stats = {}
    for op, values in timings.items():
        arr = 1e3 * np.asarray(values)
        stats[op] = {
            "median_ms": float(np.median(arr)),
            "mean_ms": float(np.mean(arr)),
            "p95_ms": float(np.percentile(arr, 95)),
        }
    _emit(
        {
            "command": "bench",
            "n_contacts": len(scene.config),
            "classification": "constrained" if cls.constrained else "unconstrained",
            "reps": args.reps,
            "stats": stats,
        }
    )
    if args.csv:
        rows = [[op, *s.values()] for op, s in stats.items()]
        _write_csv(args.csv, ["operation", "median_ms", "mean_ms", "p95_ms"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrenchfeas",
        description="Wrench feasibility analysis for frictional multi-contact scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a scene, print the constraint rows")
    p.add_argument("scene")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="is a CoM motion feasible for a scene?")
    p.add_argument("scene")
    p.add_argument("--accel", type=_triple, required=True, metavar="x,y,z")
    p.add_argument("--ldot", type=_triple, default=None, metavar="x,y,z")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("shift", help="re-anchor the constraint matrix and compare")
    p.add_argument("scene")
    p.add_argument("--delta", type=_triple, required=True, metavar="x,y,z")
    p.add_argument("--samples", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("scenario", help="run a phased scenario with timings")
    p.add_argument("scenario")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("bench", help="timing statistics for one scene")
    p.add_argument("scene")
    p.add_argument("--reps", type=_at_least(1), default=100)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: construction costs far more than one parse.
    return build_parser()


def _is_vector_flag(token: str) -> bool:
    """``--accel``, ``--ldot`` or ``--delta``, or a prefix of one, such as
    ``--acc``, that argparse expands to it."""
    return len(token) > 2 and any(flag.startswith(token) for flag in _VECTOR_FLAGS)


def _joined_vector_flags(argv) -> list:
    """``argv`` with each vector flag written as ``--flag=value`` when its
    value starts with a minus sign: argparse takes ``-0.05,0,0`` for an
    option, since it is not a plain negative number."""
    joined = []
    for token in argv:
        if joined and _is_vector_flag(joined[-1]) and _NEGATIVE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = _joined_vector_flags(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (SceneFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
