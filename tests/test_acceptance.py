"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from wrenchfeas import (
    Contact,
    ContactConfiguration,
    FrictionCone,
    Wrench,
    build_generating_matrices,
    build_wcm,
    classify,
    compare_wcm_oracle,
    force_membership_lp,
    load_scenario,
    load_scene,
    bundled_path,
    shift_wcm,
    wrench_feasible,
    wrench_margin,
    wrench_membership_lp,
)
from wrenchfeas.wcm import modified_generators

from conftest import (
    flat_foot_config,
    ground_contact,
    line_foot_config,
    random_config,
    random_constrained_config,
    random_rotation,
    rotate_config,
    single_contact_config,
)


def report(number: int, name: str, passed: bool) -> bool:
    print(f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'}")
    return passed


def test_criterion_1_arbitrary_force_detection():
    started = time.perf_counter()
    scene = load_scene(bundled_path("two_walls"))
    cls = classify(scene.config, scene.com)
    slack_ok = not cls.constrained and abs(cls.s_star) <= 1e-8

    rng = np.random.default_rng(1)
    forces_ok = 0
    for _ in range(100):
        force = rng.normal(size=3) * scene.body.mass * 9.81
        if force_membership_lp(cls.generating, force).feasible:
            forces_ok += 1
    elapsed = time.perf_counter() - started
    time_ok = elapsed < 1.0

    passed = report(
        1,
        f"two-walls unconstrained, {forces_ok}/100 target forces, {elapsed:.2f}s",
        slack_ok and forces_ok == 100 and time_ok,
    )
    assert slack_ok, f"expected unconstrained with |s*| <= 1e-8, got {cls.s_star}"
    assert forces_ok == 100
    assert time_ok, f"criterion 1 took {elapsed:.2f}s (limit 1s)"
    assert passed


def test_criterion_2_zmp_recovery():
    scene = load_scene(bundled_path("flat_foot"))
    half_x, half_y = 0.1, 0.05
    cls = classify(scene.config, scene.com)
    wcm = build_wcm(scene.config, scene.com, cls.witness)
    gen = cls.generating
    mg = scene.body.mass * 9.81
    band = 1e-6

    mismatches = 0
    checked = 0
    for x in np.linspace(-0.16, 0.16, 50):
        for y in np.linspace(-0.09, 0.09, 50):
            edge_distance = min(abs(abs(x) - half_x), abs(abs(y) - half_y))
            if edge_distance <= band:
                continue
            point = np.array([x, y, 0.0])
            force = np.array([0.0, 0.0, mg])
            wrench = Wrench(force, np.cross(point - scene.com, force), scene.com)
            inside = abs(x) < half_x and abs(y) < half_y
            from_wcm = wrench_feasible(wcm, wrench)
            from_oracle = wrench_membership_lp(gen, wrench).feasible
            checked += 1
            if not (from_wcm == from_oracle == inside):
                mismatches += 1

    passed = report(
        2,
        f"flat-foot pressure-point sweep, {checked} grid points, "
        f"{mismatches} mismatches",
        mismatches == 0 and checked > 2000,
    )
    assert mismatches == 0
    assert checked > 2000
    assert passed


def acceptance_scenes():
    """Five structurally distinct constrained scenes."""
    flat = load_scene(bundled_path("flat_foot"))
    incline_ground = load_scene(bundled_path("traverse_phase1"))
    two_plane_12 = load_scene(bundled_path("traverse_phase2"))
    return [
        ("single_contact", single_contact_config(), np.array([0.0, 0.0, 0.5])),
        ("flat_foot", flat.config, flat.com),
        ("incline_plus_ground", incline_ground.config, incline_ground.com),
        ("twelve_contacts_two_planes", two_plane_12.config, two_plane_12.com),
        ("degenerate_line_foot", line_foot_config(), np.array([0.02, 0.01, 0.6])),
    ]


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    n_samples = 10_000
    failures = []
    for name, config, com in acceptance_scenes():
        cls = classify(config, com)
        assert cls.constrained, f"{name} must classify constrained"
        wcm = build_wcm(config, com, cls.witness)
        rep = compare_wcm_oracle(cls.generating, wcm, n_samples, rng_seed=7)
        if rep.disagree != 0 or rep.total != n_samples:
            failures.append((name, rep))
    elapsed = time.perf_counter() - started
    time_ok = elapsed < 60.0

    passed = report(
        3,
        f"5 scenes x {n_samples} wrenches vs oracle, {elapsed:.1f}s",
        not failures and time_ok,
    )
    assert not failures, failures
    assert time_ok, f"criterion 3 took {elapsed:.1f}s (limit 60s)"
    assert passed


def test_criterion_4_shift_equivalence():
    rng = np.random.default_rng(14)
    scenes = [
        load_scene(bundled_path(f"traverse_phase{k}")) for k in range(1, 7)
    ]
    prepared = []
    for scene in scenes:
        cls = classify(scene.config, scene.com)
        prepared.append((scene, cls, build_wcm(scene.config, scene.com, cls.witness)))

    total_disagreements = 0
    for trial in range(20):
        scene, cls, base = prepared[trial % len(prepared)]
        delta = rng.uniform(-1.0, 1.0, size=3)
        delta *= rng.uniform(0.0, 0.3) / np.linalg.norm(delta)
        shifted = shift_wcm(base, delta)
        com_b = scene.com + delta
        rebuilt = build_wcm(scene.config, com_b, cls.witness)
        stacked = build_generating_matrices(scene.config, com_b).stacked()
        for k in range(1000):
            if k % 2 == 0:
                w6 = stacked @ rng.exponential(size=stacked.shape[1])
            else:
                w6 = rng.normal(size=6) * 400.0
            wrench = Wrench(w6[:3], w6[3:], com_b)
            a = wrench_feasible(shifted, wrench)
            b = wrench_feasible(rebuilt, wrench)
            if a != b:
                near = min(
                    abs(wrench_margin(shifted, wrench)),
                    abs(wrench_margin(rebuilt, wrench)),
                )
                if near > 1e-7 * (1.0 + np.linalg.norm(w6)):
                    total_disagreements += 1

    passed = report(
        4,
        f"20 shifts x 1000 wrenches, {total_disagreements} disagreements",
        total_disagreements == 0,
    )
    assert total_disagreements == 0
    assert passed


def test_criterion_5_shift_speedup():
    scene = load_scene(bundled_path("traverse_phase2"))
    assert len(scene.config) == 12
    cls = classify(scene.config, scene.com)
    wcm = build_wcm(scene.config, scene.com, cls.witness)
    reps = 1000
    # Drawn before the loop, so the timed region t2-t3 holds the shift alone:
    # right after a build, a random draw inside it runs cold too.
    deltas = np.random.default_rng(5).uniform(-0.1, 0.1, size=(reps + 10, 3))

    classify_times = []
    build_times = []
    shift_times = []
    for i, delta in enumerate(deltas):
        t0 = time.perf_counter()
        classify(scene.config, scene.com)
        t1 = time.perf_counter()
        build_wcm(scene.config, scene.com, cls.witness)
        t2 = time.perf_counter()
        shift_wcm(wcm, delta)
        t3 = time.perf_counter()
        if i >= 10:  # exclude warm-up
            classify_times.append(t1 - t0)
            build_times.append(t2 - t1)
            shift_times.append(t3 - t2)

    classify_ms = 1e3 * float(np.median(classify_times))
    build_ms = 1e3 * float(np.median(build_times))
    shift_ms = 1e3 * float(np.median(shift_times))
    ratio = build_ms / shift_ms

    ratio_ok = shift_ms <= build_ms / 50.0
    build_ok = build_ms <= 50.0
    classify_ok = classify_ms <= 5.0
    passed = report(
        5,
        f"classify {classify_ms:.3f}ms, build {build_ms:.3f}ms, "
        f"shift {shift_ms:.4f}ms (x{ratio:.0f} cheaper)",
        ratio_ok and build_ok and classify_ok,
    )
    assert ratio_ok, f"shift {shift_ms}ms vs build {build_ms}ms: below 50x"
    assert build_ok, f"build median {build_ms}ms exceeds 50ms"
    assert classify_ok, f"classify median {classify_ms}ms exceeds 5ms"
    assert passed


def test_criterion_6_shape_checks():
    config = flat_foot_config()
    gen = build_generating_matrices(config, [0.0, 0.0, 0.8])
    shape_ok = gen.force_generators.shape == (3, 16)

    cls = classify(config, [0.0, 0.0, 0.8])
    mod = modified_generators(cls.generating, cls.witness)
    ones_dev = float(np.max(np.abs(mod.force_generators[2] - 1.0)))
    ones_ok = ones_dev <= 1e-12

    passed = report(
        6,
        f"4x4 generators 3x16, normalized third row dev {ones_dev:.1e}",
        shape_ok and ones_ok,
    )
    assert shape_ok
    assert ones_ok
    assert passed


def test_criterion_7_invariance_suite():
    rng = np.random.default_rng(70)
    violations = 0
    for trial in range(100):
        if trial % 2 == 0:
            config = random_constrained_config(rng, n_contacts=int(rng.integers(2, 6)))
        else:
            config = random_config(rng)
        com = rng.uniform(-0.2, 0.2, size=3)
        cls = classify(config, com)

        # rigid rotation
        q = random_rotation(rng)
        rotated = rotate_config(config, q)
        cls_rot = classify(rotated, q @ com)
        if cls_rot.constrained != cls.constrained:
            violations += 1
        # permutation
        order = rng.permutation(len(config.contacts))
        permuted = ContactConfiguration(tuple(config.contacts[i] for i in order))
        if classify(permuted, com).constrained != cls.constrained:
            violations += 1
        # uniform position scaling
        scale = float(rng.uniform(0.3, 3.0))
        scaled = ContactConfiguration(
            tuple(Contact(scale * c.point, c.rotation, c.cone) for c in config.contacts)
        )
        if classify(scaled, scale * com).constrained != cls.constrained:
            violations += 1

        if not cls.constrained:
            continue
        wcm = build_wcm(config, com, cls.witness)
        wcm_rot = build_wcm(rotated, q @ com, cls_rot.witness)
        stacked = cls.generating.stacked()
        row_scales = rng.uniform(0.1, 10.0, size=(wcm.n_rows, 1))
        scaled_rows = wcm.rows * row_scales
        for k in range(20):
            if k % 2 == 0:
                w6 = stacked @ rng.exponential(size=stacked.shape[1])
            else:
                w6 = rng.normal(size=6) * 200.0
            wrench = Wrench(w6[:3], w6[3:], com)
            band = 1e-7 * (1.0 + np.linalg.norm(w6))
            margin = wrench_margin(wcm, wrench)
            if abs(margin) <= band:
                continue
            verdict = wrench_feasible(wcm, wrench)
            # scene rotation, wrench rotated along
            rot_wrench = Wrench(q @ w6[:3], q @ w6[3:], q @ com)
            if abs(wrench_margin(wcm_rot, rot_wrench)) > band:
                if wrench_feasible(wcm_rot, rot_wrench) != verdict:
                    violations += 1
            # positive row scaling cannot flip any strict verdict
            scaled_verdict = bool(np.min(scaled_rows @ w6) >= 0.0)
            if scaled_verdict != (margin >= 0.0):
                violations += 1

    passed = report(7, f"100 randomized trials, {violations} violations", violations == 0)
    assert violations == 0
    assert passed
