"""Six contact phases of a sideways traverse along a wall, with timing.

Each phase holds a different contact set (ground, a 45-degree incline, the
wall's vertical face, its top surface).  The classification and the
constraint matrix are computed once per phase; one ``trajectory_verdicts``
call then answers every trajectory sample of the phase at the matrix's
anchor, with no shifted matrix built per sample.
"""

import time

from wrenchfeas import (
    build_wcm,
    bundled_path,
    classify,
    load_scenario,
    trajectory_verdicts,
)

scenario = load_scenario(bundled_path("traverse_scenario"))

print(f"{'phase':10s} {'contacts':>8s} {'classify':>10s} {'build':>10s} {'answer':>10s}  samples")
answers = []
for phase in scenario.phases:
    scene = phase.scene
    t0 = time.perf_counter()
    cls = classify(scene.config, scene.com)
    t_classify = time.perf_counter() - t0
    assert cls.constrained

    t0 = time.perf_counter()
    wcm = build_wcm(scene.config, scene.com, cls.witness)
    t_build = time.perf_counter() - t0

    samples = phase.samples
    t0 = time.perf_counter()
    verdicts, margins = trajectory_verdicts(
        cls,
        wcm,
        scene.body,
        [s.com for s in samples],
        [s.accel for s in samples],
        [s.l_dot for s in samples],
    )
    t_answer = time.perf_counter() - t0
    answers.append(margins)
    print(
        f"{phase.name:10s} {len(scene.config):8d} "
        f"{1e3 * t_classify:8.2f}ms {1e3 * t_build:8.2f}ms "
        f"{1e6 * t_answer / len(samples):8.1f}us  {''.join('+' if ok else '-' for ok in verdicts)}"
    )

# margin along one phase as the CoM drifts
phase = scenario.phases[1]
print(f"\nfeasibility margin along phase '{phase.name}':")
for sample, margin in zip(phase.samples, answers[1]):
    print(f"  t = {sample.t:.1f}s  com = {sample.com.round(3)}  margin = {margin:8.3f}")
