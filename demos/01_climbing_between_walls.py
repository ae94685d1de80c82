"""A body braced between two facing vertical walls, with no ground support.

The friction cones of the wall contacts point in opposite directions, and
their dual cones share no direction at all.  That is the signature of a
configuration that can realize *any* total force: the body can accelerate its
center of mass in every direction, including straight up, which is how
climbing between walls works.
"""

import numpy as np

from wrenchfeas import (
    MotionQuery,
    acceleration_feasible,
    bundled_path,
    classify,
    force_membership_lp,
    load_scene,
)

scene = load_scene(bundled_path("two_walls"))
print(f"scene: {len(scene.config)} contacts, mass {scene.body.mass} kg")
for c in scene.config.contacts[:4]:
    print(f"  contact at {np.round(c.point, 3)}, pushes along {np.round(c.normal, 3)}")
print("  ...")

cls = classify(scene.config, scene.com)
print(f"\nclassification: {'constrained' if cls.constrained else 'unconstrained'}")
print(f"s* (minus the witness margin, 0 without a strict witness): {cls.s_star:.2e}")

# Unconstrained means every total force is achievable.  Spot-check a few
# arbitrary targets against the membership oracle, including straight down
# and sideways at multiples of body weight.
rng = np.random.default_rng(0)
print("\nrandom target forces vs the membership oracle:")
for _ in range(5):
    force = rng.normal(size=3) * scene.body.mass * 9.81
    verdict = force_membership_lp(cls.generating, force)
    print(f"  F = {np.round(force, 1)} N  ->  {'achievable' if verdict.feasible else 'NOT achievable'}")

# Accelerating upward with nothing underneath the body:
query = MotionQuery([0.0, 0.0, 5.0])
ok = acceleration_feasible(cls, None, scene.body, query, scene.com)
print(f"\naccelerate CoM at +5 m/s^2 straight up, no ground: {'feasible' if ok else 'infeasible'}")
