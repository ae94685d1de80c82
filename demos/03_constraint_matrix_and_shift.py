"""Re-anchoring the wrench constraint matrix as the center of mass moves.

Building the constraint matrix needs a convex hull in five dimensions.  Once
built, moving the reference point only requires composing the rows with one
6x6 matrix, so tracking a moving center of mass costs microseconds instead of
milliseconds, and gives the same verdicts as a rebuild from scratch.
"""

import time

import numpy as np

from wrenchfeas import (
    build_generating_matrices,
    build_wcm,
    bundled_path,
    classify,
    load_scene,
    shift_wcm,
)
from wrenchfeas.wcm import compare_wcm_pair

scene = load_scene(bundled_path("traverse_phase2"))
cls = classify(scene.config, scene.com)
print(f"12-contact scene on two planes: constrained = {cls.constrained}")

wcm = build_wcm(scene.config, scene.com, cls.witness)
print(f"constraint matrix: {wcm.n_rows} rows about {wcm.anchor}")

delta = np.array([0.05, -0.02, 0.08])
new_com = scene.com + delta

t0 = time.perf_counter()
shifted = shift_wcm(wcm, delta)
t_shift = time.perf_counter() - t0

t0 = time.perf_counter()
rebuilt = build_wcm(scene.config, new_com, cls.witness)
t_rebuild = time.perf_counter() - t0

print(f"\nshift by {delta}: {1e6 * t_shift:.0f} us")
print(f"rebuild from scratch:  {1e3 * t_rebuild:.2f} ms")
print(f"speedup: x{t_rebuild / t_shift:.0f}")

# Same verdicts either way, tallied by the routine `wrenchfeas shift` calls:
# on each face of the rebuilt matrix, one probe just inside and one just
# outside, which only that face's row tells apart, plus every generator.  A
# disagreement within the boundary band is excluded, not counted.
tally = compare_wcm_pair(build_generating_matrices(scene.config, new_com), shifted, rebuilt)
print(
    f"verdicts on {tally.total} probe wrenches: {tally.agree_feasible + tally.agree_infeasible} agree, "
    f"{tally.boundary_excluded} boundary-excluded, {tally.disagree} disagree"
)
