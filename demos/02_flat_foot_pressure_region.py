"""The classical support-polygon criterion, recovered from the general one.

A flat rectangular foot on horizontal ground is the textbook balance case: a
purely vertical load is supportable exactly when its pressure point lies
inside the foot rectangle.  Here the same answer falls out of the wrench
constraint matrix, with the membership oracle double-checking every grid point.
"""

import numpy as np

from wrenchfeas import (
    Wrench,
    build_wcm,
    bundled_path,
    classify,
    load_scene,
    wrench_feasible,
    wrench_membership_lp,
)

scene = load_scene(bundled_path("flat_foot"))
cls = classify(scene.config, scene.com)
print(f"flat foot: constrained = {cls.constrained}, witness = {np.round(cls.witness, 6)}")

wcm = build_wcm(scene.config, scene.com, cls.witness)
print(f"constraint matrix: {wcm.n_rows} rows about anchor {wcm.anchor}")

mg = scene.body.mass * 9.81
xs = np.linspace(-0.16, 0.16, 33)
ys = np.linspace(-0.09, 0.09, 19)

print("\nfeasibility of a vertical load applied at (x, y)  [# inside, . outside]")
print("foot rectangle: |x| <= 0.10, |y| <= 0.05")
disagreements = 0
for y in ys[::-1]:
    line = []
    for x in xs:
        point = np.array([x, y, 0.0])
        force = np.array([0.0, 0.0, mg])
        wrench = Wrench(force, np.cross(point - scene.com, force), scene.com)
        from_matrix = wrench_feasible(wcm, wrench)
        from_oracle = wrench_membership_lp(cls.generating, wrench).feasible
        if from_matrix != from_oracle:
            disagreements += 1
        line.append("#" if from_matrix else ".")
    print("   " + "".join(line))

print(f"\nmatrix vs oracle disagreements over {xs.size * ys.size} points: {disagreements}")
