"""Reference figures: what scipy alone takes on the benchmark's own inputs.

    python3 perfbench/reference.py --seed 1

* qhull floor: every 5-D point cloud that ``build_wcm`` hands to
  ``hull.convex_hull`` in ``stance_switch``, hulled by
  ``scipy.spatial.ConvexHull`` directly, against the program's hull stage.
* HiGHS: the classification LP of every ``stance_switch`` stance and the
  membership LP of every ``oracle_verify`` operation, solved by
  ``scipy.optimize.linprog(method="highs")``, against the program's solver.

Each time is the median of five calls.  Prints one JSON object with medians
and sums over the inputs, plus the Python, numpy and scipy versions and the
number of CPUs this process may use.
"""

import argparse
import json
import os
import platform
import sys
import time
from statistics import median

import run


def timed(fn, reps=5):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def summary(pairs):
    prog = [p for p, _ in pairs]
    ref = [r for _, r in pairs]
    return {
        "inputs": len(pairs),
        "program_median_ms": 1e3 * median(prog),
        "scipy_median_ms": 1e3 * median(ref),
        "program_sum_ms": 1e3 * sum(prog),
        "scipy_sum_ms": 1e3 * sum(ref),
    }


def main():
    args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args.add_argument("--seed", type=int, default=1)
    seed = args.parse_args().seed
    if run.import_program() is None:
        print(f"error: no wrenchfeas package under {run.SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull
    from wrenchfeas import contacts, feasibility, hull, oracle, wcm

    import workloads

    stance = workloads.StanceSwitch()
    stance.setup(seed)
    stances = [op for op in stance.ops if op[0] not in stance.FIXTURES]
    clouds = []
    original = wcm.convex_hull
    wcm.convex_hull = lambda points, *a, **k: (clouds.append(np.array(points)), original(points, *a, **k))[1]
    try:
        for op in stances:
            stance.execute(op)
    finally:
        wcm.convex_hull = original
    full_rank = [p for p in clouds if np.linalg.matrix_rank(p - p.mean(axis=0)) == p.shape[1]]
    hulls = [(timed(lambda: hull.convex_hull(p)), timed(lambda: ConvexHull(p))) for p in full_rank]

    def dual_lp(config, com):
        u = contacts.build_generating_matrices(config, com).force_generators
        rows = -np.hstack([u.T, np.ones((u.shape[1], 1))])
        bounds = [(-1, 1)] * 3 + [(-1, None)]
        return lambda: linprog([0, 0, 0, 1], A_ub=rows, b_ub=np.zeros(u.shape[1]), bounds=bounds, method="highs")

    classify = [
        (timed(lambda: feasibility.classify(config, com)), timed(dual_lp(config, com)))
        for _, config, com, _ in stances
    ]

    verify = workloads.OracleVerify()
    verify.setup(seed)
    membership = []
    for op in verify.ops:
        _, gen, target, _ = op
        vec = target if isinstance(target, np.ndarray) else target.as_array()
        g = gen.force_generators if vec.size == 3 else gen.stacked()
        highs = lambda: linprog(np.zeros(g.shape[1]), A_eq=g, b_eq=vec, bounds=(0, None), method="highs")
        membership.append((timed(lambda: verify.execute(op)), timed(highs)))

    print(json.dumps({
        "seed": seed,
        "hull_vs_qhull": summary(hulls),
        "hull_clouds_not_full_rank": len(clouds) - len(full_rank),
        "classify_vs_highs": summary(classify),
        "oracle_membership_vs_highs": summary(membership),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus": len(os.sched_getaffinity(0)),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
