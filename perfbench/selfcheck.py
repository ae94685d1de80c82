"""Sanity test of the benchmark harness: its checks must be able to fail.

    python3 perfbench/selfcheck.py

For every workload this runs one round, then flips the verdict of the first
operation the checker could judge and judges again.  The flipped round must
report exactly one more failed operation, and a run whose second round
differs from its first must report ``correct: false``.  Exits 0 when every
workload passes.
"""

import sys

import run


def selfcheck(name, seed=0):
    import workloads

    workload = workloads.WORKLOADS[name]()
    workload.setup(seed)
    first = run.measure(workload, 0.0).first
    correct, failed, _ = run.judge(workload, first, 1, True)
    target = next(i for i, j in enumerate(workload.check(first)) if j.status is None)
    flipped = list(first)
    flipped[target] = workload.flip(flipped[target])
    _, failed_flipped, _ = run.judge(workload, flipped, 1, True)

    # A second round that flips the same verdict must break the repeat check.
    calls, execute = [0], workload.execute

    def tampered(op):
        out = execute(op)
        calls[0] += 1
        return workload.flip(out) if calls[0] == len(workload.ops) + target + 1 else out

    workload.execute = tampered
    second = run.measure(workload, 0.0, min_rounds=2)
    correct_mixed, _, _ = run.judge(workload, second.first, second.rounds, second.repeat_ok)
    ok = correct and failed_flipped == failed + 1 and not correct_mixed
    print(
        f"{name}: op {target} flipped; failed {failed} -> {failed_flipped}; "
        f"differing rounds give correct={correct_mixed}: {'ok' if ok else 'FAILED'}"
    )
    return ok


def main():
    if run.import_program() is None:
        print(f"error: no wrenchfeas package under {run.SRC}", file=sys.stderr)
        return 2
    import workloads

    results = [selfcheck(name) for name in workloads.WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
