"""wrenchfeas benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload stance_switch --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` without
being installed.  The run sets up (timed, three times, median reported), warms
up, then repeats whole rounds of the workload's operations until ``--seconds``
have passed.  Every reported time is scaled to a reference machine speed, read
from a fixed probe run between operations.  Afterwards every operation of the
first round is judged by the independent checker and every later round must
repeat the first round's verdicts.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; a summary goes to stderr
and the result (and, with ``--trace 1``, the spans) to ``perfbench/results/``.
"""

import os

# One BLAS/OpenMP thread: the package's matrices are tiny, and the benchmark
# must not depend on how many cores the machine lends it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
WARMUP_OPS = 8
# The machine's speed drifts by up to ±25 % within seconds and by more over
# minutes, for pure Python and numpy code alike (see README, "Reference
# time").  Every time is therefore scaled by PROBE_REFERENCE_NS / the time of a
# fixed probe run next to it.
PROBE_PYTHON_STEPS = 10_000
PROBE_NUMPY_STEPS = 375
PROBE_REFERENCE_NS = 3_000_000
PROBE_EVERY_NS = 40_000_000
PROBE_WINDOW = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the package from src/; seconds taken, or None if it is missing."""
    start = time.perf_counter()
    if not (SRC / "wrenchfeas" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import wrenchfeas.cli  # noqa: F401  (imports every layer)

    return time.perf_counter() - start


def probe():
    """Fixed work shaped like the program's: pure-Python arithmetic, then
    numpy calls on a 6-vector.  Its time tracks the machine's current speed.
    Called only once the package, and so numpy, is imported."""
    import numpy as np

    matrix, vector = np.arange(36.0).reshape(6, 6), np.ones(6)
    total = 0
    for i in range(PROBE_PYTHON_STEPS):
        total += i * i
    for _ in range(PROBE_NUMPY_STEPS):
        y = matrix @ vector
        total += float(y.max()) + float(np.dot(y, vector))
    return total


def timed_probe():
    start = time.perf_counter_ns()
    probe()
    return time.perf_counter_ns() - start


@dataclass
class Measured:
    """What the timed rounds leave: the first round's outputs, whether every
    later round repeated its verdicts, the time (ns) of every operation,
    where each round starts in it and whether it was traced, and the probes
    as (index of the next operation, probe ns)."""

    first: list
    rounds: int
    repeat_ok: bool
    latencies: array
    round_starts: list
    traced: list
    probes: list


def measure(workload, seconds, tracer=None, min_rounds=1):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` ran.
    With a tracer, rounds alternate untraced / traced, starting untraced.
    A probe runs before the first operation, after the last, and between
    operations whenever ``PROBE_EVERY_NS`` of them have passed since the
    last one.  Later rounds keep only the verdict check, so memory does not
    grow with the number of rounds beyond one integer per operation."""
    ops, execute, key, clock = workload.ops, workload.execute, workload.key, time.perf_counter_ns
    first, first_keys, repeat_ok = None, None, True
    latencies, round_starts, traced_flags = array("q"), [], []
    probes = [(0, timed_probe())]
    last_probe = clock()
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(round_starts) % 2 == 1
        if traced:
            tracer.install()
        round_starts.append(len(latencies))
        traced_flags.append(traced)
        outs = [None] * len(ops)
        for i, op in enumerate(ops):
            if traced:
                tracer.op = (len(round_starts) - 1, i)
            start = clock()
            outs[i] = execute(op)
            end = clock()
            latencies.append(end - start)
            if end - last_probe >= PROBE_EVERY_NS:
                probes.append((len(latencies), timed_probe()))
                last_probe = clock()
        if traced:
            tracer.remove()
            tracer.op = None
        if first is None:
            first, first_keys = outs, [key(out) for out in outs]
        else:
            repeat_ok = repeat_ok and [key(out) for out in outs] == first_keys
        if time.perf_counter() - begin >= seconds and len(round_starts) >= min_rounds:
            probes.append((len(latencies), timed_probe()))
            return Measured(first, len(round_starts), repeat_ok, latencies, round_starts, traced_flags, probes)


def reference_times(measured):
    """Each operation's time scaled to the reference machine speed: times
    ``PROBE_REFERENCE_NS`` / the probe time around it.  That probe time is
    the median of the ``PROBE_WINDOW`` probes nearest each end of the
    operation's stretch, averaged over both ends: one probe alone jitters
    enough to widen the tail of short operations."""
    positions = [at for at, _ in measured.probes]
    times = [ns for _, ns in measured.probes]
    half = PROBE_WINDOW // 2
    smooth = [median(times[max(0, k - half) : k + half + 1]) for k in range(len(times))]
    scaled = array("d")
    for k in range(len(times) - 1):
        factor = 2.0 * PROBE_REFERENCE_NS / (smooth[k] + smooth[k + 1])
        scaled.extend(t * factor for t in measured.latencies[positions[k] : positions[k + 1]])
    return scaled


def round_times(measured, per_op, traced):
    """Sum of ``per_op`` over each round whose traced flag is ``traced``."""
    bounds = measured.round_starts + [len(per_op)]
    return [
        sum(per_op[bounds[r] : bounds[r + 1]]) for r in range(measured.rounds) if measured.traced[r] == traced
    ]


def untraced_times(measured, per_op):
    bounds = measured.round_starts + [len(per_op)]
    return [t for r in range(measured.rounds) if not measured.traced[r] for t in per_op[bounds[r] : bounds[r + 1]]]


def quantile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _share(judged):
    flat = [v for j in judged for v in (j.verdict if isinstance(j.verdict, tuple) else (j.verdict,))]
    return sum(v is True for v in flat) / len(flat)


def judge(workload, first, rounds, repeat_ok):
    """(correct, failed operations, summary) for ``rounds`` rounds that began
    with the outputs ``first``; ``repeat_ok`` tells whether the later rounds
    repeated its verdicts."""
    judged = workload.check(first)
    failed_per_round = sum(j.failed for j in judged)
    violations = [v for j in judged if not j.failed for v in j.violations]
    seen = set()
    for j in judged:
        if not j.failed and j.status != "band":
            seen.update(j.verdict if isinstance(j.verdict, tuple) else (j.verdict,))
    both = {True, False} <= seen
    correct = repeat_ok and not violations and both
    summary = {
        "rounds": rounds,
        "ops_per_round": len(first),
        "failed_per_round": dict(Counter(j.status for j in judged if j.failed)),
        "failed_ops": [f"{op[0]}: {j.status}" for op, j in zip(workload.ops, judged) if j.failed],
        "band_per_round": sum(j.status == "band" for j in judged),
        "feasible_share": _share(judged),
        "rounds_repeat_first": repeat_ok,
        "both_verdicts": both,
        "violations": violations[:10],
    }
    return correct, failed_per_round * rounds, summary


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    import_s = import_program()
    if import_s is None:
        print(f"error: no wrenchfeas package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    setup_probes = [timed_probe()]
    import workloads
    from tracing import PER_LAYER, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
        setup_probes.append(timed_probe())
    raw_setup_s = import_s + median(setup_times)
    setup_s = raw_setup_s * PROBE_REFERENCE_NS / median(setup_probes)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()  # one traced set-up, so set-up-only layers show
        workload.setup(args.seed)
        tracer.remove()
    for op in workload.ops[:WARMUP_OPS]:
        workload.execute(op)
    gc.collect()
    gc.freeze()

    measured = measure(workload, args.seconds, tracer, min_rounds=2 if tracer else 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_start = time.perf_counter()
    correct, failed, summary = judge(workload, measured.first, measured.rounds, measured.repeat_ok)
    summary["check_s"] = round(time.perf_counter() - check_start, 3)

    n_ops = len(workload.ops)
    scaled = reference_times(measured)
    throughput = n_ops / (median(round_times(measured, scaled, False)) * 1e-9)
    if tracer:
        traced = round_times(measured, scaled, True)
        traced_throughput = n_ops / (median(traced) * 1e-9)
        values = tracer.layer_metrics(len(traced))
        values["trace.overhead_pct"] = 100.0 * (throughput / traced_throughput - 1.0)
        values["trace.base_ops_per_s"] = throughput
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        lat = sorted(untraced_times(measured, scaled))
        metrics = {
            "throughput_ops_per_s": {"value": throughput, "unit": "ops/s"},
            "latency_p50_ms": {"value": median(lat) * 1e-6, "unit": "ms"},
            "latency_p90_ms": {"value": quantile(lat, 0.9) * 1e-6, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": correct, "attempted": n_ops * measured.rounds, "failed": failed, "metrics": metrics}

    # The same figures unscaled, and the machine's speed against the reference.
    raw = sorted(untraced_times(measured, measured.latencies))
    probe_ns = [ns for _, ns in measured.probes]
    summary["unscaled"] = {
        "throughput_ops_per_s": n_ops / (median(round_times(measured, measured.latencies, False)) * 1e-9),
        "latency_p50_ms": median(raw) * 1e-6,
        "latency_p90_ms": quantile(raw, 0.9) * 1e-6,
        "setup_s": raw_setup_s,
    }
    summary["probes"] = len(probe_ns)
    summary["speed_vs_reference"] = {
        "setup": PROBE_REFERENCE_NS / median(setup_probes),
        "rounds_q1_median_q3": [PROBE_REFERENCE_NS / q for q in reversed(quantiles(probe_ns, n=4))],
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary.update(workload=args.workload, seed=args.seed, setup_times_s=setup_times, import_s=import_s,
                   total_s=round(time.perf_counter() - t_start, 3))
    (RESULTS / f"{stem}.json").write_text(json.dumps({"result": result, "summary": summary}, indent=1) + "\n")
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
