"""One round of one workload, in the interpreter it starts.

    python3 perfbench/worker.py --workload disc-ladder --seed 1 --trace 0

Runs every op of the workload once, timing each, then records the peak
resident memory, then checks every output.  Between ops it times a fixed
pure-Python loop, the speed probe, so the parent can tell how fast the
host ran each op.  Prints one JSON object with monotonic timestamps
(comparable with the parent's clock), per-op times, probe times, failures
and, with --trace 1, the tracer's per-op layer figures and spans.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def probe() -> float:
    """Fastest of three runs of a fixed loop, about 8 ms each: small-int
    arithmetic, then an exact harmonic sum whose growing denominators
    stand in for cclab's big-integer Fraction work."""
    best = float("inf")
    for _ in range(3):
        begin = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        harmonic = Fraction(0)
        for i in range(1, 1000):
            harmonic += Fraction(1, i)
        best = min(best, time.perf_counter() - begin)
    return best


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import checks
    import tracer
    import workloads

    imported = time.monotonic()
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        tracer.install(trace)
    ops = workloads.WORKLOADS[args.workload](args.seed)

    outputs = {}
    records = []
    probes = [probe()]
    first_op = None
    for index, op in enumerate(ops):
        gc.collect()
        if first_op is None:
            first_op = time.monotonic()
        if trace:
            trace.start(index)
        begin = time.perf_counter()
        error = None
        try:
            outputs[op.label] = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - begin
        if trace:
            trace.stop()
        probes.append(probe())
        records.append({"label": op.label, "s": seconds, "error": error})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_failures = []
    for op in ops:
        if op.label not in outputs:
            continue
        try:
            op.check(outputs[op.label], outputs)
        except checks.CheckFailed as exc:
            check_failures.append(f"{op.label}: {exc}")
        except Exception as exc:  # a checker that crashes cannot vouch either
            check_failures.append(f"{op.label}: checker raised {type(exc).__name__}: {exc}")

    report = {
        "started": STARTED,
        "imported": imported,
        "first_op": first_op,
        "ops": records,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "check_failures": check_failures,
    }
    if trace:
        report["trace"] = {
            "layers": trace.layers(),
            "counts": dict(trace.counts),
            "maxima": dict(trace.maxima),
            "spans": trace.spans,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
