"""Run a cclab workload in fresh interpreters and print its metrics.

    python3 perfbench/run.py --workload disc-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each round is one `worker.py` process, so cclab's lru caches start cold as
they do for every `cclab` command.  Rounds repeat until the next one would
end past --seconds, with at least three rounds (with --trace 1, untraced
and traced rounds alternate, at least two of each), unless that would take
twice --seconds.  The last line of stdout is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, which holds
the end-to-end metrics with --trace 0 and the per-layer ones with --trace 1.
Raw rounds and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("disc-ladder", "bp-eps", "margin", "amplify")

# A run starts no round that could end past this many seconds.
RUN_BUDGET_S = 140.0
# The worker's speed probe at this host's fast level (2-vCPU Xeon VM,
# Python 3.11); times are reported at this probe speed.
PROBE_REFERENCE_S = 0.0054
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# Per-layer metrics: name -> (unit, how to read it from one traced round).
LAYER_TIMES = {
    "lp.solve_s": ("lp", "s"),
    "measures.separation.s": ("measures.separation", "s"),
    "measures.highs.s": ("measures.highs", "s"),
    "measures.disc.s": ("measures.disc", "s"),
    "measures.disc.self_s": ("measures.disc", "self_s"),
    "measures.bp.s": ("measures.bp", "s"),
    "measures.bp.self_s": ("measures.bp", "self_s"),
    "measures.bp.score_s": ("measures.bp.score", "s"),
    "measures.mc.s": ("measures.mc", "s"),
    "compilers.majority.s": ("compilers.majority", "s"),
    "majority.form.s": ("majority.form", "s"),
    "randomized.amplify.s": ("randomized.amplify", "s"),
    "randomized.error.s": ("randomized.error", "s"),
    "protocols.pp_matrix.s": ("protocols.pp_matrix", "s"),
    "pipeline.run.s": ("pipeline.run", "s"),
}
LAYER_CALLS = {
    "lp.solves": "lp",
    "measures.separation.calls": "measures.separation",
    "measures.highs.calls": "measures.highs",
    "measures.disc.calls": "measures.disc",
    "measures.bp.calls": "measures.bp",
    "measures.mc.calls": "measures.mc",
    "compilers.majority.calls": "compilers.majority",
    "protocols.pp_matrix.calls": "protocols.pp_matrix",
}
LAYER_COUNTS = (
    "measures.disc.iterations",
    "measures.disc.cache_hits",
    "measures.disc.cache_misses",
    "measures.bp.candidates",
    "measures.bp.prefix_games",
    "measures.mc.restarts_used",
    "majority.form.cache_misses",
    "randomized.amplify.support",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def run_round(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round did not finish in {timeout:.0f} s") from exc
    ended = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report.update(spawned=spawned, ended=ended, traced=traced)
    probes = report["probes"]
    # Host speed while op i ran, as a factor onto the reference speed.
    report["speed"] = [PROBE_REFERENCE_S * 2 / (a + b) for a, b in zip(probes, probes[1:])]
    report["setup_s"] = (report["first_op"] - spawned) * PROBE_REFERENCE_S / probes[0]
    return report


def fastest_ops(rounds: list[dict]) -> list[float]:
    """Each op's speed-scaled time in its fastest round.  This host's speed
    moves between levels about 1.5x apart, for seconds to minutes at a
    time.  Scaling each op by the probes on either side of it takes most
    of that out; what is left only adds time, so the minimum over rounds
    is steadier than their median (README.md)."""
    scaled = ([op["s"] * k for op, k in zip(r["ops"], r["speed"])] for r in rounds)
    return [min(times) for times in zip(*scaled)]


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    begin = time.monotonic()
    rounds: list[dict] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        elapsed = time.monotonic() - begin
        rounds.append(run_round(workload, seed, traced, RUN_BUDGET_S + 30 - elapsed))
        ends = time.monotonic() - begin + max(r["ended"] - r["spawned"] for r in rounds)
        if len(rounds) >= (4 if trace else 3) and ends > seconds:
            return rounds
        # A host slow enough to push a run past twice its length gets fewer
        # rounds rather than overrunning.
        if len(rounds) >= 2 and ends > min(2 * seconds, RUN_BUDGET_S):
            return rounds


def layer_metrics(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    first = traced[0]["trace"]
    for other in traced[1:]:
        if (other["trace"]["counts"], other["trace"]["maxima"]) != (first["counts"], first["maxima"]):
            print("warning: traced rounds disagree on counts", file=sys.stderr)

    # Each op's layer figures come from its fastest traced round, as in
    # trace.wall_s, so the layer times of a workload add up within it.
    fastest = [
        min(traced, key=lambda r: r["ops"][i]["s"] * r["speed"][i])
        for i in range(len(traced[0]["ops"]))
    ]

    def layer(span: str, field: str) -> float:
        """A span's calls, or its speed-scaled seconds, summed over ops."""
        column = ("calls", "s", "self_s").index(field)
        return sum(
            figures[column] * (r["speed"][i] if column else 1)
            for i, r in enumerate(fastest)
            for op, name, *figures in r["trace"]["layers"]
            if op == i and name == span
        )

    metrics = {}
    traced_wall = sum(fastest_ops(traced))
    plain_wall = sum(fastest_ops(plain))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    for name, (span, field) in LAYER_TIMES.items():
        metrics[name] = (layer(span, field), "s")
    for name, span in LAYER_CALLS.items():
        metrics[name] = (layer(span, "calls"), "count")
    for name in LAYER_COUNTS:
        metrics[name] = (first["counts"].get(name, 0), "count")
    metrics["lp.rows_max"] = (first["maxima"].get("lp.rows_max", 0), "count")
    return metrics


def end_to_end_metrics(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    ops = fastest_ops(rounds)
    return {
        "wall_s": (sum(ops), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds = run_rounds(workload, seed, seconds, trace)
    failures = [f for r in rounds for f in r["check_failures"]]
    errors = [f"{op['label']}: {op['error']}" for r in rounds for op in r["ops"] if op["error"]]
    for line in sorted(set(failures + errors)):
        print(f"{workload}: {line}", file=sys.stderr)
    metrics = layer_metrics(rounds) if trace else end_to_end_metrics(rounds)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    spans = [r["trace"].pop("spans") for r in rounds if r["traced"]]
    (OUT / f"{stem}.json").write_text(json.dumps({"rounds": rounds}, indent=1))
    if spans:
        (OUT / f"{stem}.spans.json").write_text(
            json.dumps({"fields": ["id", "parent", "name", "op", "start", "end"], "spans": spans[-1]})
        )
    return {
        "correct": not failures,
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": len(errors),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cclab" / "__init__.py").is_file():
        print(f"cclab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(json.dumps({"workload": name, **result}))
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}/{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
