"""Benchmark for ghzgap: end-to-end metrics per workload, layer metrics traced.

Run from the repository root; the package is imported from ./src, nothing
needs installing:

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(and records spans). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a fuller record with
the environment goes to bench/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, SRC, Tally, make_inputs, run_round, warm_up, worker_check

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
WORKLOADS = ("montecarlo", "exact", "cli")
SETUP_SAMPLES = 5
#: Small-invocation latency percentile reported as the tail: a cli run
#: gathers at least 40 samples, leaving at least 10 beyond it.
TAIL_PERCENTILE = 75

#: metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "qm_trials_per_s": ("trials/s", "higher"),
    "lhv_trials_per_s": ("trials/s", "higher"),
    "optimum_s": ("s", "lower"),
    "gap_rows_per_s": ("rows/s", "higher"),
    "cli_latency_p50_s": ("s", "lower"),
    "cli_latency_tail_s": ("s", "lower"),
    "report_mb_per_s": ("MB/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def import_program():
    """Import ghzgap from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import ghzgap

    if Path(ghzgap.__file__).resolve().parent != SRC / "ghzgap":
        sys.exit(f"bench: imported ghzgap from {ghzgap.__file__}, not from {SRC}")
    return ghzgap


def setup(workload: str, seed: int):
    """Import, input generation and warm-up: the part timed as setup_s."""
    os.environ["GHZGAP_WORKERS"] = "1"
    import_program()
    inputs = make_inputs(workload, seed)
    warm_up(inputs)
    return inputs


def setup_seconds(workload: str, seed: int) -> float:
    """Scaled wall time of a fresh interpreter that only sets up, then exits."""
    from spans import scaled_call

    argv = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload,
            "--seed", str(seed)]
    return scaled_call(lambda: subprocess.run(argv, cwd=ROOT, check=True, timeout=120))[2]


def environment(ghzgap) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ghzgap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ghzgap": ghzgap.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(t: Tally, setup_samples: list[float], rss_mb: float) -> dict[str, float]:
    """Every time is scaled to the reference host speed (see spans)."""
    lat = t.all_seconds("latency")
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return {
        "setup_s": statistics.median(setup_samples),
        "qm_trials_per_s": t.rate("qm"),
        "lhv_trials_per_s": t.rate("lhv"),
        "optimum_s": sum(t.medians("ladder").values()),
        "gap_rows_per_s": t.rate("rows"),
        "cli_latency_p50_s": statistics.median(lat),
        "cli_latency_tail_s": tail,
        "report_mb_per_s": t.rate("bytes") / 1e6,
        "peak_rss_mb": rss_mb,
    }


def check_declared(names: set[str], key: str) -> list[str]:
    """The metrics reported must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    declared = {m["name"] for m in json.loads(path.read_text())[key]}
    if declared == names:
        return []
    return [f"{key} declared but not reported: {sorted(declared - names)}; "
            f"reported but not declared: {sorted(names - declared)}"]


def run_workload(args) -> dict:
    from refs import self_check
    from spans import Tracer

    inputs = setup(args.workload, args.seed)
    import ghzgap
    setup_samples = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    problems = [f"reference self-check: {p}" for p in self_check()]

    tracer = Tracer(args.trace == 1)
    tally = Tally()
    rounds = 0
    tracer.patch()
    start = time.perf_counter()
    try:
        while True:
            run_round(inputs, tracer, tally)
            rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        tracer.unpatch()
    measured = time.perf_counter() - start
    rss = peak_rss_mb()
    round_spans = len(tracer.records)
    if not worker_check(inputs):
        problems.append("run_experiment report differs between 1 and 2 workers")

    e2e = end_to_end(tally, setup_samples, rss)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(ghzgap),
        "rounds": rounds,
        "measured_seconds": measured,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_by_fault": dict(sorted(tally.faults.items())),
        "errors": tally.errors,
        "wrong": tally.wrong,
        "notes": tally.notes,
        "problems": problems,
        "setup_samples_s": setup_samples,
        "samples_scaled_s": tally.seconds,
        "samples_raw_s": tally.raw,
        "end_to_end": e2e,
    }
    if args.trace:
        from probes import UNITS, layer_metrics

        result["self_seconds"] = tracer.self_seconds(round_spans)
        result["per_layer"] = layer_metrics(inputs, tracer)
        result["spans"] = tracer.dump()
        reported, units, key = result["per_layer"], {k: v[0] for k, v in UNITS.items()}, "per_layer"
    else:
        reported, units, key = e2e, {k: v[0] for k, v in END_TO_END.items()}, "end_to_end"
    problems.extend(check_declared(set(reported), key))
    result["correct"] = tally.wrong == 0 and not problems
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in reported.items()}
    return result


def print_summary(result: dict, path: Path) -> None:
    env = result["environment"]
    print(
        f"ghzgap bench  workload={result['workload']} seed={result['seed']} "
        f"trace={result['trace']} rounds={result['rounds']} "
        f"measured={result['measured_seconds']:.1f}s"
    )
    print(
        f"environment  cores={env['cores']} python={env['python']} numpy={env['numpy']} "
        f"ghzgap={env['ghzgap']} commit={env['commit'] or 'unknown'}"
    )
    if result["trace"]:
        print("end-to-end, traced (compare with an untraced run for the overhead):")
        for name, value in result["end_to_end"].items():
            print(f"  {name:<34} {value:>14.6g} {END_TO_END[name][0]}")
        print("self time by layer over the rounds:")
        for layer, seconds in result["self_seconds"].items():
            print(f"  {layer:<34} {seconds:>14.6g} s")
    print("metrics:")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    faults = ", ".join(f"{k}={v}" for k, v in result["failed_by_fault"].items()) or "none"
    print(
        f"operations  attempted={result['attempted']} failed={result['failed']} "
        f"(named faults: {faults}; errors={result['errors']}; wrong={result['wrong']})"
    )
    for line in result["notes"] + result["problems"]:
        print(f"  ! {line}", file=sys.stderr)
    print(f"correct={str(result['correct']).lower()}  record: {path.relative_to(ROOT)}")


def run_one(args) -> int:
    result = run_workload(args)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print_summary(result, path)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            return done.returncode
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "ghzgap" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
