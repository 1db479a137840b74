"""Per-layer metrics for the traced run.

Each layer's public functions are timed from outside, on fixed inputs, after
the workload's rounds, so a layer metric means the same thing in every
workload. Times are medians, scaled to the reference host speed like the
end-to-end metrics. The fresh-process figures start a new interpreter per
sample.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import tracemalloc

import refs
from spans import scaled_call
from workloads import (
    LADDER,
    LIMIT_LARGE,
    MC_POINTS,
    ROOT,
    TABLE_EPS,
    TABLE_Q_MAX,
    Inputs,
    capture_main,
    cli_env,
    cli_large_ops,
    mc_config,
    time_limit,
)

CHUNK_ROWS = 1 << 16
PROCESS_SAMPLES = 5

#: cli commands timed in-process; the two fault cases are left out.
MAIN_COMMANDS = (
    "classify", "gap", "gap_real", "disprove", "cat", "lhv_optimize", "simulate",
    "gap_sweep", "enumerate", "enumerate_csv", "gap_sweep_json", "gap_table_csv",
)

#: metric -> (unit, better); the traced run reports exactly these.
UNITS = {
    "configs.enumerate_classify_items_per_s": ("items/s", "higher"),
    **{f"strategies.minimize_bad_words_s.q{q}": ("s", "lower") for q in LADDER},
    **{f"quantum.sample_result_bits_ms.q{q}": ("ms", "lower") for q in (10, 64)},
    **{f"quantum.sample_result_bits_bytes_per_trial.q{q}": ("B/trial", "lower") for q in (10, 64)},
    "quantum.failure_probability_closed_us": ("us", "lower"),
    **{f"experiment.run_experiment_s.{name}": ("s", "lower") for name in MC_POINTS},
    "asymptotics.gap_us.int_q": ("us", "lower"),
    "asymptotics.gap_us.real_q": ("us", "lower"),
    "reporting.dumps_json_mb_per_s": ("MB/s", "higher"),
    "reporting.dumps_csv_mb_per_s": ("MB/s", "higher"),
    "reporting.build_manifest_us": ("us", "lower"),
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_numpy_s": ("s", "lower"),
    "cli.import_ghzgap_s": ("s", "lower"),
    **{f"cli.main_s.{name}": ("s", "lower") for name in MAIN_COMMANDS},
}


def _median_seconds(tracer, name: str, key: str, fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        with time_limit(LIMIT_LARGE), tracer.span(name, key, scaled=True) as s:
            fn()
        times.append(s.scaled)
    return statistics.median(times)


def _process_seconds(code: str, reports_itself: bool) -> float:
    """Median over fresh interpreters: wall time, or the time the code prints."""
    def child():
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=LIMIT_LARGE,
            check=True,
        )

    samples = []
    for _ in range(PROCESS_SAMPLES):
        done, raw, scaled = scaled_call(child)
        samples.append(float(done.stdout) * scaled / raw if reports_itself else scaled)
    return statistics.median(samples)


def _import_seconds(module: str) -> str:
    return (
        "import time\nt = time.perf_counter()\n"
        f"import {module}\nprint(time.perf_counter() - t)"
    )


def layer_metrics(inputs: Inputs, tracer) -> dict[str, float]:
    import numpy as np
    from ghzgap import asymptotics, configs, experiment, quantum, reporting, strategies

    m: dict[str, float] = {}

    def enumerate_classify():
        for config in configs.enumerate_configurations(16):
            configs.classify(config)

    t = _median_seconds(tracer, "configs.enumerate_classify", "q16", enumerate_classify, 3)
    m["configs.enumerate_classify_items_per_s"] = (1 << 16) / t

    for q in LADDER:
        repeats = 3 if q <= 100 else 1
        m[f"strategies.minimize_bad_words_s.q{q}"] = _median_seconds(
            tracer, "strategies.minimize_bad_words", f"q{q}",
            lambda: strategies.minimize_bad_words(q), repeats,
        )

    noise = quantum.NoiseModel(0.01)
    for q in (10, 64):
        rng = np.random.Generator(np.random.Philox(inputs.seed))
        chunk = rng.integers(0, 2, size=(CHUNK_ROWS, q), dtype=np.uint8)
        t = _median_seconds(
            tracer, "quantum.sample_result_bits", f"q{q}",
            lambda: quantum.sample_result_bits(chunk, noise, rng), 5,
        )
        m[f"quantum.sample_result_bits_ms.q{q}"] = t * 1e3
        # Computed, not timed: the peak of the arrays the call holds at once.
        tracemalloc.start()
        try:
            quantum.sample_result_bits(chunk, noise, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m[f"quantum.sample_result_bits_bytes_per_trial.q{q}"] = peak / CHUNK_ROWS

    grid = [(q, quantum.NoiseModel(e)) for q in range(1, TABLE_Q_MAX + 1) for e in TABLE_EPS]

    def closed_all():
        for q, n in grid:
            quantum.failure_probability_closed(q, n)

    t = _median_seconds(tracer, "quantum.failure_probability_closed", "grid", closed_all, 3)
    m["quantum.failure_probability_closed_us"] = t / len(grid) * 1e6

    for name, (_, _, _, trials) in MC_POINTS.items():
        cfg = mc_config(name, trials, inputs.mc_seeds[name])
        m[f"experiment.run_experiment_s.{name}"] = _median_seconds(
            tracer, "experiment.run_experiment", name,
            lambda: experiment.run_experiment(cfg, workers=1), 1,
        )

    int_grid = [(q, n) for q, n in grid if q >= 2]
    real_grid = [
        (1e3 * (4e24 ** (k / 1999)), quantum.NoiseModel(e))
        for k in range(2000)
        for e in (1e-28, 1e-12, 0.01)
    ]
    for label, points in (("int_q", int_grid), ("real_q", real_grid)):

        def gap_all():
            for q, n in points:
                asymptotics.gap(q, n)

        t = _median_seconds(tracer, "asymptotics.gap", label, gap_all, 3)
        m[f"asymptotics.gap_us.{label}"] = t / len(points) * 1e6

    items = []
    for mask in range(1 << 16):
        text = "".join("r" if mask >> k & 1 else "l" for k in range(16))
        eig = refs.word_eigenvalue(mask.bit_count())
        items.append({"configuration": text, "kind": "word" if eig else "string", "eigenvalue": eig})
    payload = {"count": len(items), "items": items}
    size = len(reporting.dumps_json(payload))
    t = _median_seconds(tracer, "reporting.dumps_json", "enumerate16", lambda: reporting.dumps_json(payload), 3)
    m["reporting.dumps_json_mb_per_s"] = size / 1e6 / t
    columns = ["configuration", "kind", "eigenvalue"]
    size = len(reporting.dumps_csv(columns, items))
    t = _median_seconds(
        tracer, "reporting.dumps_csv", "enumerate16", lambda: reporting.dumps_csv(columns, items), 3
    )
    m["reporting.dumps_csv_mb_per_s"] = size / 1e6 / t

    def manifests():
        for _ in range(2000):
            reporting.build_manifest("gap", {"q": 10, "eps": 0.01})

    t = _median_seconds(tracer, "reporting.build_manifest", "x2000", manifests, 3)
    m["reporting.build_manifest_us"] = t / 2000 * 1e6

    with tracer.span("cli.fresh_process", "probes"):
        m["cli.interpreter_s"] = _process_seconds("pass", reports_itself=False)
        m["cli.import_numpy_s"] = _process_seconds(_import_seconds("numpy"), reports_itself=True)
        m["cli.import_ghzgap_s"] = _process_seconds(_import_seconds("ghzgap"), reports_itself=True)

    argv = {op.name: op.argv for op in [*inputs.cli_small, *cli_large_ops()]}
    argv["gap_table_csv"] = [
        "gap", "sweep", "--q-min", "2", "--q-max", str(TABLE_Q_MAX),
        "--eps-list", *map(repr, inputs.table_eps), "--format", "csv",
    ]
    large = {"enumerate", "enumerate_csv", "gap_sweep_json", "gap_table_csv"}
    for name in MAIN_COMMANDS:

        def call(args=argv[name]):
            code, _ = capture_main(args)
            if code != 0:
                raise RuntimeError(f"cli.main {name} exited {code}")

        m[f"cli.main_s.{name}"] = _median_seconds(
            tracer, "cli.main", name, call, 1 if name in large else 3
        )
    return m
