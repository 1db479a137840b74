"""Operations of the three workloads, their seeded inputs and their checks.

A workload's round is a fixed list of parts. Its own part runs at full
size; the other two run a light pass, so that every end-to-end metric is
measured in every workload while the named traffic dominates it:

- montecarlo: `run_experiment` at six points, one worker, in-process;
- exact: the optimum ladder and a gap table emitted by `cli.main`;
- cli: fresh `python -m ghzgap.cli` processes, run one at a time.

Every operation's output is checked against `refs`, which never calls the
package. An operation ends in one of four states: ok; fault, a failure of
one of the two faults the benchmark keeps on purpose (named below); wrong,
an output that fails its check in any other way; or error, an exception,
a non-zero exit or a time limit hit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Any, Callable, Optional

import refs
from spans import Span

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Named fault 1: gap_exact and p_qm are formed by subtracting floats near
#: 1/4, so many gap rows are right to 1e-12 absolute but not 1e-9 relative.
FAULT_ACCURACY = "relative-accuracy"
#: Named fault 2: min_trials_to_disprove divides by log(1 - p), which is 0
#: for p below ~1e-16.
FAULT_DISPROVE = "disprove-tiny-p"

#: Relative tolerance on every reported float; a miss within ABS_FLOOR
#: absolute is the cancellation of FAULT_ACCURACY, anything larger is wrong.
REL_TOL = 1e-9
ABS_FLOOR = 1e-12
#: Monte Carlo counts must lie within this many standard deviations.
SIGMAS = 5.0

#: Per-operation time limits in seconds; an operation over its limit fails.
LIMIT_SMALL = 10.0
LIMIT_LARGE = 60.0

#: name -> (model, q, eps, trials). Trials give each point ~0.2 s on the
#: reference machine, so no single point dominates the part, and a run
#: gathers enough calls of each point for a steady median.
MC_POINTS = {
    "qm_q3_e0": ("qm", 3, 0.0, 1 << 20),
    "qm_q10_e0.01": ("qm", 10, 0.01, 1 << 19),
    "qm_q64_e0.01": ("qm", 64, 0.01, 2 << 16),
    "lhv_q3_e0": ("lhv", 3, 0.0, 1 << 21),
    "lhv_q10_e0.01": ("lhv", 10, 0.01, 1 << 20),
    "lhv_q64_e0.01": ("lhv", 64, 0.01, 3 << 16),
}
MC_LIGHT = {"qm_q10_e0.01": 1 << 19, "lhv_q10_e0.01": 1 << 19}
#: The point re-run at two workers to check that the report does not change.
MC_WORKER_CHECK = ("qm_q10_e0.01", 1 << 20)

LADDER = (32, 64, 100, 150, 200, 250)
LADDER_LIGHT = (32, 64, 100)
TABLE_EPS = (0.0, 1e-12, 0.01, 0.1)
TABLE_Q_MAX = 2000
TABLE_Q_MAX_LIGHT = 1000
GAP_COLUMNS = ("p_qm", "p_classical_exact", "gap_exact", "gap_asymptotic")

#: Passes in a cli round at full size, each over the small invocations and
#: then the large-output ones: `enumerate --q 18` alone varies by ~12 % from
#: call to call, so a run needs several calls of it. The other workloads'
#: light pass runs the CLI_LIGHT invocations once, with
#: `enumerate --q 16 --format csv` as its large-output invocation.
CLI_PASSES = 2
CLI_LIGHT = ("classify", "gap", "disprove", "cat")


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread once `seconds` have passed."""

    def expire(signum, frame):
        raise OpTimeout(f"over the {seconds:g} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["GHZGAP_WORKERS"] = "1"
    return env


@dataclass
class Tally:
    """Operation counts and the raw timings the end-to-end metrics come from."""

    attempted: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    errors: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)
    #: group -> operation -> scaled seconds of each call (see spans), the
    #: raw seconds, and the work one call does. Groups: qm and lhv (trials),
    #: ladder (solves), rows (gap-table rows), bytes (stdout of large
    #: invocations), latency (small invocations).
    seconds: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    raw: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    work: dict[str, dict[str, float]] = field(default_factory=dict)

    def sample(self, group: str, op: str, span: Span, work: float = 1.0) -> None:
        self.seconds.setdefault(group, {}).setdefault(op, []).append(span.scaled)
        self.raw.setdefault(group, {}).setdefault(op, []).append(span.seconds)
        self.work.setdefault(group, {})[op] = work

    def medians(self, group: str) -> dict[str, float]:
        return {op: statistics.median(t) for op, t in self.seconds.get(group, {}).items()}

    def rate(self, group: str) -> float:
        """All the group's work in the run over all its (scaled) time."""
        calls = self.seconds.get(group, {})
        total = sum(sum(times) for times in calls.values())
        work = sum(self.work[group][op] * len(times) for op, times in calls.items())
        return work / total if total > 0 else 0.0

    def all_seconds(self, group: str) -> list[float]:
        return [t for times in self.seconds.get(group, {}).values() for t in times]

    @property
    def failed(self) -> int:
        return sum(self.faults.values()) + self.errors + self.wrong

    def record(self, status: str, note: str = "", fault: Optional[str] = None) -> None:
        """Count one operation; `fault` names the kept fault its failure shows."""
        self.attempted += 1
        if status == "ok":
            return
        if fault:
            self.faults[fault] = self.faults.get(fault, 0) + 1
            return
        if status == "error":
            self.errors += 1
        else:
            self.wrong += 1
        if len(self.notes) < 20:
            self.notes.append(f"{status}: {note}")


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------


def check_float(value: Any, ref: Decimal) -> str:
    """ok, fault (within ABS_FLOOR of the reference) or wrong."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return "wrong"
    if refs.relative_error(float(value), ref) <= REL_TOL:
        return "ok"
    if abs(Decimal(float(value)) - ref) <= Decimal(ABS_FLOOR):
        return "fault"
    return "wrong"


def worst(states: list[str]) -> str:
    for state in ("wrong", "fault"):
        if state in states:
            return state
    return "ok"


def check_gap_row(row: dict[str, Any], q: int, eps: float) -> str:
    ref = refs.gap_row(q, eps)
    return worst([check_float(row.get(col), ref[col]) for col in GAP_COLUMNS])


def within_sigmas(count: int, n: int, p: float) -> bool:
    """|count - n p| <= SIGMAS standard deviations; exactly 0 when p is 0."""
    if p == 0.0:
        return count == 0
    return abs(count - n * p) <= SIGMAS * math.sqrt(n * p * (1.0 - p))


def check_mc(result: dict[str, Any], model: str, q: int, eps: float, trials: int) -> str:
    """Failure count (zero when the theory is zero, as for qm at eps = 0),
    theory value and setting balance of one Monte Carlo run."""
    theory = refs.mc_theory(model, q, eps)
    p = float(theory)
    if result["trials"] != trials or not within_sigmas(result["failures"], trials, p):
        return "wrong"
    if refs.relative_error(float(result["theory"]), theory) > 1e-12:
        return "wrong"
    counts = [result["word_trials"], *result["station_r_counts"]]
    if len(counts) != q + 1 or not all(within_sigmas(c, trials, 0.5) for c in counts):
        return "wrong"
    return "ok"


def report_fields(report) -> dict[str, Any]:
    return {
        "trials": report.trials,
        "failures": report.failures,
        "theory": report.theory,
        "word_trials": report.word_trials,
        "station_r_counts": list(report.station_r_counts),
    }


def check_classification(text: str, kind: Any, eigenvalue: Any) -> bool:
    r = text.count("r")
    expected = refs.word_eigenvalue(r)
    return kind == ("word" if expected else "string") and eigenvalue == expected


def check_enumerate_json(payload: dict[str, Any], q: int) -> str:
    items = payload["items"]
    if payload["count"] != 1 << q or len(items) != 1 << q:
        return "wrong"
    seen = {item["configuration"] for item in items}
    if len(seen) != 1 << q or any(len(t) != q or set(t) - {"l", "r"} for t in seen):
        return "wrong"
    ok = all(
        check_classification(i["configuration"], i["kind"], i["eigenvalue"]) for i in items
    )
    return "ok" if ok else "wrong"


def check_enumerate_csv(text: str, q: int) -> str:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "configuration,kind,eigenvalue" or len(lines) != (1 << q) + 1:
        return "wrong"
    seen = set()
    for line in lines[1:]:
        config, kind, eig = line.split(",")
        seen.add(config)
        if len(config) != q or not check_classification(config, kind, int(eig) if eig else None):
            return "wrong"
    return "ok" if len(seen) == 1 << q else "wrong"


def parse_csv(text: str) -> list[dict[str, Any]]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append({k: (float(v) if v else None) for k, v in zip(header, line.split(","))})
    return rows


def check_gap_rows(rows: list[dict[str, Any]], expected: list[tuple[int, float]]) -> list[str]:
    """One state per expected (q, eps) row; missing or extra rows are wrong."""
    by_key = {(int(r["q"]), float(r["eps"])): r for r in rows}
    if len(rows) != len(expected) or len(by_key) != len(expected):
        return ["wrong"] * len(expected)
    return [check_gap_row(by_key[key], *key) if key in by_key else "wrong" for key in expected]


def check_disprove(payload: dict[str, Any], p: float, c: float) -> str:
    ref = refs.min_trials(p, c)
    got = payload["trials"]
    if not isinstance(got, int):
        return "wrong"
    # Counts above 2^53 come from float arithmetic; hold them to REL_TOL.
    if ref <= 1 << 53:
        return "ok" if got == ref else "wrong"
    return "ok" if abs(got - ref) <= REL_TOL * ref else "wrong"


def check_cat(payload: dict[str, Any], mass: float, delta: float) -> str:
    q = refs.macroscopic_q(mass)
    states = [
        "ok" if refs.relative_error(payload["q"], q) <= 1e-12 else "wrong",
        check_float(payload["epsilon_derived"], refs.epsilon_threshold(q, delta)),
        check_float(payload["gap_at_derived"], Decimal(delta)),
        check_float(
            payload["gap_at_reference"],
            refs.gap_asymptotic(float(payload["q"]), payload["epsilon_reference"]),
        ),
    ]
    return worst(states)


def check_lhv(payload: dict[str, Any], q: int) -> str:
    bad, m, a_sign = refs.classical_optimum(q, full_scan=True)
    t_mask = (1 << m) - 1
    if (payload["bad_count"], payload["a_sign"], payload["t_mask"]) != (bad, a_sign, t_mask):
        return "wrong"
    brute = payload["brute_force"]
    if not brute["matches"] or brute["bad_count"] != bad:
        return "wrong"
    listed = payload["bad_words"]
    if len(set(listed)) != bad:
        return "wrong"
    for text in listed:
        mask = sum(1 << k for k, ch in enumerate(text) if ch == "r")
        predicted = a_sign * (-1) ** (mask & t_mask).bit_count()
        if predicted == refs.word_eigenvalue(mask.bit_count()):
            return "wrong"
    return "ok"


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


@dataclass
class CliOp:
    """One invocation. `fault` is (named fault, the state that shows it)."""

    name: str
    argv: list[str]
    check: Callable[[str], str]
    large: bool = False
    fault: Optional[tuple[str, str]] = None

    def named_fault(self, state: str) -> Optional[str]:
        return self.fault[0] if self.fault and self.fault[1] == state else None


def _json_check(fn: Callable[[dict[str, Any]], str]) -> Callable[[str], str]:
    return lambda text: fn(json.loads(text))


def _gap_check(q: float, eps: float) -> Callable[[dict[str, Any]], str]:
    def check(payload: dict[str, Any]) -> str:
        if payload["q"] != q or payload["eps"] != eps:
            return "wrong"
        if isinstance(q, int):
            return check_gap_row(payload, q, eps)
        if payload["p_classical_exact"] is not None or payload["gap_exact"] is not None:
            return "wrong"
        return worst(
            [
                check_float(payload["p_qm"], refs.p_qm(q, eps)),
                check_float(payload["gap_asymptotic"], refs.gap_asymptotic(q, eps)),
            ]
        )

    return check


def _sweep_check(q_max: int, eps_list: list[float], fmt: str) -> Callable[[str], str]:
    expected = [(q, e) for q in range(2, q_max + 1) for e in eps_list]

    def check(text: str) -> str:
        rows = json.loads(text)["rows"] if fmt == "json" else parse_csv(text)
        return worst(check_gap_rows(rows, expected))

    return check


def _simulate_check(model: str, q: int, eps: float, trials: int) -> Callable[[str], str]:
    return _json_check(lambda p: check_mc(p, model, q, eps, trials))


def _floats(values: list[float]) -> list[str]:
    return [repr(v) for v in values]


def cli_small_ops(rng: random.Random) -> list[CliOp]:
    """The small invocations: one per command, inputs drawn from `rng`.

    The two fault cases use fixed inputs, so every seed fails them alike.
    """
    config = "".join(rng.choice("lr") for _ in range(rng.randint(2, 64)))
    q_int, eps_int = rng.randint(2, 60), rng.uniform(1e-3, 0.05)
    eps_real = 10 ** rng.uniform(-29, -27)
    p_dis, c_dis = rng.randint(1, 512) / 1024, 1 - rng.randint(1, 512) / 1024
    mass, delta = rng.uniform(1e-3, 10.0), rng.uniform(1e-3, 0.2)
    sim_model, sim_q, sim_eps = rng.choice(("qm", "lhv")), rng.randint(3, 12), rng.uniform(0, 0.05)
    sim_seed, sim_trials = rng.getrandbits(63), 100_000
    sweep_eps = [rng.uniform(1e-3, 0.05) for _ in range(2)]

    def classify_check(p: dict[str, Any]) -> str:
        same = p["configuration"] == config and p["q"] == len(config)
        return "ok" if same and check_classification(config, p["kind"], p["eigenvalue"]) else "wrong"

    return [
        CliOp("classify", ["classify", "--config", config], _json_check(classify_check)),
        CliOp(
            "gap",
            ["gap", "--q", str(q_int), "--eps", repr(eps_int)],
            _json_check(_gap_check(q_int, eps_int)),
        ),
        CliOp(
            "gap_real",
            ["gap", "--q", "4e27", "--eps", repr(eps_real)],
            _json_check(_gap_check(4e27, eps_real)),
        ),
        CliOp(
            "gap_q3000",
            ["gap", "--q", "3000", "--eps", "0.01"],
            _json_check(_gap_check(3000, 0.01)),
            fault=(FAULT_ACCURACY, "fault"),
        ),
        CliOp(
            "disprove",
            ["disprove", "--p-failure", "0.125", "--confidence", "0.99"],
            _json_check(lambda p: "ok" if p["trials"] == 35 else "wrong"),
        ),
        CliOp(
            "disprove_seeded",
            ["disprove", "--p-failure", repr(p_dis), "--confidence", repr(c_dis)],
            _json_check(lambda p: check_disprove(p, p_dis, c_dis)),
        ),
        CliOp(
            "disprove_tiny_p",
            ["disprove", "--p-failure", "1e-20", "--confidence", "0.99"],
            _json_check(lambda p: check_disprove(p, 1e-20, 0.99)),
            fault=(FAULT_DISPROVE, "error"),
        ),
        CliOp(
            "cat",
            ["cat", "--mass-kg", repr(mass), "--delta", repr(delta)],
            _json_check(lambda p: check_cat(p, mass, delta)),
        ),
        CliOp(
            "lhv_optimize",
            ["lhv", "optimize", "--q", "8", "--verify-brute-force"],
            _json_check(lambda p: check_lhv(p, 8)),
        ),
        CliOp(
            "simulate",
            [
                "simulate", "--q", str(sim_q), "--model", sim_model, "--eps", repr(sim_eps),
                "--trials", str(sim_trials), "--seed", str(sim_seed),
            ],
            _simulate_check(sim_model, sim_q, sim_eps, sim_trials),
        ),
        CliOp(
            "gap_sweep",
            ["gap", "sweep", "--q-min", "2", "--q-max", "40", "--eps-list", *_floats(sweep_eps)],
            _sweep_check(40, sweep_eps, "csv"),
        ),
    ]


def _enumerate_csv() -> CliOp:
    return CliOp(
        "enumerate_csv",
        ["enumerate", "--q", "16", "--format", "csv"],
        lambda text: check_enumerate_csv(text, 16),
        large=True,
    )


def cli_large_ops() -> list[CliOp]:
    """The large-output invocations; fixed inputs, so sizes never vary."""
    return [
        CliOp(
            "enumerate",
            ["enumerate", "--q", "18"],
            _json_check(lambda p: check_enumerate_json(p, 18)),
            large=True,
        ),
        _enumerate_csv(),
        CliOp(
            "gap_sweep_json",
            [
                "gap", "sweep", "--q-min", "2", "--q-max", str(TABLE_Q_MAX),
                "--eps-list", *_floats(list(TABLE_EPS)), "--format", "json",
            ],
            _sweep_check(TABLE_Q_MAX, list(TABLE_EPS), "json"),
            large=True,
            fault=(FAULT_ACCURACY, "fault"),
        ),
    ]


@dataclass
class Inputs:
    """Everything a workload's rounds feed the program, derived from the seed."""

    workload: str
    seed: int
    mc_seeds: dict[str, int]
    ladder: list[int]
    table_eps: list[float]
    cli_small: list[CliOp]
    cli_large: list[CliOp]
    parts: list[tuple[str, bool, int]]


#: (part, full size, passes per round). Light passes repeat where the
#: workload's own part makes rounds long, so each run still gathers
#: several samples of them.
ROUND_PARTS = {
    "montecarlo": [("mc", True, 1), ("exact", False, 1), ("cli", False, 1)],
    "exact": [("exact", True, 1), ("mc", False, 2), ("cli", False, 1)],
    "cli": [("cli", True, 1), ("mc", False, 4), ("exact", False, 4)],
}


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = random.Random(f"ghzgap-bench:{workload}:{seed}")
    ladder = list(LADDER if workload == "exact" else LADDER_LIGHT)
    rng.shuffle(ladder)
    table_eps = list(TABLE_EPS)
    rng.shuffle(table_eps)
    return Inputs(
        workload=workload,
        seed=seed,
        mc_seeds={name: rng.getrandbits(64) for name in MC_POINTS},
        ladder=ladder,
        table_eps=table_eps,
        cli_small=cli_small_ops(rng),
        cli_large=cli_large_ops() if workload == "cli" else [_enumerate_csv()],
        parts=ROUND_PARTS[workload],
    )


# --------------------------------------------------------------------------
# Running operations
# --------------------------------------------------------------------------


def capture_main(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with its standard output captured."""
    from ghzgap import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def run_process(argv: list[str], limit: float) -> tuple[Optional[subprocess.CompletedProcess], str]:
    """One `python -m ghzgap.cli` process; None on timeout (it is killed)."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ghzgap.cli", *argv],
            capture_output=True,
            env=cli_env(),
            cwd=ROOT,
            timeout=limit,
        )
    except subprocess.TimeoutExpired:
        return None, f"over the {limit:g} s limit"
    return done, ""


def mc_config(name: str, trials: int, seed: int):
    from ghzgap.experiment import ExperimentConfig, LhvModel, QuantumModel
    from ghzgap.quantum import NoiseModel

    model, q, eps, _ = MC_POINTS[name]
    noise = NoiseModel(eps)
    chosen = QuantumModel(noise) if model == "qm" else LhvModel(noise=noise)
    return ExperimentConfig(q=q, model=chosen, trials=trials, master_seed=seed)


def run_mc_part(inputs: Inputs, full: bool, tracer, tally: Tally) -> None:
    from ghzgap import experiment

    points = {n: MC_POINTS[n][3] for n in MC_POINTS} if full else MC_LIGHT
    for name, trials in points.items():
        model, q, eps, _ = MC_POINTS[name]
        cfg = mc_config(name, trials, inputs.mc_seeds[name])
        key = name if full else f"{name}.light"
        try:
            with time_limit(LIMIT_LARGE), tracer.span("experiment.run_experiment", key, scaled=True) as s:
                report = experiment.run_experiment(cfg, workers=1)
        except Exception as exc:  # the harness keeps going and counts it
            tally.record("error", f"run_experiment {name}: {exc!r}")
            continue
        tally.sample(model, key, s, trials)
        state = check_mc(report_fields(report), model, q, eps, trials)
        tally.record(state, f"run_experiment {name}")


def run_exact_part(inputs: Inputs, full: bool, tracer, tally: Tally) -> None:
    from ghzgap import strategies

    ladder = inputs.ladder if full else [q for q in inputs.ladder if q in LADDER_LIGHT]
    for q in ladder:
        try:
            with time_limit(LIMIT_LARGE), tracer.span("strategies.minimize_bad_words", f"q{q}", scaled=True) as s:
                report = strategies.minimize_bad_words(q)
        except Exception as exc:
            tally.record("error", f"minimize_bad_words q={q}: {exc!r}")
            continue
        tally.sample("ladder", f"q{q}", s)
        bad, m, a_sign = refs.classical_optimum(q, full_scan=True)
        got = (report.bad_count, report.strategy.a_sign, report.strategy.t_mask)
        same = got == (bad, a_sign, (1 << m) - 1) and report.probability * (1 << q) == bad
        tally.record("ok" if same else "wrong", f"minimize_bad_words q={q}")

    q_max = TABLE_Q_MAX if full else TABLE_Q_MAX_LIGHT
    argv = [
        "gap", "sweep", "--q-min", "2", "--q-max", str(q_max),
        "--eps-list", *_floats(inputs.table_eps), "--format", "csv",
    ]
    expected = [(q, e) for q in range(2, q_max + 1) for e in inputs.table_eps]
    key = "gap_table_csv" if full else "gap_table_csv.light"
    try:
        with time_limit(LIMIT_LARGE), tracer.span("cli.main", key, scaled=True) as s:
            code, text = capture_main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}")
    except Exception as exc:
        for _ in expected:
            tally.record("error", f"gap table: {exc!r}")
        return
    rows = parse_csv(text)
    tally.sample("rows", key, s, len(rows))
    for state, key in zip(check_gap_rows(rows, expected), expected):
        fault = FAULT_ACCURACY if state == "fault" else None
        tally.record(state, f"gap row q={key[0]} eps={key[1]}", fault)


def run_cli_op(op: CliOp, tracer, tally: Tally) -> None:
    limit = LIMIT_LARGE if op.large else LIMIT_SMALL
    # Yardsticks only before and after: one timed while the child runs
    # would share the host with it and track the child's own load.
    with tracer.span("cli.process", op.name, scaled=True) as timing:
        done, problem = run_process(op.argv, limit)
    if done is None or done.returncode != 0:
        if done is not None:
            problem = f"exit {done.returncode}: {done.stderr.decode(errors='replace')[-200:]}"
        tally.record("error", f"{op.name}: {problem}", op.named_fault("error"))
        return
    text = done.stdout.decode()
    try:
        state = op.check(text)
    except Exception as exc:  # any malformed payload fails its check
        state = "wrong"
        problem = repr(exc)
    if state != "wrong":
        if op.large:
            tally.sample("bytes", op.name, timing, len(done.stdout))
        else:
            tally.sample("latency", op.name, timing)
    tally.record(state, f"{op.name} {' '.join(op.argv)[:120]} {problem}", op.named_fault(state))


def run_cli_part(inputs: Inputs, full: bool, tracer, tally: Tally) -> None:
    small = inputs.cli_small if full else [op for op in inputs.cli_small if op.name in CLI_LIGHT]
    for _ in range(CLI_PASSES if full else 1):
        for op in small + inputs.cli_large:
            run_cli_op(op, tracer, tally)


PARTS = {"mc": run_mc_part, "exact": run_exact_part, "cli": run_cli_part}


def run_round(inputs: Inputs, tracer, tally: Tally) -> None:
    for part, full, passes in inputs.parts:
        for _ in range(passes):
            with tracer.span(f"bench.{part}", "full" if full else "light"):
                PARTS[part](inputs, full, tracer, tally)


def warm_up(inputs: Inputs) -> None:
    """First calls of every part, so lazy set-up is not timed as work."""
    from ghzgap import experiment, strategies

    for name in MC_LIGHT:
        experiment.run_experiment(mc_config(name, 4096, inputs.mc_seeds[name]), workers=1)
    strategies.minimize_bad_words(16)
    capture_main(["gap", "sweep", "--q-min", "2", "--q-max", "20", "--format", "csv"])
    capture_main(["classify", "--config", "lrr"])
    done, problem = run_process(["classify", "--config", "lrr"], LIMIT_SMALL)
    if done is None or done.returncode != 0:
        raise RuntimeError(f"warm-up cli process failed: {problem or done.returncode}")


def worker_check(inputs: Inputs) -> bool:
    """One point at 1 and 2 workers must give identical reports."""
    from ghzgap import experiment

    name, trials = MC_WORKER_CHECK
    cfg = mc_config(name, trials, inputs.mc_seeds[name])
    return experiment.run_experiment(cfg, workers=1) == experiment.run_experiment(cfg, workers=2)
