"""Command-line surface: every library quantity as a JSON or CSV report.

Each handler returns the report's fields, a table among them as their last
value: `EncodedRows` of the chosen format, all that a CSV report writes.
``main`` alone adds the manifest, picks the writer and writes. `enumerate` and
`gap sweep` check every parameter, then hand over rows encoded block by block.
Payloads go to standard output only; diagnostics and optional ``--verbose``
summaries go to standard error. Exit codes: 0 success, 2 usage error,
3 domain or capacity error, a report that could not be written, or any
other error a command raised (one ``error:`` line naming its type, never a
traceback). Each command loads only the layers it runs: ``simulate`` loads
the Monte Carlo layer (`experiment`, and `strategies` and numpy with it),
``lhv optimize`` loads `strategies`, and ``classify``, ``enumerate``,
``gap``, ``gap sweep``, ``disprove`` and ``cat`` load neither. Only
``lhv optimize --verify-brute-force`` loads the cross-checks (`oracles`),
and only it and ``simulate`` load numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import TYPE_CHECKING, Any, ContextManager, Optional, TextIO

from .asymptotics import CONSTITUENT_FACTORS, gap, gap_rows, macroscopic_report, min_trials_to_disprove
from .configs import (
    ENUMERATION_LIMIT,
    Configuration,
    _check_int_q,
    classify,
    enumerate_configurations,
    parse_configuration,
    Word,
    word_count,
)
from .errors import CapacityError, GhzGapError
from .quantum import NoiseModel
from .reporting import SPLICE, EncodedRows, build_manifest, encode, fragments, write_csv, write_json
from .reporting import dumps_csv, dumps_json  # noqa: F401  (bench/spans.py traces them here)

if TYPE_CHECKING:
    from .strategies import CanonicalStrategy

#: This module (`__main__` under `python -m`). Handlers call the Monte Carlo
#: and strategy names as `_lazy.<name>`: `__getattr__` resolves a public name
#: through the package on first use, so only `simulate` and `lhv optimize`
#: load those layers, and a name patched on the module is the one that runs.
_lazy = sys.modules[__name__]
_package = sys.modules[__package__]


def __getattr__(name: str) -> Any:
    if name not in _package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_package, name)
    return value


#: Listing individual bad words in reports is capped at this q.
_LIST_BAD_WORDS_LIMIT = 12

#: `lhv optimize` answers up to this q: its exact counts near 2^q must stay
#: within the 4300 digits Python converts an int to text by default.
_LHV_OPTIMIZE_LIMIT = 14_000

#: `enumerate` encodes the items of the first 8 stations' settings once per
#: r count mod 4 of the stations above, and writes one block of 2^8 rows per
#: setting of those. The table has this size at every q: a small report pays
#: little for it, and a large one's memory stays flat, as it would not with
#: a table of half the stations, which grows as the square root of the rows.
_PREFIX_STATIONS = 8

#: `gap sweep` writes at most this many rows, (q range) x (eps count): rows
#: stream in constant memory, and 2^20 of them take ~3 s as CSV or JSON.
_GAP_SWEEP_LIMIT = 1 << 20

#: Namespace entries that are not parameters of the command that ran: the
#: subcommand names, the handler, and switches that only pick the output.
_NOT_PARAMETERS = frozenset(
    {"command", "lhv_command", "gap_command", "handler", "verbose", "format"}
)

#: What a handler returns: the JSON body without its manifest. A table is
#: its last value, as `EncodedRows` of the format asked for; in CSV the
#: table is the whole report.
_Report = dict[str, Any]

#: `gap sweep`'s columns, the cells of a `gap_rows` row; the first fields of `gap`.
_GAP_COLUMNS = ["q", "eps", "p_qm", "p_classical_exact", "gap_exact", "gap_asymptotic"]


def _manifest(args: argparse.Namespace) -> dict[str, Any]:
    """Manifest payload naming the command that ran and echoing its options
    from the namespace; a seeded run also states its random stream."""
    names = (args.command, getattr(args, "lhv_command", None), getattr(args, "gap_command", None))
    parameters = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMETERS}
    seed = getattr(args, "seed", None)
    environment = None if seed is None else _lazy.stream_environment()
    return build_manifest(" ".join(name for name in names if name), parameters, seed, environment)


def _strategy_fields(strategy: CanonicalStrategy) -> dict[str, Any]:
    return {
        "a_sign": strategy.a_sign,
        "t_mask": strategy.t_mask,
        "flipped_stations": strategy.t_mask.bit_count(),
    }


def _classification_fields(config: Configuration) -> dict[str, Any]:
    cls = classify(config)
    return {
        "configuration": config.text(),
        "kind": cls.kind,
        "eigenvalue": cls.eigenvalue if isinstance(cls, Word) else None,
    }


def _cmd_classify(args: argparse.Namespace) -> _Report:
    config = parse_configuration(args.config)
    if args.verbose:
        cls = classify(config)
        tail = f" with eigenvalue {cls.eigenvalue:+d}" if isinstance(cls, Word) else ""
        print(f"{config.text()} is a {cls.kind}{tail}", file=sys.stderr)
    return {"q": config.q, "r_count": config.r_count, **_classification_fields(config)}


def _enumerate_rows(q: int, words_only: bool, fmt: str) -> EncodedRows:
    """`enumerate`'s items in ascending r_mask order, each as
    `_classification_fields` gives it, encoded for the `fmt` writer.

    Station 1 is bit 0 and the leftmost letter, so the configuration
    low | high << n reads low's n letters, then high's; its r count mod 4
    picks its kind and eigenvalue. q is checked at the call.
    """
    q = _check_int_q(q, ENUMERATION_LIMIT)
    n = min(q, _PREFIX_STATIONS)
    # The settings of stations 1..n, and of stations n+1..q, each by its
    # text and its r count (mod 4 for the high part).
    prefix = [(config.text(), config.r_count) for config in enumerate_configurations(n)]
    highs = (
        ((config.text(), config.r_count % 4) for config in enumerate_configurations(q - n))
        if q > n
        else [("", 0)]
    )
    # An item's kind and eigenvalue by its r count mod 4: those of the
    # 3-station configuration with that many r settings.
    fields = [_classification_fields(Configuration(q=3, r_mask=(1 << r) - 1)) for r in range(4)]
    columns = list(fields[0])  # configuration, kind, eigenvalue
    shapes = [(f["kind"], f["eigenvalue"]) for f in fields]
    # By the high part's r count mod 4 (at most its q - n), the low parts'
    # rows (only the words with words_only), encoded once with SPLICE where
    # the high letters go.
    pieces = []
    for s in range(min(4, q - n + 1)):
        rows = [(text + SPLICE, *shapes[(r + s) % 4]) for text, r in prefix]
        if words_only:
            rows = [row for row in rows if row[1] == Word.kind]
        pieces.append(fragments(fmt, columns, rows))
    return EncodedRows(columns, (high.join(pieces[s]) for high, s in highs))


def _cmd_enumerate(args: argparse.Namespace) -> _Report:
    items = _enumerate_rows(args.q, args.words_only, args.format)  # checks q
    count = word_count(args.q) if args.words_only else 1 << args.q
    if args.verbose:
        print(f"{count} configurations at q={args.q}", file=sys.stderr)
    return {"q": args.q, "words_only": args.words_only, "count": count, "items": items}


def _cmd_lhv_optimize(args: argparse.Namespace) -> _Report:
    _check_int_q(args.q, _LHV_OPTIMIZE_LIMIT)
    report = _lazy.minimize_bad_words(args.q)
    strategy = report.strategy
    fields: dict[str, Any] = {
        "q": args.q,
        **_strategy_fields(strategy),
        "bad_count": report.bad_count,
        "failure_probability": report.probability,
        "failure_probability_float": float(report.probability),
        "bound": _lazy.mermin_bound(args.q),
        "max_mermin_sum": _lazy.max_classical_mermin_sum(args.q),
    }
    if args.q <= _LIST_BAD_WORDS_LIMIT:
        listed = _lazy.bad_word_count_naive(strategy, list_words=True)
        fields["bad_words"] = [c.text() for c in listed.bad_words or ()]
    else:
        fields["bad_words"] = None
    if args.verify_brute_force:
        brute = _lazy.minimize_bad_words_brute_force(args.q)
        fields["brute_force"] = {
            "bad_count": brute.bad_count,
            "matches": brute.bad_count == report.bad_count,
        }
    if args.verbose:
        print(
            f"optimal strategy misses {report.bad_count} of "
            f"{1 << (args.q - 1)} words (probability {report.probability})",
            file=sys.stderr,
        )
    return fields


def _cmd_simulate(args: argparse.Namespace) -> _Report:
    noise = NoiseModel(args.eps)
    model = _lazy.QuantumModel(noise) if args.model == "qm" else _lazy.LhvModel(noise=noise)
    cfg = _lazy.ExperimentConfig(
        q=args.q,
        model=model,
        trials=args.trials,
        master_seed=args.seed,
        ci_level=args.ci_level,
    )
    report = _lazy.run_experiment(cfg)
    row: dict[str, Any] = {
        "q": args.q,
        "model": args.model,
        "epsilon": noise.epsilon,
        "trials": report.trials,
        "master_seed": args.seed,
        "ci_level": args.ci_level,
        "word_trials": report.word_trials,
        "string_trials": report.string_trials,
        "failures": report.failures,
        "failure_rate": report.failure_rate,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "theory": report.theory,
    }
    if args.verbose:
        print(
            f"{report.failures} failures / {report.trials} trials: "
            f"rate {report.failure_rate:.6f}, theory {report.theory:.6f}, "
            f"CI [{report.ci_low:.6f}, {report.ci_high:.6f}]",
            file=sys.stderr,
        )
    if args.format == "csv":
        return {"rows": encode("csv", list(row), [tuple(row.values())])}
    strategy = None if report.strategy is None else _strategy_fields(report.strategy)
    return {**row, "strategy": strategy, "station_r_counts": list(report.station_r_counts)}


def _parse_q(text: str) -> int | float:
    """Integer q gets the exact path; anything else (e.g. 4e27) the real path."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _cmd_gap(args: argparse.Namespace) -> _Report:
    report = gap(args.q, NoiseModel(args.eps))
    if args.verbose:
        print(
            f"q={args.q}, eps={args.eps}: asymptotic gap {report.gap_asymptotic:.6e}",
            file=sys.stderr,
        )
    cells = report[:4] + report[5:]  # all but p_classical_limit, in _GAP_COLUMNS order
    return {**dict(zip(_GAP_COLUMNS, cells)), "p_classical_limit": report.p_classical_limit}


def _cmd_gap_sweep(args: argparse.Namespace) -> _Report:
    if args.q_min > args.q_max:
        raise GhzGapError(f"--q-min {args.q_min} exceeds --q-max {args.q_max}")
    row_count = (args.q_max - args.q_min + 1) * len(args.eps_list)
    if row_count > _GAP_SWEEP_LIMIT:
        raise CapacityError(
            f"gap sweep supports at most {_GAP_SWEEP_LIMIT} rows, got {row_count}"
        )
    noises = [NoiseModel(eps) for eps in args.eps_list]  # every eps checked up front
    if args.verbose:
        print(f"{row_count} gap rows", file=sys.stderr)
    rows = gap_rows(range(args.q_min, args.q_max + 1), noises)
    return {"rows": encode(args.format, _GAP_COLUMNS, rows)}


def _cmd_disprove(args: argparse.Namespace) -> _Report:
    trials = min_trials_to_disprove(args.p_failure, args.confidence)
    if args.verbose:
        print(
            f"{trials} trials expose a failure with confidence {args.confidence}",
            file=sys.stderr,
        )
    return {"p_failure": args.p_failure, "confidence": args.confidence, "trials": trials}


def _cmd_cat(args: argparse.Namespace) -> _Report:
    report = macroscopic_report(args.mass_kg, args.delta, args.convention)
    if args.verbose:
        print(
            f"q≈{report.q:.3e}; derived threshold {report.epsilon_derived:.3e} "
            f"vs reference {report.epsilon_reference:.3e}",
            file=sys.stderr,
        )
    return report._asdict()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building every subparser costs ~4 ms on a process's
    first call (3-5 ms on a 2-core host)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--verbose", action="store_true", help="human-readable summary on stderr"
    )
    common.set_defaults(format="json")

    parser = argparse.ArgumentParser(
        prog="ghzgap",
        description="Quantum vs deterministic hidden-variable failure rates "
        "for q-station entangled measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="classify a configuration")
    p.add_argument("--config", required=True, help="letter form, e.g. llr")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("enumerate", parents=[common], help="list configurations")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--words-only", action="store_true")
    p.add_argument("--format", choices=["json", "csv"])
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("lhv", help="deterministic strategy tools")
    lhv_sub = p.add_subparsers(dest="lhv_command", required=True)
    p = lhv_sub.add_parser(
        "optimize", parents=[common], help="best deterministic strategy"
    )
    p.add_argument("--q", type=int, required=True)
    p.add_argument(
        "--verify-brute-force",
        action="store_true",
        help="cross-check against all 4^q raw strategies (q <= 8)",
    )
    p.set_defaults(handler=_cmd_lhv_optimize)

    p = sub.add_parser("simulate", parents=[common], help="seeded Monte Carlo run")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--model", choices=["qm", "lhv"], required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="master seed (required)")
    p.add_argument("--ci-level", type=float, default=0.95)
    p.add_argument(
        "--csv", dest="format", action="store_const", const="csv",
        help="one CSV row instead of JSON",
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("gap", parents=[common], help="quantum-classical failure gap")
    gap_sub = p.add_subparsers(dest="gap_command")
    # --eps defaults to None so that `main` can refuse it before `sweep`;
    # the point report takes 0.0.
    p.add_argument("--q", type=_parse_q, help="integer for the exact path, real for huge q")
    p.add_argument("--eps", type=float)
    p.set_defaults(handler=_cmd_gap)
    p = gap_sub.add_parser("sweep", parents=[common], help="gap table over a q range")
    p.add_argument("--q-min", type=int, required=True)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--eps-list", type=float, nargs="+", default=[0.01])
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(handler=_cmd_gap_sweep)

    p = sub.add_parser("disprove", parents=[common], help="trials to expose a failure")
    p.add_argument("--p-failure", type=float, required=True)
    p.add_argument("--confidence", type=float, required=True)
    p.set_defaults(handler=_cmd_disprove)

    p = sub.add_parser("cat", parents=[common], help="macroscopic-mass thresholds")
    p.add_argument("--mass-kg", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument(
        "--convention",
        choices=sorted(CONSTITUENT_FACTORS),
        default="electrons-nucleons",
    )
    p.set_defaults(handler=_cmd_cat)

    return parser


def _report_stream(stdout: TextIO) -> ContextManager[TextIO]:
    """Where `main` writes a report: a buffered writer of its own on stdout's
    descriptor, which writes all of each write or raises, and leaves no
    report text in `stdout`'s buffer for the flush at exit to fail on again;
    `stdout` itself when it has no descriptor (an in-memory stream). Text
    already in `stdout`'s buffer is flushed first, so it stays ahead of the
    report. Closing the writer leaves the descriptor open."""
    try:
        fd = stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return contextlib.nullcontext(stdout)
    stdout.flush()
    return open(fd, "w", encoding=stdout.encoding, errors=stdout.errors, closefd=False)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gap":
        if args.gap_command is not None:
            if (args.q, args.eps) != (None, None):
                parser.error("gap sweep takes --q-min, --q-max and --eps-list, not --q or --eps")
            del args.q, args.eps  # the `gap` parser's own options, not sweep parameters
        elif args.q is None:
            parser.error("gap requires --q (or the sweep subcommand)")
        elif args.eps is None:
            args.eps = 0.0
    try:
        fields = args.handler(args)
        with _report_stream(sys.stdout) as out:
            if args.format == "csv":
                write_csv(out, next(reversed(fields.values())))
            else:
                write_json(out, {"manifest": _manifest(args), **fields})
            out.flush()
    except GhzGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # KeyboardInterrupt and SystemExit still propagate
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
