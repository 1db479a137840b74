"""Command-line surface: payload shapes, exit codes, and format parity."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from ghzgap import cli
from ghzgap.asymptotics import gap_rows
from ghzgap.cli import main
from ghzgap.configs import Word, classify, enumerate_configurations
from ghzgap.reporting import BATCH_ROWS, dumps_csv, dumps_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestClassify:
    def test_rrr(self, capsys):
        payload = run_json(capsys, "classify", "--config", "rrr")
        assert payload["kind"] == "word"
        assert payload["eigenvalue"] == -1
        assert payload["q"] == 3
        assert payload["manifest"]["command"] == "classify"
        assert payload["manifest"]["schema_version"] == 1

    def test_string_has_null_eigenvalue(self, capsys):
        payload = run_json(capsys, "classify", "--config", "lrr")
        assert payload["kind"] == "string"
        assert payload["eigenvalue"] is None

    def test_parse_error_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--config", "lxr")
        assert code == 3
        assert out == ""
        assert "station 2" in err

    def test_missing_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify"])
        assert excinfo.value.code == 2

    def test_verbose_summary_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--config", "llr", "--verbose")
        assert code == 0
        assert "word" in err
        json.loads(out)  # payload must stay clean JSON


class TestEnumerate:
    def test_q3_json(self, capsys):
        payload = run_json(capsys, "enumerate", "--q", "3")
        assert payload["count"] == 8
        words = [i for i in payload["items"] if i["kind"] == "word"]
        assert {w["configuration"] for w in words} == {"llr", "lrl", "rll", "rrr"}

    def test_words_only_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--q", "3", "--words-only", "--format", "csv"
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["configuration"] for r in rows] == ["rll", "lrl", "llr", "rrr"]
        assert [r["eigenvalue"] for r in rows] == ["1", "1", "1", "-1"]

    def test_csv_rows_match_json_items(self, capsys):
        items = run_json(capsys, "enumerate", "--q", "4")["items"]
        code, out, _ = run_cli(capsys, "enumerate", "--q", "4", "--format", "csv")
        assert code == 0
        assert parse_csv(out) == [
            {key: "" if value is None else str(value) for key, value in item.items()}
            for item in items
        ]

    def test_capacity_error_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--q", "30")
        assert code == 3
        assert "error" in err

    # Both sides of the 8-station prefix table that `enumerate` builds its
    # items from, and 8 to 128 blocks of it; the golden reports pin only
    # q = 3 and 4.
    @pytest.mark.parametrize("q", [1, 2, 7, 8, 9, 10, 11, 12, 13, 15])
    @pytest.mark.parametrize("words_only", [False, True], ids=["all", "words-only"])
    def test_items_match_library(self, capsys, q, words_only):
        expected = []  # (configuration, kind, eigenvalue) by the library
        for config in enumerate_configurations(q):
            cls = classify(config)
            if isinstance(cls, Word):
                expected.append((config.text(), cls.kind, cls.eigenvalue))
            elif not words_only:
                expected.append((config.text(), cls.kind, None))
        argv = ["enumerate", "--q", str(q)] + (["--words-only"] if words_only else [])
        items = run_json(capsys, *argv)["items"]
        assert [list(item.items()) for item in items] == [
            [("configuration", text), ("kind", kind), ("eigenvalue", eigenvalue)]
            for text, kind, eigenvalue in expected
        ]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out == "configuration,kind,eigenvalue\n" + "".join(
            f"{text},{kind},{'' if eigenvalue is None else eigenvalue}\n"
            for text, kind, eigenvalue in expected
        )

    # Four blocks of 2^8 rows (2^7 with --words-only) at q = 10, and 32 and
    # 64 of them at q = 13 and 14: parsing the JSON, as above, would not see
    # the whitespace where two blocks meet.
    @pytest.mark.parametrize("q", [10, 13, 14])
    @pytest.mark.parametrize("words_only", [False, True], ids=["all", "words-only"])
    def test_bytes_match_whole_text(self, capsys, q, words_only):
        items = []
        for config in enumerate_configurations(q):
            cls = classify(config)
            if isinstance(cls, Word) or not words_only:
                eigenvalue = cls.eigenvalue if isinstance(cls, Word) else None
                items.append(
                    {"configuration": config.text(), "kind": cls.kind, "eigenvalue": eigenvalue}
                )
        argv = ["enumerate", "--q", str(q)] + (["--words-only"] if words_only else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        fields = {"q": q, "words_only": words_only, "count": len(items), "items": items}
        manifest = json.loads(out)["manifest"]
        assert out == dumps_json({"manifest": manifest, **fields}) + "\n"
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out == dumps_csv(list(items[0]), items)

    def test_verbose_count_equals_rows_written(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--q", "13", "--words-only", "--verbose")
        assert code == 0
        payload = json.loads(out)
        assert err == f"{len(payload['items'])} configurations at q=13\n"
        assert payload["count"] == len(payload["items"]) == 1 << 12


class TestLhvOptimize:
    def test_q3(self, capsys):
        payload = run_json(capsys, "lhv", "optimize", "--q", "3")
        assert payload["bad_count"] == 1
        assert payload["failure_probability"] == "1/8"
        assert payload["failure_probability_float"] == 0.125
        assert payload["bad_words"] == ["rrr"]
        assert payload["bound"] == 1

    def test_brute_force_cross_check(self, capsys):
        payload = run_json(capsys, "lhv", "optimize", "--q", "5", "--verify-brute-force")
        assert payload["brute_force"]["matches"] is True
        assert payload["brute_force"]["bad_count"] == payload["bad_count"] == 6

    def test_q_at_cap(self, capsys):
        payload = run_json(capsys, "lhv", "optimize", "--q", "14000")
        assert payload["bad_count"] == payload["bound"]
        assert payload["bad_words"] is None

    def test_q_over_cap_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "lhv", "optimize", "--q", "14001")
        assert code == 3
        assert out == ""
        assert "14000" in err

    def test_brute_force_over_cap_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "lhv", "optimize", "--q", "9", "--verify-brute-force")
        assert code == 3


class TestSimulate:
    def test_qm_payload(self, capsys):
        payload = run_json(
            capsys,
            "simulate",
            "--q", "3", "--model", "qm", "--eps", "0.1",
            "--trials", "20000", "--seed", "17",
        )
        assert payload["trials"] == 20000
        assert payload["word_trials"] + payload["string_trials"] == 20000
        assert payload["theory"] == pytest.approx(0.122)
        assert payload["ci_low"] < payload["failure_rate"] < payload["ci_high"]
        assert payload["manifest"]["seed"] == 17
        assert payload["strategy"] is None

    def test_lhv_payload_names_strategy(self, capsys):
        payload = run_json(
            capsys,
            "simulate",
            "--q", "4", "--model", "lhv",
            "--trials", "20000", "--seed", "3",
        )
        assert payload["strategy"]["flipped_stations"] == 1
        assert payload["theory"] == 0.125

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--q", "3", "--model", "qm", "--trials", "10"])
        assert excinfo.value.code == 2

    def test_csv_and_json_agree(self, capsys):
        args = ["simulate", "--q", "3", "--model", "qm", "--eps", "0.05",
                "--trials", "30000", "--seed", "23"]
        payload = run_json(capsys, *args)
        code, out, _ = run_cli(capsys, *args + ["--csv"])
        assert code == 0
        (row,) = parse_csv(out)
        for column in ("failure_rate", "ci_low", "ci_high", "theory"):
            assert float(row[column]) == payload[column]
        for column in ("trials", "word_trials", "failures"):
            assert int(row[column]) == payload[column]

    def test_manifest_states_random_stream(self, capsys):
        payload = run_json(
            capsys,
            "simulate",
            "--q", "3", "--model", "qm", "--trials", "100", "--seed", "5",
        )
        assert payload["manifest"]["environment"] == {
            "rng": "PCG64DXSM",
            "stream_version": 5,
            "sampler": "class-chain",
        }
        unseeded = run_json(capsys, "classify", "--config", "lrr")
        assert "environment" not in unseeded["manifest"]

    def test_trials_over_cap_exits_3(self, capsys):
        # refused before anything is drawn
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "simulate", "--q", "3", "--model", "qm",
            "--trials", str((1 << 62) + 1), "--seed", "1",
        )
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == ""
        assert err.count("error:") == 1 and str(1 << 62) in err

    def test_run_time_does_not_grow_with_trials(self, capsys):
        import numpy  # noqa: F401  (timed is the run, not loading numpy)

        start = time.perf_counter()
        payload = run_json(
            capsys, "simulate", "--q", "64", "--model", "lhv", "--eps", "0.01",
            "--trials", str(1 << 40), "--seed", "1",
        )
        assert time.perf_counter() - start < 0.1
        assert payload["trials"] == 1 << 40
        assert payload["ci_low"] <= payload["theory"] <= payload["ci_high"]

    def test_json_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--q", "3", "--model", "qm", "--trials", "10",
                  "--seed", "1", "--json"])
        assert excinfo.value.code == 2

    def test_identical_seeds_identical_output(self, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        args = ["simulate", "--q", "5", "--model", "qm", "--eps", "0.02",
                "--trials", "50000", "--seed", "99"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestGap:
    def test_point_report(self, capsys):
        payload = run_json(capsys, "gap", "--q", "3", "--eps", "0")
        assert payload["p_classical_exact"] == 0.125
        assert payload["p_qm"] == 0.0
        assert payload["gap_exact"] == 0.125
        assert payload["gap_asymptotic"] == 0.25

    def test_gap_exact_far_below_quarter(self, capsys):
        payload = run_json(capsys, "gap", "--q", "3000", "--eps", "0.01")
        assert payload["gap_exact"] == pytest.approx(1.19e-27, rel=1e-2, abs=0.0)
        assert payload["gap_exact"] == pytest.approx(
            payload["gap_asymptotic"], rel=1e-12, abs=0.0
        )

    def test_huge_q_uses_asymptotic_path(self, capsys):
        payload = run_json(capsys, "gap", "--q", "4e27", "--eps", "6e-28")
        assert payload["p_classical_exact"] is None
        assert payload["gap_exact"] is None
        assert payload["gap_asymptotic"] == pytest.approx(2.057e-3, rel=1e-3)

    def test_q_required_without_sweep(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gap"])
        assert excinfo.value.code == 2

    def test_point_eps_defaults_to_zero(self, capsys):
        payload = run_json(capsys, "gap", "--q", "5")
        assert payload["eps"] == 0.0
        assert payload["manifest"]["parameters"] == {"q": 5, "eps": 0.0}

    @pytest.mark.parametrize(
        "point", [["--eps", "0.3", "--q", "7"], ["--q", "7"], ["--eps", "0"]]
    )
    def test_point_options_before_sweep_are_a_usage_error(self, capsys, point):
        # The sweep reads neither, so running it would drop them unreported.
        with pytest.raises(SystemExit) as excinfo:
            main(["gap", *point, "sweep", "--q-min", "2", "--q-max", "3"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "not --q or --eps" in captured.err

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "gap", "sweep", "--q-min", "2", "--q-max", "6",
            "--eps-list", "0", "0.01",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 10
        assert out.splitlines()[0] == "q,eps,p_qm,p_classical_exact,gap_exact,gap_asymptotic"
        by_key = {(r["q"], r["eps"]): r for r in rows}
        assert float(by_key[("3", "0.0")]["gap_exact"]) == 0.125

    def test_sweep_json_matches_csv(self, capsys):
        args = ["gap", "sweep", "--q-min", "2", "--q-max", "5", "--eps-list", "0.01"]
        code, csv_out, _ = run_cli(capsys, *args + ["--format", "csv"])
        payload = run_json(capsys, *args + ["--format", "json"])
        csv_rows = parse_csv(csv_out)
        assert len(csv_rows) == len(payload["rows"])
        for csv_row, json_row in zip(csv_rows, payload["rows"]):
            for column in ("p_qm", "p_classical_exact", "gap_exact", "gap_asymptotic"):
                assert float(csv_row[column]) == json_row[column]

    @staticmethod
    def assert_sweep_is_whole_text(capsys, q_max, eps_list, rows):
        """`gap sweep` over q = 2..q_max and `eps_list` writes `rows`, dicts
        of its columns, as the whole-text writers do, in CSV and JSON."""
        argv = ["gap", "sweep", "--q-min", "2", "--q-max", str(q_max)]
        argv += ["--eps-list", *map(repr, eps_list)]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out == dumps_csv(cli._GAP_COLUMNS, rows)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert out == dumps_json({"manifest": manifest, "rows": rows}) + "\n"

    # 8997 rows, three blocks: parsing, as above, would not see where two meet.
    def test_sweep_bytes_match_whole_text(self, capsys):
        eps_list = [0.01, 0.1, 0.3]
        rows = []
        for q in range(2, 3001):
            for eps in eps_list:
                report = cli.gap(q, cli.NoiseModel(eps))
                rows.append({
                    "q": q, "eps": eps, "p_qm": report.p_qm,
                    "p_classical_exact": report.p_classical_exact,
                    "gap_exact": report.gap_exact, "gap_asymptotic": report.gap_asymptotic,
                })
        assert len(rows) > 2 * BATCH_ROWS
        self.assert_sweep_is_whole_text(capsys, 3000, eps_list, rows)

    # The ends of the eps range: p_qm -0.0 at eps 0, subnormal and zero gaps
    # at 1e-300 and 0.5.
    def test_sweep_is_whole_text_of_gap_rows(self, capsys):
        eps_list = [0.0, 1e-300, 1e-12, 0.01, 0.2, 0.5]
        noises = [cli.NoiseModel(eps) for eps in eps_list]
        rows = [dict(zip(cli._GAP_COLUMNS, row)) for row in gap_rows(range(2, 301), noises)]
        self.assert_sweep_is_whole_text(capsys, 300, eps_list, rows)

    @pytest.mark.parametrize("q", [2, 3, 4, 1000, 10**6])
    def test_sweep_rows_are_point_reports(self, capsys, q):
        # Compared by repr, so a -0.0 where the point report has 0.0 differs.
        eps_list = ["0", "-0.0", "1e-300", "1e-12", "0.01", "0.3", "0.5"]
        points = [run_json(capsys, "gap", "--q", str(q), "--eps", eps) for eps in eps_list]
        argv = ["gap", "sweep", "--q-min", str(q), "--q-max", str(q), "--eps-list", *eps_list]
        rows = run_json(capsys, *argv, "--format", "json")["rows"]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == len(lines) == len(points)
        for row, line, point in zip(rows, lines, points):
            want = [point[column] for column in cli._GAP_COLUMNS]
            assert [repr(row[column]) for column in cli._GAP_COLUMNS] == list(map(repr, want))
            assert line == ["" if value is None else repr(value) for value in want]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "q", ["1", "-5", "1" + "0" * 400], ids=["one", "negative", "past-float-range"]
    )
    def test_sweep_errors_are_point_errors(self, capsys, q, fmt):
        code, out, point_err = run_cli(capsys, "gap", "--q", q)
        assert (code, out) == (3, "")
        assert point_err.startswith("error: ") and point_err.count("\n") == 1
        argv = ["gap", "sweep", "--q-min", q, "--q-max", q, "--format", fmt]
        assert run_cli(capsys, *argv) == (3, "", point_err)

    def test_bad_range_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "gap", "sweep", "--q-min", "5", "--q-max", "2")
        assert code == 3

    def test_sweep_checks_every_eps_before_any_row(self, capsys):
        # the q = 1 row would fail too, but the eps list is checked first
        code, out, err = run_cli(
            capsys, "gap", "sweep", "--q-min", "1", "--q-max", "3", "--eps-list", "0.01", "0.7"
        )
        assert (code, out) == (3, "")
        assert "error probability" in err

    def test_options_do_not_carry_over_between_calls(self, capsys):
        # main reuses one parser, so a call sees only its own options
        args = ["gap", "sweep", "--q-min", "2", "--q-max", "3", "--format", "json"]
        first = run_json(capsys, *args, "--eps-list", "0.1", "0.2")
        second = run_json(capsys, *args)
        assert [r["eps"] for r in first["rows"]] == [0.1, 0.2, 0.1, 0.2]
        assert [r["eps"] for r in second["rows"]] == [0.01, 0.01]

    @pytest.mark.parametrize("q", ["nan", "inf", "1e400"])
    def test_non_finite_q_exits_3(self, capsys, q):
        code, out, err = run_cli(capsys, "gap", "--q", q, "--eps", "0.01")
        assert code == 3
        assert out == ""
        assert "station count q must be finite" in err

    def test_integer_q_beyond_float_range_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "gap", "--q", "1" + "0" * 400)
        assert code == 3
        assert out == ""
        assert "float range" in err

    @pytest.mark.parametrize(
        "q_max, eps_list, rows",
        [
            (1 + (1 << 20), ["0.01"], 1 << 20),
            (2 + (1 << 20), ["0.01"], (1 << 20) + 1),
            (1 + (1 << 19), ["0.01", "0.02"], 1 << 20),
            (2 + (1 << 19), ["0.01", "0.02"], (1 << 20) + 2),
        ],
    )
    def test_sweep_row_cap(self, capsys, monkeypatch, q_max, eps_list, rows):
        # The first row fails, so neither sweep builds a row: one at the
        # cap gets as far as its first row, one over it never does.
        def first_row(qs, noises):
            raise LookupError("first row reached")
            yield

        monkeypatch.setattr(cli, "gap_rows", first_row)
        code, out, err = run_cli(
            capsys, "gap", "sweep", "--q-min", "2", "--q-max", str(q_max),
            "--eps-list", *eps_list,
        )
        assert code == 3
        assert out == ""
        if rows > 1 << 20:
            assert err == f"error: gap sweep supports at most {1 << 20} rows, got {rows}\n"
        else:
            assert err == "error: LookupError: first row reached\n"

    def test_underflowed_gap_stays_float(self, capsys):
        point = run_json(capsys, "gap", "--q", "1000000", "--eps", "0.01")
        sweep = run_json(
            capsys, "gap", "sweep", "--q-min", "1000000", "--q-max", "1000000",
            "--eps-list", "0.01", "--format", "json",
        )
        for row in (point, *sweep["rows"]):
            assert isinstance(row["gap_asymptotic"], float)
            assert row["gap_asymptotic"] == 0.0

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (["gap", "--q", "2"], ["eps", "p_qm"]),
            (["gap", "--q", "4e27"], ["eps", "p_qm"]),
            (["gap", "sweep", "--q-min", "2", "--q-max", "3", "--format", "json"], ["eps", "p_qm"]),
            (["simulate", "--q", "3", "--model", "qm", "--trials", "100", "--seed", "1"],
             ["epsilon", "failure_rate", "theory"]),
        ],
        ids=["gap", "gap-real-q", "gap-sweep", "simulate"],
    )
    def test_negative_zero_eps_reports_zero(self, capsys, argv, fields):
        option = "--eps-list" if "sweep" in argv else "--eps"
        payload = run_json(capsys, *argv, option, "-0.0")
        for row in payload.get("rows", [payload]):
            for field in fields:
                assert row[field] == 0.0 and math.copysign(1.0, row[field]) == 1.0, field


class TestDisproveAndCat:
    def test_disprove_35(self, capsys):
        payload = run_json(
            capsys, "disprove", "--p-failure", "0.125", "--confidence", "0.99"
        )
        assert payload["trials"] == 35

    def test_disprove_tiny_rate(self, capsys):
        payload = run_json(
            capsys, "disprove", "--p-failure", "1e-20", "--confidence", "0.99"
        )
        assert payload["trials"] == pytest.approx(4.605170185988091e20, rel=1e-9)

    def test_disprove_zero_rate_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "disprove", "--p-failure", "0", "--confidence", "0.99")
        assert code == 3

    def test_cat_juxtaposes_thresholds(self, capsys):
        payload = run_json(capsys, "cat", "--mass-kg", "4", "--delta", "0.01")
        assert payload["q"] == pytest.approx(3.744e27, rel=1e-3)
        assert payload["epsilon_derived"] == pytest.approx(4.2987e-28, rel=1e-4, abs=0.0)
        assert payload["epsilon_reference"] == 6e-28
        assert payload["gap_at_derived"] == pytest.approx(0.01, rel=1e-9)

    def test_cat_boundary_delta_reports_positive_zero(self, capsys):
        code, out, _ = run_cli(capsys, "cat", "--mass-kg", "4", "--delta", "0.25")
        assert code == 0
        assert '"epsilon_derived": 0.0,' in out
        assert math.copysign(1.0, json.loads(out)["epsilon_derived"]) == 1.0

    def test_cat_convention_flag(self, capsys):
        payload = run_json(
            capsys, "cat", "--mass-kg", "4", "--delta", "0.01",
            "--convention", "molecules",
        )
        assert payload["q"] == pytest.approx(3.744e27 / 28, rel=1e-3)

    @pytest.mark.parametrize(
        "mass, named",
        [
            ("inf", "inf"), ("nan", "nan"), ("-inf", "-inf"), ("1e300", "1e+300"),
            ("1e-30", "1e-30"),
        ],
    )
    def test_cat_unrepresentable_mass_exits_3(self, capsys, mass, named):
        code, out, err = run_cli(capsys, "cat", f"--mass-kg={mass}", "--delta", "0.01")
        assert code == 3
        assert out == ""
        assert err.startswith("error: mass") and f"{named} kg" in err


class TestManifest:
    @pytest.mark.parametrize(
        "argv, command, parameters",
        [
            (["classify", "--config", "llr"], "classify", ["config"]),
            (["enumerate", "--q", "3"], "enumerate", ["q", "words_only"]),
            (["lhv", "optimize", "--q", "4"], "lhv optimize", ["q", "verify_brute_force"]),
            (
                ["simulate", "--q", "3", "--model", "qm", "--trials", "10", "--seed", "1"],
                "simulate",
                ["q", "model", "eps", "trials", "seed", "ci_level"],
            ),
            (["gap", "--q", "5"], "gap", ["q", "eps"]),
            (
                ["gap", "sweep", "--q-min", "2", "--q-max", "3", "--format", "json"],
                "gap sweep",
                ["q_min", "q_max", "eps_list"],
            ),
            (
                ["disprove", "--p-failure", "0.5", "--confidence", "0.9"],
                "disprove",
                ["p_failure", "confidence"],
            ),
            (["cat", "--mass-kg", "4"], "cat", ["mass_kg", "delta", "convention"]),
        ],
    )
    def test_command_and_parameter_keys(self, capsys, argv, command, parameters):
        manifest = run_json(capsys, *argv)["manifest"]
        assert manifest["command"] == command
        assert list(manifest["parameters"]) == parameters
        seeded = command == "simulate"
        assert (manifest["seed"] is not None) == seeded
        assert ("environment" in manifest) == seeded

    def test_parameters_echo_values(self, capsys):
        manifest = run_json(
            capsys, "gap", "sweep", "--q-min", "2", "--q-max", "3",
            "--eps-list", "0", "0.01", "--format", "json",
        )["manifest"]
        assert manifest["parameters"] == {
            "q_min": 2, "q_max": 3, "eps_list": [0.0, 0.01],
        }

    @pytest.mark.parametrize("epoch", ["253402300800", "-62135596801", "99999999999999999"])
    def test_epoch_outside_dates_exits_3(self, capsys, monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        code, out, err = run_cli(capsys, "classify", "--config", "r")
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: SOURCE_DATE_EPOCH {epoch} ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "epoch, timestamp",
        [
            ("253402300799", "9999-12-31T23:59:59+00:00"),
            ("-62135596800", "0001-01-01T00:00:00+00:00"),
        ],
    )
    def test_epoch_at_date_limits_accepted(self, capsys, monkeypatch, epoch, timestamp):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert run_json(capsys, "classify", "--config", "r")["manifest"]["timestamp"] == timestamp


class FillingDevice:
    """A stdout that counts the characters written and fails, as on a full
    disk, a write that would pass `capacity`."""

    def __init__(self, capacity=float("inf")):
        self.left = capacity
        self.written = 0

    def write(self, text):
        if len(text) > self.left:
            raise OSError(28, "No space left on device")
        self.left -= len(text)
        self.written += len(text)
        return len(text)

    def flush(self):
        pass


def assert_one_error_line(err):
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


class TestWriteErrors:
    @pytest.mark.parametrize(
        "argv",
        [["classify", "--config", "rrr"], ["enumerate", "--q", "3", "--format", "csv"]],
        ids=["classify", "enumerate-csv"],
    )
    def test_failed_write_exits_3(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", FillingDevice(0))
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "No space left on device" in err
        assert_one_error_line(err)

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["enumerate", "--q", "14"], 1 << 14),
            (["gap", "sweep", "--q-min", "2", "--q-max", "10001", "--format", "json"], 10000),
        ],
        ids=["enumerate", "gap-sweep"],
    )
    def test_write_failing_mid_stream_exits_3(self, capsys, monkeypatch, argv, rows):
        assert rows > 2 * BATCH_ROWS
        device = FillingDevice(1_000_000)  # the first batch fits, the report does not
        monkeypatch.setattr(sys, "stdout", device)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert 0 < device.written < 1_000_000
        assert "No space left on device" in err
        assert_one_error_line(err)

    @pytest.mark.parametrize(
        "argv, read",
        [(["enumerate", "--q", "16"], 100), (["classify", "--config", "rrr"], 0)],
        ids=["enumerate-mid-stream", "classify-before-output"],
    )
    def test_reader_closing_early_exits_3(self, argv, read):
        # Python's default, buffered stdout: the data left in its buffer
        # must not fail the flush at exit a second time.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        assert_reader_closing_early_exits_3(argv, read, env)

    @pytest.mark.parametrize(
        "argv, read",
        [
            (["enumerate", "--q", "16"], 100),
            # one write: 4096 rows, one batch of ~290 kB, past a 64 KiB pipe buffer
            (["gap", "sweep", "--q-min", "2", "--q-max", "4097", "--format", "csv"], 100),
            (["classify", "--config", "rrr"], 0),
        ],
        ids=["enumerate-mid-stream", "sweep-csv-one-write", "classify-before-output"],
    )
    def test_reader_closing_early_exits_3_unbuffered(self, argv, read):
        # Unbuffered stdout writes straight to the pipe: the part of a large
        # write that a short write left over must not be lost unreported.
        assert_reader_closing_early_exits_3(argv, read, {**os.environ, "PYTHONUNBUFFERED": "1"})

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv", [["classify", "--config", "rrr"], ["enumerate", "--q", "16"]],
        ids=["classify", "enumerate"],
    )
    def test_full_device_exits_3(self, argv, unbuffered):
        # A fresh process, so the report goes through stdout's descriptor.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "ghzgap.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        err = result.stderr.decode()
        assert result.returncode == 3
        assert "No space left on device" in err
        assert_one_error_line(err)

    def test_text_printed_before_main_stays_first(self, tmp_path):
        # stdout to a file is block-buffered: the caller's line still sits in
        # its buffer when main writes the report to the descriptor.
        code = (
            "from ghzgap.cli import main\n"
            "print('caller line')\n"
            "raise SystemExit(main(['classify', '--config', 'rrr']))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        path = tmp_path / "stdout.txt"
        with open(path, "wb") as stdout:
            subprocess.run([sys.executable, "-c", code], stdout=stdout, env=env, check=True)
        first, report = path.read_text().split("\n", 1)
        assert first == "caller line"
        assert json.loads(report)["kind"] == "word"


def assert_reader_closing_early_exits_3(argv, read, env):
    """A fresh `ghzgap` whose stdout reader reads `read` bytes, then closes
    the pipe, exits 3 with one "Broken pipe" error line."""
    child = subprocess.Popen(
        [sys.executable, "-m", "ghzgap.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(child.stdout.read(read)) == read
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 3
    assert "Broken pipe" in err
    assert_one_error_line(err)


def traced_peak(monkeypatch, argv):
    """(tracemalloc peak in bytes, characters written) of one cli.main call."""
    sink = FillingDevice()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, sink.written


class TestStreamingMemory:
    """A large report is written a batch at a time: its peak memory does
    not grow with its row count."""

    def test_enumerate(self, monkeypatch):
        # From 8 stations up, the table `enumerate` builds its items from
        # stays the same size, and each block it writes is 2^8 rows (2^7
        # with --words-only), so q and q + 4 peak alike.
        for options, q in [([], 12), (["--words-only"], 13), (["--format", "csv"], 12)]:
            argv = ["enumerate", *options, "--q"]
            small, small_size = traced_peak(monkeypatch, argv + [str(q)])
            large, large_size = traced_peak(monkeypatch, argv + [str(q + 4)])
            assert large_size > 15 * small_size, options
            assert large < 2 * small, options

    def test_gap_sweep(self, monkeypatch):
        # gap_rows() keeps nothing between rows; one fixed row per (q, eps)
        # keeps 50 000 rows cheap under tracemalloc.
        row = next(cli.gap_rows((10,), (cli.NoiseModel(0.01),)))
        monkeypatch.setattr(cli, "gap_rows", lambda qs, noises: (row for _ in qs for _ in noises))
        argv = ["gap", "sweep", "--q-min", "1", "--format", "json", "--q-max"]
        small, small_size = traced_peak(monkeypatch, argv + ["5000"])
        large, large_size = traced_peak(monkeypatch, argv + ["50000"])
        assert large_size > 9 * small_size
        assert large < 2 * small


class TestUnexpectedErrors:
    def test_handler_exception_exits_3(self, capsys, monkeypatch):
        def broken(p_failure, confidence):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "min_trials_to_disprove", broken)
        code, out, err = run_cli(capsys, "disprove", "--p-failure", "0.5", "--confidence", "0.9")
        assert code == 3
        assert out == ""
        assert err == "error: ZeroDivisionError: float division by zero\n"

    @pytest.mark.parametrize("raised", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_propagate(self, monkeypatch, raised):
        def interrupted(p_failure, confidence):
            raise raised()

        monkeypatch.setattr(cli, "min_trials_to_disprove", interrupted)
        with pytest.raises(raised):
            main(["disprove", "--p-failure", "0.5", "--confidence", "0.9"])


class TestPatchedNames:
    """Handlers call the Monte Carlo and strategy names through `cli`, so a
    name patched there (as `bench/spans.py --trace 1` wraps it) is called."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("run_experiment", ["simulate", "--q", "3", "--model", "qm", "--trials", "10", "--seed", "1"]),
            ("minimize_bad_words", ["lhv", "optimize", "--q", "5"]),
        ],
    )
    def test_patched_name_reaches_the_handler(self, capsys, monkeypatch, name, argv):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        _, expected, _ = run_cli(capsys, *argv)
        original = getattr(cli, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out, len(calls)) == (0, expected, 1)


class TestLazyNames:
    """`cli` resolves only the package's public names, through the package."""

    @pytest.mark.parametrize("name", ["__path__", "experiment", "no_such_name"])
    def test_other_names_are_refused(self, name):
        with pytest.raises(AttributeError, match=f"'ghzgap.cli' has no attribute '{name}'"):
            getattr(cli, name)

    @pytest.mark.parametrize("name", ["run_experiment", "stream_environment"])
    def test_public_names_are_the_experiment_modules_own(self, name):
        from ghzgap import experiment

        assert getattr(cli, name) is getattr(experiment, name)


#: Runs cli.main on each argv of argv[1] (a JSON list) in one fresh process,
#: stdout discarded, and prints a JSON object: after `import ghzgap` and after
#: each command, the command's exit code, which of numpy, dataclasses and
#: inspect (the costly imports the start-up path avoids) are loaded, and
#: which `ghzgap` submodules are.
_STARTUP_PROBE = """
import contextlib, io, json, sys
def loaded():
    costly = [name for name in ("dataclasses", "inspect", "numpy") if name in sys.modules]
    return costly, sorted(name for name in sys.modules if name.startswith("ghzgap."))
import ghzgap
report = {"import ghzgap": [0, *loaded()]}
from ghzgap import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report[" ".join(argv)] = [code, *loaded()]
print(json.dumps(report))
"""


def _startup_report(commands):
    result = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, json.dumps(commands)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


#: The modules that only some commands load: the Monte Carlo and strategy
#: layers, and the cross-checks.
_LAYERS = {"ghzgap.experiment", "ghzgap.oracles", "ghzgap.strategies"}


#: Runs cli.main on argv[1:] in a fresh process, stdout discarded, and prints
#: the exit code and which of the standard library modules that only some
#: commands need are loaded.
_STDLIB_PROBE = """
import contextlib, io, sys
from ghzgap import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted({"csv", "datetime", "decimal", "fractions"} & set(sys.modules)))
"""

#: What each command loads of those: `csv` for a CSV report only, `fractions`
#: (and `decimal` with it) for exact rationals only, `datetime` never.
_STDLIB_BY_COMMAND = {
    "classify --config rrl": [],
    "enumerate --q 4": [],
    "enumerate --q 4 --format csv": ["csv"],
    "gap --q 10 --eps 0.01": [],
    "gap sweep --q-min 2 --q-max 5 --format json": [],
    "gap sweep --q-min 2 --q-max 5": ["csv"],
    "cat --mass-kg 4": [],
    "disprove --p-failure 0.125 --confidence 0.99": ["decimal", "fractions"],
    "lhv optimize --q 8": ["decimal", "fractions"],
}


class TestStartupPath:
    def test_commands_load_only_the_stdlib_they_use(self):
        # One fresh process per command, all started at once.
        children = {
            command: subprocess.Popen(
                [sys.executable, "-c", _STDLIB_PROBE, *command.split()],
                stdout=subprocess.PIPE, text=True,
            )
            for command in _STDLIB_BY_COMMAND
        }
        loaded = {
            command: child.communicate(timeout=60)[0].split()
            for command, child in children.items()
        }
        assert loaded == {command: ["0", *names] for command, names in _STDLIB_BY_COMMAND.items()}

    def test_closed_form_commands_never_load_numpy(self):
        # The closed-form commands come first: submodules stay loaded, so
        # each entry lists what it and the commands before it loaded.
        closed_form = [
            ["classify", "--config", "rrl"],
            ["enumerate", "--q", "4"],
            ["gap", "--q", "10", "--eps", "0.01"],
            ["gap", "sweep", "--q-min", "2", "--q-max", "5"],
            ["cat", "--mass-kg", "4"],
            ["disprove", "--p-failure", "0.125", "--confidence", "0.99"],
        ]
        lhv = ["lhv", "optimize", "--q", "8"]
        commands = [*closed_form, lhv]
        report = _startup_report(commands)
        expected = {"import ghzgap": [0, []]}
        expected.update({" ".join(argv): [0, []] for argv in commands})
        assert {label: entry[:2] for label, entry in report.items()} == expected
        modules = {label: set(entry[2]) for label, entry in report.items()}
        assert modules["import ghzgap"] == set()
        for argv in closed_form:
            assert not modules[" ".join(argv)] & _LAYERS, argv
        assert modules[" ".join(lhv)] & _LAYERS == {"ghzgap.strategies"}

    @pytest.mark.parametrize(
        "argv, layer, oracles",
        [
            (
                ["simulate", "--q", "3", "--model", "qm", "--trials", "10", "--seed", "1"],
                "experiment",
                False,
            ),
            (["lhv", "optimize", "--q", "4", "--verify-brute-force"], "strategies", True),
        ],
        ids=["simulate", "lhv-brute-force"],
    )
    def test_array_commands_load_numpy(self, argv, layer, oracles):
        # Only the brute-force check loads the cross-checks module, and it
        # does not load the Monte Carlo layer with them.
        report = _startup_report([argv])
        assert report["import ghzgap"] == [0, [], []]
        code, loaded, modules = report[" ".join(argv)]
        assert code == 0 and "numpy" in loaded
        assert f"ghzgap.{layer}" in modules
        assert ("ghzgap.oracles" in modules) is oracles
        assert ("ghzgap.experiment" in modules) is not oracles


class TestConsoleScript:
    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "ghzgap.cli", "disprove",
             "--p-failure", "0.5", "--confidence", "0.99"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["trials"] == 7

    def test_float_17_digit_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "gap", "--q", "11", "--eps", "0.013")
        payload = json.loads(out)
        import ghzgap
        expected = ghzgap.failure_probability_closed(11, ghzgap.NoiseModel(0.013))
        assert payload["p_qm"] == expected  # exact bit round-trip
