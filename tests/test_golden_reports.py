"""Golden reports: argv -> the exact stdout and exit code of the CLI.

The file pins every byte a report writes, manifest included, with the
timestamp fixed by SOURCE_DATE_EPOCH. Any change to a report's text makes
these tests fail, so only a deliberate format change may regenerate the
goldens (`PYTHONPATH=src python tests/test_golden_reports.py`). The
regenerator prints the argv of each case whose stdout or exit code differs
from the file (or that the file lacks) before it rewrites every case.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from ghzgap.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")
SOURCE_DATE_EPOCH = "1700000000"

CASES = [
    "classify --config rrr",
    "enumerate --q 3",
    "enumerate --q 4 --words-only --format csv",
    "lhv optimize --q 6 --verify-brute-force",
    "simulate --q 5 --model qm --eps 0.01 --trials 200000 --seed 7",
    "simulate --q 5 --model qm --eps 0.01 --trials 200000 --seed 7 --csv",
    "simulate --q 64 --model lhv --eps 0.01 --trials 70000 --seed 3",
    "gap --q 3 --eps 0",
    "gap --q 1000000 --eps 0.01",
    "gap --q 4e27 --eps 6e-28",
    "gap sweep --q-min 2 --q-max 30 --eps-list 0 0.01 0.1",
    "gap sweep --q-min 2 --q-max 5 --eps-list 0 0.01 --format json",
    "disprove --p-failure 0.125 --confidence 0.99",
    "cat --mass-kg 4",
]


def _report(argv):
    """Exit code and stdout lines of one in-process run (stderr discarded)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    return {"exit_code": code, "stdout": out.getvalue().split("\n")}


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_lists_the_cases():
    golden = _golden()
    assert golden["source_date_epoch"] == int(SOURCE_DATE_EPOCH)
    assert [case["argv"] for case in golden["cases"]] == CASES


@pytest.mark.parametrize("argv", CASES)
def test_argv_pins_report(monkeypatch, argv):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", SOURCE_DATE_EPOCH)
    golden = {c["argv"]: c for c in _golden()["cases"]}[argv]
    assert _report(argv) == {k: golden[k] for k in ("exit_code", "stdout")}


if __name__ == "__main__":
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    cases = [{"argv": argv, **_report(argv)} for argv in CASES]
    pinned = {c["argv"]: c for c in _golden()["cases"]} if GOLDEN_PATH.exists() else {}
    for case in cases:
        if pinned.get(case["argv"]) != case:
            print(f"changed: {case['argv']}")
    golden = {"source_date_epoch": int(SOURCE_DATE_EPOCH), "cases": cases}
    # One stdout line per file line, so a format change reads as a line diff.
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
