"""Golden reports: argv -> the exact stdout and exit code of the CLI.

The file pins every byte a report writes, manifest included, with the
timestamp fixed by SOURCE_DATE_EPOCH. Any change to a report's text makes
these tests fail, so only a deliberate format change may regenerate the
goldens (`PYTHONPATH=src python tests/test_golden_reports.py`). The
regenerator prints the argv of each case whose stdout or exit code differs
from the file (or that the file lacks) before it rewrites every case.

The file also pins each report's fields under `reporting.SCHEMA_VERSION`:
the JSON key paths (a list's items under ``[]``) or the CSV header row. A
report whose fields differ from the pinned ones needs a new SCHEMA_VERSION;
the regenerator refuses to rewrite such a case under the file's own
version, exits non-zero and names the first such case. A change of values
only needs none, except in a seeded report (one whose argv has --seed):
its values are the random stream's draws, so the regenerator likewise
refuses to rewrite a seeded case whose stdout changed while the file's
manifests still state the current `experiment.STREAM_VERSION`.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ghzgap.cli import main
from ghzgap.experiment import STREAM_VERSION
from ghzgap.reporting import SCHEMA_VERSION

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
    "gap --q 2.0 --eps 0.1",
    "gap --q 10.5 --eps 0.01",
    "gap sweep --q-min 2 --q-max 30 --eps-list 0 0.01 0.1",
    "gap sweep --q-min 2 --q-max 5 --eps-list 0 0.01 --format json",
    "disprove --p-failure 0.125 --confidence 0.99",
    "cat --mass-kg 4",
]


def _report(argv):
    """Exit code, stdout lines and fields of one in-process run (stderr
    discarded)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    text = out.getvalue()
    return {"exit_code": code, "stdout": text.split("\n"), "fields": _fields(text)}


def _fields(text):
    """A report's field paths: its JSON key paths, or its CSV header row."""
    if not text.startswith("{"):
        return text.partition("\n")[0].split(",") if text else []
    return list(dict.fromkeys(_key_paths(json.loads(text), "")))


def _key_paths(value, path):
    if isinstance(value, dict):
        for key, item in value.items():
            yield (inner := f"{path}.{key}" if path else key)
            yield from _key_paths(item, inner)
    elif isinstance(value, list):
        for item in value:
            yield from _key_paths(item, f"{path}[]")


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def _unversioned_change(cases):
    """The first case whose fields differ from the golden file's at the same
    schema version, or None: only a new SCHEMA_VERSION may change them."""
    golden = _golden() if GOLDEN_PATH.exists() else None
    if golden is None or golden["schema_version"] != SCHEMA_VERSION:
        return None
    pinned = {c["argv"]: c["fields"] for c in golden["cases"]}
    return next((c for c in cases if pinned.get(c["argv"], c["fields"]) != c["fields"]), None)


def _unversioned_draws(cases):
    """The first seeded case whose stdout differs from the golden file's
    while the file's manifests state the current stream version, or None:
    only a new STREAM_VERSION may change the draws behind a seeded report.
    A CSV report has no manifest; the file's JSON manifests speak for it."""
    if not GOLDEN_PATH.exists():
        return None
    golden = _golden()
    stated = {
        json.loads("\n".join(c["stdout"]))["manifest"]["environment"]["stream_version"]
        for c in golden["cases"]
        if "manifest.environment.stream_version" in c["fields"]
    }
    if STREAM_VERSION not in stated:
        return None
    pinned = {c["argv"]: c["stdout"] for c in golden["cases"]}
    return next(
        (
            c for c in cases
            if "--seed" in c["argv"].split() and pinned.get(c["argv"], c["stdout"]) != c["stdout"]
        ),
        None,
    )


def test_golden_file_lists_the_cases():
    golden = _golden()
    assert golden["source_date_epoch"] == int(SOURCE_DATE_EPOCH)
    assert [case["argv"] for case in golden["cases"]] == CASES
    assert all(case["fields"] == _fields("\n".join(case["stdout"])) for case in golden["cases"])


@pytest.fixture(scope="module")
def reports():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SOURCE_DATE_EPOCH", SOURCE_DATE_EPOCH)
        return {argv: _report(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES)
def test_argv_pins_report(reports, argv):
    golden = {c["argv"]: c for c in _golden()["cases"]}[argv]
    assert reports[argv] == {k: golden[k] for k in ("exit_code", "stdout", "fields")}


def test_fields_change_only_with_schema_version(reports):
    changed = _unversioned_change([{"argv": argv, **reports[argv]} for argv in CASES])
    assert changed is None, f"{changed['argv']}: new fields need a new SCHEMA_VERSION"


def test_draws_change_only_with_stream_version(reports):
    changed = _unversioned_draws([{"argv": argv, **reports[argv]} for argv in CASES])
    assert changed is None, f"{changed['argv']}: new draws need a new STREAM_VERSION"


if __name__ == "__main__":
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    cases = [{"argv": argv, **_report(argv)} for argv in CASES]
    changed = _unversioned_change(cases)
    if changed is not None:
        sys.exit(
            f"fields of {changed['argv']!r} differ from {GOLDEN_PATH.name} at schema_version "
            f"{SCHEMA_VERSION}: new fields need a new SCHEMA_VERSION"
        )
    changed = _unversioned_draws(cases)
    if changed is not None:
        sys.exit(
            f"stdout of seeded {changed['argv']!r} differs from {GOLDEN_PATH.name} at "
            f"stream_version {STREAM_VERSION}: new draws need a new STREAM_VERSION"
        )
    pinned = {c["argv"]: c for c in _golden()["cases"]} if GOLDEN_PATH.exists() else {}
    for case in cases:
        if pinned.get(case["argv"]) != case:
            print(f"changed: {case['argv']}")
    golden = {
        "source_date_epoch": int(SOURCE_DATE_EPOCH),
        "schema_version": SCHEMA_VERSION,
        "cases": cases,
    }
    # One stdout line per file line, so a format change reads as a line diff.
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
