"""Golden tallies: seed -> failures, word trials and station r counts.

The file pins the random stream: any change to the draws of a run makes
these tests fail, so a new stream must come with a new STREAM_VERSION and
regenerated goldens (`PYTHONPATH=src python tests/test_golden_tallies.py`).
Its header is the stream_environment() block of the stream it pins. The
regenerator refuses to rewrite a tally under the file's own stream_version:
it exits non-zero and names the first case whose tallies changed. Under a
new stream_version it prints which cases changed their tallies and which
kept them before it rewrites the file.
"""

import json
import sys
from pathlib import Path

import pytest

from ghzgap.experiment import (
    STREAM_VERSION,
    ExperimentConfig,
    LhvModel,
    QuantumModel,
    _stream,
    run_experiment,
    stream_environment,
)
from ghzgap.quantum import NoiseModel

GOLDEN_PATH = Path(__file__).with_name("golden_tallies.json")
#: The trial count of every case, part of its key.
TRIALS = 65536 + 4321


def _cases():
    index = 0
    # the benchmark's q, then the smallest q and two more
    for qs in ((3, 10, 64), (1, 11, 12)):
        for model in ("qm", "lhv"):
            for q in qs:
                for eps in (0.0, 0.01):
                    yield {
                        "model": model, "q": q, "eps": eps, "trials": TRIALS, "seed": 9_100 + index
                    }
                    index += 1


def _report(case):
    noise = NoiseModel(case["eps"])
    model = QuantumModel(noise) if case["model"] == "qm" else LhvModel(noise=noise)
    cfg = ExperimentConfig(
        q=case["q"], model=model, trials=case["trials"], master_seed=case["seed"]
    )
    return run_experiment(cfg, workers=1)


def _tallies(report):
    return {
        "failures": report.failures,
        "word_trials": report.word_trials,
        "station_r_counts": list(report.station_r_counts),
    }


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def _key(case):
    return case["model"], case["q"], case["eps"], case["trials"], case["seed"]


def test_golden_file_matches_stream():
    golden = _golden()
    assert golden["environment"] == stream_environment()
    assert [_key(c) for c in golden["cases"]] == [_key(c) for c in _cases()]


def test_environment_names_the_generator():
    # a new bit generator needs a new name (and version) in the manifest
    rng = _stream(0, 0)
    assert stream_environment()["rng"] == type(rng.bit_generator).__name__


@pytest.mark.parametrize(
    "case", list(_cases()), ids=lambda c: f"{c['model']}-q{c['q']}-eps{c['eps']}"
)
def test_seed_pins_tallies(case):
    golden = {_key(c): c for c in _golden()["cases"]}[_key(case)]
    expected = {k: golden[k] for k in ("failures", "word_trials", "station_r_counts")}
    assert _tallies(_report(case)) == expected


def _label(case):
    return f"{case['model']} q={case['q']} eps={case['eps']} seed={case['seed']}"


def _changed(cases, golden):
    """The cases whose tallies differ from the ones the golden file pins
    (a case the file lacks has none to differ from)."""
    pinned = {_key(c): c for c in golden["cases"]}
    return [c for c in cases if pinned.get(_key(c), c) != c]


if __name__ == "__main__":
    cases = [{**case, **_tallies(_report(case))} for case in _cases()]
    if GOLDEN_PATH.exists():
        golden = _golden()
        changed = _changed(cases, golden)
        pinned_version = golden["environment"]["stream_version"]
        if pinned_version == STREAM_VERSION and changed:
            sys.exit(
                f"tallies of {_label(changed[0])} differ from {GOLDEN_PATH.name} at "
                f"stream_version {STREAM_VERSION}: a new stream needs a new STREAM_VERSION"
            )
        if pinned_version != STREAM_VERSION:
            print(
                f"stream_version {pinned_version} -> {STREAM_VERSION}: "
                f"{len(changed)} of {len(cases)} cases changed their tallies"
            )
            for case in cases:
                print(f"  {'changed' if case in changed else 'kept   '} {_label(case)}")
    body = ",\n".join(json.dumps(c) for c in cases)  # one case per line
    environment = json.dumps(stream_environment())
    GOLDEN_PATH.write_text(f'{{"environment": {environment}, "cases": [\n{body}\n]}}\n')
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
