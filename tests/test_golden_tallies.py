"""Golden tallies: seed -> failures, word trials and station r counts.

The file pins the random stream: any change to the draws of a run makes
these tests fail, so a new stream must come with a new STREAM_VERSION and
regenerated goldens (`PYTHONPATH=src python tests/test_golden_tallies.py`).
Its header is the stream_environment() block of the stream it pins. Its
replays pin the replay's stream (key 1) as well: each is the sha256 of a
short `iter_trials` run's (r_mask, outcome, failure) records. The
regenerator refuses to rewrite a tally or a replay under the file's own
stream_version: it exits non-zero and names the first case that changed.
Under a new stream_version it prints which cases changed and which kept
their draws before it rewrites the file.
"""

import hashlib
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
from ghzgap.oracles import OutcomeTuple, iter_trials
from ghzgap.quantum import NoiseModel

GOLDEN_PATH = Path(__file__).with_name("golden_tallies.json")
#: The trial count of every case, part of its key.
TRIALS = 65536 + 4321
#: The trial count of every replay: each record is hashed.
REPLAY_TRIALS = 3000


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


def _replay_cases():
    # the benchmark's smallest and largest q
    for index, (model, q) in enumerate([("qm", 3), ("qm", 64), ("lhv", 3), ("lhv", 64)]):
        yield {"model": model, "q": q, "eps": 0.01, "trials": REPLAY_TRIALS, "seed": 9_200 + index}


def _config(case):
    noise = NoiseModel(case["eps"])
    model = QuantumModel(noise) if case["model"] == "qm" else LhvModel(noise=noise)
    return ExperimentConfig(
        q=case["q"], model=model, trials=case["trials"], master_seed=case["seed"]
    )


def _report(case):
    return run_experiment(_config(case), workers=1)


def _replay(case):
    """The sha256 of the replay's records as JSON [r_mask, outcome, failure]
    triples: a quantum outcome is its list of results, a hidden-variable one
    its total."""
    records = [
        [
            r.configuration.r_mask,
            r.outcome.results if isinstance(r.outcome, OutcomeTuple) else r.outcome,
            r.failure,
        ]
        for r in iter_trials(_config(case))
    ]
    return {"sha256": hashlib.sha256(json.dumps(records).encode()).hexdigest()}


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
    assert [_key(c) for c in golden["replays"]] == [_key(c) for c in _replay_cases()]


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


@pytest.mark.parametrize(
    "case", list(_replay_cases()), ids=lambda c: f"{c['model']}-q{c['q']}-eps{c['eps']}"
)
def test_seed_pins_replay(case):
    golden = {_key(c): c for c in _golden()["replays"]}[_key(case)]
    assert _replay(case) == {"sha256": golden["sha256"]}


def _label(case):
    kind = "replay" if "sha256" in case else "tallies"
    return f"{kind} of {case['model']} q={case['q']} eps={case['eps']} seed={case['seed']}"


def _changed(cases, pinned_cases):
    """The cases whose draws differ from the ones the golden file pins
    (a case the file lacks has none to differ from)."""
    pinned = {_key(c): c for c in pinned_cases}
    return [c for c in cases if pinned.get(_key(c), c) != c]


def _lines(cases):
    return ",\n".join(json.dumps(c) for c in cases)  # one case per line


if __name__ == "__main__":
    cases = [{**case, **_tallies(_report(case))} for case in _cases()]
    replays = [{**case, **_replay(case)} for case in _replay_cases()]
    if GOLDEN_PATH.exists():
        golden = _golden()
        changed = _changed(cases, golden["cases"]) + _changed(replays, golden["replays"])
        pinned_version = golden["environment"]["stream_version"]
        if pinned_version == STREAM_VERSION and changed:
            sys.exit(
                f"{_label(changed[0])} differs from {GOLDEN_PATH.name} at "
                f"stream_version {STREAM_VERSION}: a new stream needs a new STREAM_VERSION"
            )
        if pinned_version != STREAM_VERSION:
            print(
                f"stream_version {pinned_version} -> {STREAM_VERSION}: "
                f"{len(changed)} of {len(cases) + len(replays)} cases changed their draws"
            )
            for case in cases + replays:
                print(f"  {'changed' if case in changed else 'kept   '} {_label(case)}")
    environment = json.dumps(stream_environment())
    GOLDEN_PATH.write_text(
        f'{{"environment": {environment}, "cases": [\n{_lines(cases)}\n],'
        f' "replays": [\n{_lines(replays)}\n]}}\n'
    )
    print(f"wrote {len(cases)} cases and {len(replays)} replays to {GOLDEN_PATH}")
