"""The class chain against a reference copy of random stream version 4.

`tests/golden_tallies.json` pins the stream at q <= 12, 69857 trials and
canonical masks only. This file keeps the array form of the v4 chain (one
Generator.binomial call over the 8-vector of class counts per station, then
one for the parities) as a test-only reference, and checks that the
production chain draws exactly the same numbers over a wider grid: small
and large q, trial counts up to 2^62, eps down to 1e-300 and masks that are
empty, canonical or random, or hold one bit: bit 0, bit q-1 or a random one.
The chain draws 4 classes up to the station of t_mask's lowest set bit and
8 from there on, so the one-bit masks put that switch first, last and in
between.
"""

import random

import numpy as np
import pytest

from ghzgap.experiment import (
    STREAM_VERSION,
    ExperimentConfig,
    LhvModel,
    QuantumModel,
    _FAILING,
    _class_chain,
    _class_rule,
    _stream,
    run_experiment,
)
from ghzgap.quantum import NoiseModel, failure_probability_closed
from ghzgap.strategies import CanonicalStrategy, minimize_bad_words

QS = (1, 2, 3, 4, 10, 33, 64)
TRIALS = (1, 7, 69857, 1 << 40, 1 << 62)
EPSILONS = (0.0, 1e-300, 0.01, 0.5)
MASKS = ("empty", "canonical", "random", "low", "high", "one")

#: Where a trial of class c goes when it picks r, for t_mask bit 0 and 1.
NEXT = np.array([[1, 2, 3, 0, 5, 6, 7, 4], [5, 6, 7, 4, 1, 2, 3, 0]])


def reference_chain(cfg, t_mask):
    """Random stream v4 in array form: (picks, counts, odd) as lists."""
    rng = _stream(cfg.master_seed, 0)
    counts = np.zeros(8, dtype=np.int64)
    counts[0] = cfg.trials
    picks = np.empty((cfg.q, 8), dtype=np.int64)
    for k in range(cfg.q):
        picked = picks[k] = rng.binomial(counts, 0.5)
        counts -= picked
        counts[NEXT[t_mask >> k & 1]] += picked
    noise = cfg.model.noise
    if noise.epsilon > 0.0:
        odd = rng.binomial(counts, 2.0 * failure_probability_closed(cfg.q, noise))
    else:
        odd = np.zeros(8, dtype=np.int64)
    return picks.tolist(), counts.tolist(), odd.tolist()


def _mask(q, kind, rnd):
    if kind == "empty":
        return 0
    if kind == "canonical":
        return minimize_bad_words(q).strategy.t_mask
    if kind == "low":
        return 1
    if kind == "high":
        return 1 << q - 1
    if kind == "one":
        return 1 << rnd.randrange(q)
    return rnd.getrandbits(q)


def _grid(q, kind):
    rnd = random.Random(f"class-chain-{q}-{kind}")
    for trials in TRIALS:
        for eps in EPSILONS:
            t_mask = _mask(q, kind, rnd)
            model = QuantumModel(NoiseModel(eps))
            if kind != "empty":
                strategy = CanonicalStrategy(q, rnd.choice((+1, -1)), t_mask)
                model = LhvModel(strategy, NoiseModel(eps))
            yield ExperimentConfig(q, model, trials, rnd.getrandbits(64)), t_mask


def test_reference_is_stream_version_4():
    # a new stream needs a new reference here, as well as new goldens
    assert STREAM_VERSION == 4


@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("q", QS)
def test_chain_matches_reference(q, kind):
    for cfg, t_mask in _grid(q, kind):
        picks, counts, odd = reference_chain(cfg, t_mask)
        chain = _class_chain(cfg, t_mask)
        assert (chain.picks, chain.counts, chain.odd) == (picks, counts, odd), cfg
        assert all(type(n) is int for n in (*chain.counts, *chain.odd, *chain.picks[-1]))


def test_failing_tables_are_the_rule():
    # run_experiment reads the rule from a table built once per a_sign
    strategies = {None: None, +1: CanonicalStrategy(4, +1, 6), -1: CanonicalStrategy(4, -1, 9)}
    assert _FAILING == {sign: _class_rule(strategy)[1] for sign, strategy in strategies.items()}


@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("q", QS)
def test_report_sums_the_reference(q, kind):
    for cfg, t_mask in _grid(q, kind):
        picks, counts, odd = reference_chain(cfg, t_mask)
        strategy = cfg.model.strategy if isinstance(cfg.model, LhvModel) else None
        failures = 0
        for c in range(1, 8, 2):
            # a word fails when its predicted total, inverted by odd error
            # parity, misses the eigenvalue bit c >> 1 & 1
            eigen = c >> 1 & 1
            predicted = eigen if strategy is None else c >> 2 ^ (strategy.a_sign != +1)
            failures += odd[c] if predicted == eigen else counts[c] - odd[c]
        report = run_experiment(cfg)
        assert report.station_r_counts == tuple(sum(row) for row in picks), cfg
        assert report.word_trials == sum(counts[1::2]), cfg
        assert report.failures == failures, cfg
