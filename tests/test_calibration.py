"""Calibration of the Monte Carlo engine over many seeds.

Acceptance tests 6 and 7 check one fixed seed per (q, eps) point, so a
correct sampler misses one of their 17 Wilson 99% intervals with
probability ~16 % whenever the draws change. This test checks the same 17
points over K seeds each, at levels fixed here before any draw is seen. It
adds 4 hidden-variable points with noise whose strategy has t_mask != 0, so
the chain rotates its classes both ways: the optimum at q = 4, 8 and 12
(t_mask = 1) at eps = 0.01, and a fixed 4-bit t_mask at q = 7, eps = 0.05.

- Failures: under the failure rule, trials are independent, so a run's
  failures are Bin(n, theory) for both models; words and every station's
  r count are Bin(n, 1/2). For each of these tallies, summed over the K
  seeds, |z| < 5 (two-sided false alarm 5.7e-7), and the sum of the K
  squared per-seed z scores lies inside the central 1 - 1e-6 of chi^2(K),
  which catches a wrong spread as well as a wrong mean.
- Per-seed Wilson 99% misses of the theory: at most the 1 - 1e-6 quantile
  of Bin(K, 0.01), 7 of 64 (false alarm 2.7e-7).
- The reported theory equals an independent exact value to 1e-12
  relative, and the z scores use that value: p_qm + (1 - 2 eps)^q bad/2^q
  in rationals, with the fixed strategy's bad words counted one by one.

With 176 tallies drawn at random (the failures of the three noiseless
quantum points are checked to be 0) and 21 miss counts, the whole test
raises a false alarm about once in 3500 runs. Every point has K = 64 seeds
of 2^16 trials, except qm q = 10, eps = 0.1 with 3 * 2^20 trials a seed: an
odd-error threshold 0.1 % too high moves the failure rate there by 2.2e-4,
1.1 standard errors of 64 x 2^16 trials but 7.6 of 64 x 3 * 2^20, and no
point with fewer trials resolves it.
"""

import math
import time
from fractions import Fraction

import pytest
from scipy import stats

from ghzgap.configs import Word, classify, enumerate_configurations
from ghzgap.experiment import ExperimentConfig, LhvModel, QuantumModel, run_experiment
from ghzgap.oracles import DeterministicStrategy, failure_probability_exact
from ghzgap.quantum import NoiseModel
from ghzgap.strategies import CanonicalStrategy, minimize_bad_words

SEEDS = 64
TRIALS = 1 << 16
Z_LIMIT = 5.0
TAIL = 1e-6

#: A fixed strategy that is not optimal at its q: 36 bad words of 64, not 28.
FIXED = CanonicalStrategy(7, +1, 0b1011010)

#: (model, q, eps, trials per seed, strategy): the points of acceptance
#: tests 6 and 7, then hidden-variable points on both rotations. A strategy
#: of None plays the canonical optimum.
POINTS = [
    *(
        ("qm", q, eps, 3 << 20 if (q, eps) == (10, 0.1) else TRIALS, None)
        for q in (3, 5, 10)
        for eps in (0.0, 0.01, 0.1)
    ),
    *(("lhv", q, 0.0, TRIALS, None) for q in range(3, 11)),
    *(("lhv", q, 0.01, TRIALS, None) for q in (4, 8, 12)),
    ("lhv", FIXED.q, 0.05, TRIALS, FIXED),
]


def _bad_share(q, strategy):
    """The share of the 2^q configurations that are words the strategy misses."""
    if strategy is None:
        return minimize_bad_words(q).probability
    # a raw table of the class: a_sign on station 1's l answer, and the r
    # answer flipped on the t_mask stations
    table = DeterministicStrategy(
        q,
        tuple(
            (a, -a if strategy.t_mask >> k & 1 else a)
            for k, a in enumerate([strategy.a_sign] + [+1] * (q - 1))
        ),
    )
    bad = 0
    for config in enumerate_configurations(q):
        kind = classify(config)
        if isinstance(kind, Word) and table.predict_total(config) != kind.eigenvalue:
            bad += 1
    return Fraction(bad, 1 << q)


def _exact_theory(model, q, eps, strategy):
    p_qm = failure_probability_exact(q, Fraction(eps))
    if model == "qm":
        return p_qm
    return p_qm + (1 - 2 * Fraction(eps)) ** q * _bad_share(q, strategy)


def _check_binomial(name, counts, trials, p):
    """Per-seed counts of one tally against Bin(trials, p)."""
    if p == 0.0:
        assert sum(counts) == 0, name
        return
    sd = math.sqrt(trials * p * (1.0 - p))
    pooled = (sum(counts) - SEEDS * trials * p) / (sd * math.sqrt(SEEDS))
    assert abs(pooled) < Z_LIMIT, (name, pooled)
    spread = sum(((c - trials * p) / sd) ** 2 for c in counts)
    low, high = stats.chi2.ppf(TAIL / 2, SEEDS), stats.chi2.isf(TAIL / 2, SEEDS)
    assert low < spread < high, (name, spread, low, high)


def test_calibration_over_seeds():
    start = time.perf_counter()
    for index, (model, q, eps, trials, strategy) in enumerate(POINTS):
        noise = NoiseModel(eps)
        chosen = QuantumModel(noise) if model == "qm" else LhvModel(strategy, noise)
        reports = [
            run_experiment(
                ExperimentConfig(
                    q=q, model=chosen, trials=trials,
                    master_seed=(index << 20) + seed, ci_level=0.99,
                )
            )
            for seed in range(SEEDS)
        ]
        point = (model, q, eps)
        theory = float(_exact_theory(model, q, eps, strategy))
        assert all(r.theory == pytest.approx(theory, rel=1e-12) for r in reports), point
        _check_binomial((point, "failures"), [r.failures for r in reports], trials, theory)
        _check_binomial((point, "words"), [r.word_trials for r in reports], trials, 0.5)
        for k in range(q):
            counts = [r.station_r_counts[k] for r in reports]
            _check_binomial((point, "station", k), counts, trials, 0.5)
        misses = sum(not r.ci_low <= theory <= r.ci_high for r in reports)
        assert misses <= stats.binom.ppf(1 - TAIL, SEEDS, 0.01), (point, misses)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
