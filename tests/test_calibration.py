"""Calibration of the Monte Carlo engine over many seeds.

Acceptance tests 6 and 7 check one fixed seed per (q, eps) point, so a
correct sampler misses one of their 17 Wilson 99% intervals with
probability ~16 % whenever the draws change. This test checks the same 17
points over K seeds each, at levels fixed here before any draw is seen:

- Failures: under the failure rule, trials are independent, so a run's
  failures are Bin(n, theory) for both models; words and every station's
  r count are Bin(n, 1/2). For each of these tallies, summed over the K
  seeds, |z| < 5 (two-sided false alarm 5.7e-7), and the sum of the K
  squared per-seed z scores lies inside the central 1 - 1e-6 of chi^2(K),
  which catches a wrong spread as well as a wrong mean.
- Per-seed Wilson 99% misses of the theory: at most the 1 - 1e-6 quantile
  of Bin(K, 0.01), 7 of 64 (false alarm 2.7e-7).
- The reported theory equals an independent exact value to 1e-12
  relative, and the z scores use that value.

With ~140 tallies the whole test raises a false alarm about once in 4000
runs. Every point has K = 64 seeds of 2^16 trials, except qm q = 10,
eps = 0.1 with 3 * 2^20 trials a seed: an odd-error threshold 0.1 % too
high moves the failure rate there by 2.2e-4, 1.1 standard errors of
64 x 2^16 trials but 7.6 of 64 x 3 * 2^20, and no point with fewer trials
resolves it.
"""

import math
import time
from fractions import Fraction

import pytest
from scipy import stats

from ghzgap.experiment import ExperimentConfig, LhvModel, QuantumModel, run_experiment
from ghzgap.oracles import failure_probability_exact
from ghzgap.quantum import NoiseModel
from ghzgap.strategies import minimize_bad_words

SEEDS = 64
TRIALS = 1 << 16
Z_LIMIT = 5.0
TAIL = 1e-6

#: (model, q, eps, trials per seed): the points of acceptance tests 6 and 7.
POINTS = [
    *(
        ("qm", q, eps, 3 << 20 if (q, eps) == (10, 0.1) else TRIALS)
        for q in (3, 5, 10)
        for eps in (0.0, 0.01, 0.1)
    ),
    *(("lhv", q, 0.0, TRIALS) for q in range(3, 11)),
]


def _exact_theory(model, q, eps):
    if model == "qm":
        return failure_probability_exact(q, Fraction(eps))
    return minimize_bad_words(q).probability


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
    for index, (model, q, eps, trials) in enumerate(POINTS):
        noise = NoiseModel(eps)
        chosen = QuantumModel(noise) if model == "qm" else LhvModel(noise=noise)
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
        theory = float(_exact_theory(model, q, eps))
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
