"""Seeded Monte Carlo trials for the quantum and hidden-variable models.

Each trial draws a configuration uniformly (every station independently
chooses l or r), obtains the q results from the selected model, and counts a
failure when a word's total result differs from its eigenvalue. Strings never
fail. Trials are processed in fixed-size chunks, each with its own
counter-based random stream derived from the master seed and the chunk
index, so tallies are bit-for-bit reproducible regardless of how many
workers process the chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist
from typing import Iterator, Optional, Union

import numpy as np

from .configs import Configuration, ConfigurationClass, classify
from .errors import DomainError
from .quantum import (
    NoiseModel,
    OutcomeTuple,
    failure_probability_closed,
    parity_attenuation,
    sample_result_bits,
)
from .strategies import (
    CanonicalStrategy,
    bad_word_count_analytic,
    minimize_bad_words,
)

#: Trials per random-stream chunk. Fixed: changing it would change the draws.
CHUNK_TRIALS = 1 << 16

#: min_trials_to_disprove settles its answer with exact rational powers up to
#: this many trials (at most ~10 ms). An exact boundary (1 - p)^N = 1 - c
#: between binary floats needs N <= 1074, so beyond the limit the float
#: logs decide alone.
_EXACT_SETTLE_LIMIT = 1 << 12

#: Environment variable selecting the worker count (results never depend on it).
WORKERS_ENV_VAR = "GHZGAP_WORKERS"


@dataclass(frozen=True)
class QuantumModel:
    """Entangled-state model with independent per-station errors."""

    noise: NoiseModel = NoiseModel(0.0)
    kind: str = field(default="qm", init=False)


@dataclass(frozen=True)
class LhvModel:
    """Deterministic per-station answer table, optionally read out with errors.

    ``strategy=None`` selects the canonical optimum for the experiment's q.
    """

    strategy: Optional[CanonicalStrategy] = None
    noise: NoiseModel = NoiseModel(0.0)
    kind: str = field(default="lhv", init=False)


Model = Union[QuantumModel, LhvModel]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a run: sizes, model, and master seed."""

    q: int
    model: Model
    trials: int
    master_seed: int
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if not 1 <= self.q <= 64:
            raise DomainError(f"station count must lie in [1, 64], got {self.q}")
        if self.trials < 1:
            raise DomainError(f"trial count must be at least 1, got {self.trials}")
        if not 0 <= self.master_seed < (1 << 64):
            raise DomainError("master seed must be a 64-bit nonnegative integer")
        if not 0.0 < self.ci_level < 1.0:
            raise DomainError(f"interval level must lie in (0, 1), got {self.ci_level}")
        if isinstance(self.model, LhvModel) and self.model.strategy is not None:
            if self.model.strategy.q != self.q:
                raise DomainError(
                    f"strategy is for q={self.model.strategy.q}, experiment has q={self.q}"
                )


@dataclass(frozen=True)
class TrialRecord:
    """One trial, for inspection; aggregate runs only keep the tallies."""

    index: int
    configuration: Configuration
    config_class: ConfigurationClass
    outcome: Union[OutcomeTuple, int]
    failure: bool


@dataclass(frozen=True)
class ExperimentReport:
    """Tallies of a run plus the matching theoretical failure probability."""

    config: ExperimentConfig
    trials: int
    word_trials: int
    string_trials: int
    failures: int
    failure_rate: float
    ci_low: float
    ci_high: float
    theory: float
    station_r_counts: tuple[int, ...]


def _resolve_strategy(cfg: ExperimentConfig) -> Optional[CanonicalStrategy]:
    if not isinstance(cfg.model, LhvModel):
        return None
    if cfg.model.strategy is not None:
        return cfg.model.strategy
    return minimize_bad_words(cfg.q).strategy


def _chunk_rng(master_seed: int, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seq))


def _chunk_arrays(
    cfg: ExperimentConfig, strategy: Optional[CanonicalStrategy], chunk_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw one chunk. Returns (config_bits, is_word, failure, outcome_data).

    ``outcome_data`` is the (n, q) sign matrix for the quantum model and the
    (n,) observed-total sign vector for the hidden-variable model. The draw
    order within a chunk is fixed: configuration bits, then result bits
    (quantum only), then error flips.
    """
    q = cfg.q
    start = chunk_index * CHUNK_TRIALS
    n = min(CHUNK_TRIALS, cfg.trials - start)
    rng = _chunk_rng(cfg.master_seed, chunk_index)

    config_bits = rng.integers(0, 2, size=(n, q), dtype=np.uint8)
    r = config_bits.sum(axis=1, dtype=np.int64)
    is_word = (r & 1).astype(bool)
    eigen_bits = (((r - 1) >> 1) & 1).astype(np.uint8)

    if isinstance(cfg.model, QuantumModel):
        result_bits = sample_result_bits(config_bits, cfg.model.noise, rng)
        total_parity = (result_bits.sum(axis=1, dtype=np.int64) & 1).astype(np.uint8)
        failure = is_word & (total_parity != eigen_bits)
        signs = (1 - 2 * result_bits.astype(np.int8)).astype(np.int8)
        return config_bits, is_word, failure, signs

    assert strategy is not None
    t_row = np.array([strategy.t_mask >> k & 1 for k in range(q)], dtype=np.uint8)
    a_bit = 0 if strategy.a_sign == +1 else 1
    pred_parity = (
        a_bit ^ ((config_bits & t_row).sum(axis=1, dtype=np.int64) & 1)
    ).astype(np.uint8)
    eps = cfg.model.noise.epsilon
    if eps > 0.0:
        flips = (rng.random(size=(n, q)) < eps).astype(np.uint8)
        obs_parity = pred_parity ^ (flips.sum(axis=1, dtype=np.int64) & 1).astype(
            np.uint8
        )
    else:
        obs_parity = pred_parity
    failure = is_word & (obs_parity != eigen_bits)
    totals = (1 - 2 * obs_parity.astype(np.int8)).astype(np.int8)
    return config_bits, is_word, failure, totals


def _theory_value(cfg: ExperimentConfig, strategy: Optional[CanonicalStrategy]) -> float:
    """Expected failure rate for the configured model.

    Quantum: the closed-form odd-error probability. Hidden-variable: the
    strategy misses its bad words outright and an error pattern of odd
    parity inverts any total, giving
    bad/2^q attenuated toward the quantum value as errors grow.
    """
    if isinstance(cfg.model, QuantumModel):
        return failure_probability_closed(cfg.q, cfg.model.noise)
    assert strategy is not None
    bad = bad_word_count_analytic(cfg.q, strategy.a_sign, strategy.t_mask.bit_count())
    base = bad / 2.0**cfg.q
    noise = cfg.model.noise
    if noise.epsilon == 0.0:
        return base
    return failure_probability_closed(cfg.q, noise) + parity_attenuation(cfg.q, noise) * base


def _worker_count(workers: Optional[int]) -> int:
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError as exc:
            raise DomainError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise DomainError(f"worker count must be at least 1, got {workers}")
    return workers


def run_experiment(cfg: ExperimentConfig, workers: Optional[int] = None) -> ExperimentReport:
    """Run all trials and return the aggregate report.

    ``workers`` (default: the GHZGAP_WORKERS environment variable, else 1)
    only sets how many threads process the chunks; every tally is a pure sum
    over chunks, so the report is identical for any worker count.
    """
    strategy = _resolve_strategy(cfg)
    n_chunks = (cfg.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS

    def tally(chunk_index: int) -> tuple[int, int, np.ndarray]:
        config_bits, is_word, failure, _ = _chunk_arrays(cfg, strategy, chunk_index)
        return (
            int(is_word.sum()),
            int(failure.sum()),
            config_bits.sum(axis=0, dtype=np.int64),
        )

    count = _worker_count(workers)
    if count == 1:
        parts = [tally(i) for i in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=count) as pool:
            parts = list(pool.map(tally, range(n_chunks)))

    word_trials = sum(p[0] for p in parts)
    failures = sum(p[1] for p in parts)
    station_r = np.sum([p[2] for p in parts], axis=0)
    rate = failures / cfg.trials
    low, high = wilson_interval(failures, cfg.trials, cfg.ci_level)
    return ExperimentReport(
        config=cfg,
        trials=cfg.trials,
        word_trials=word_trials,
        string_trials=cfg.trials - word_trials,
        failures=failures,
        failure_rate=rate,
        ci_low=low,
        ci_high=high,
        theory=_theory_value(cfg, strategy),
        station_r_counts=tuple(int(c) for c in station_r),
    )


def iter_trials(cfg: ExperimentConfig) -> Iterator[TrialRecord]:
    """Replay the run trial by trial, yielding exactly the draws a report sums.

    Intended for inspection at small trial counts; tallies of the yielded
    records match run_experiment for the same configuration bit for bit.
    """
    strategy = _resolve_strategy(cfg)
    n_chunks = (cfg.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    index = 0
    for chunk_index in range(n_chunks):
        config_bits, _, failure, outcome_data = _chunk_arrays(
            cfg, strategy, chunk_index
        )
        weights = 1 << np.arange(cfg.q, dtype=np.int64)
        masks = (config_bits.astype(np.int64) * weights).sum(axis=1)
        for i in range(config_bits.shape[0]):
            configuration = Configuration(q=cfg.q, r_mask=int(masks[i]))
            if isinstance(cfg.model, QuantumModel):
                outcome: Union[OutcomeTuple, int] = OutcomeTuple(
                    results=tuple(int(s) for s in outcome_data[i])
                )
            else:
                outcome = int(outcome_data[i])
            yield TrialRecord(
                index=index,
                configuration=configuration,
                config_class=classify(configuration),
                outcome=outcome,
                failure=bool(failure[i]),
            )
            index += 1


def wilson_interval(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the plain normal interval for stability at small counts
    and proportions near 0 or 1.
    """
    if trials < 1:
        raise DomainError(f"trial count must be at least 1, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < level < 1.0:
        raise DomainError(f"interval level must lie in (0, 1), got {level}")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # at the boundary counts one endpoint is exactly p-hat; pin it against
    # the rounding of sqrt(z^2/(4n^2)) vs z^2/(2n)
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def min_trials_to_disprove(p_failure: float, confidence: float) -> int:
    """Smallest N with (1 - p_failure)^N ≤ 1 - confidence.

    The count of independent trials needed before at least one failure has
    been seen with the requested confidence, assuming each trial fails with
    probability p_failure.
    """
    if not 0.0 < p_failure <= 1.0:
        raise DomainError(
            f"failure probability must lie in (0, 1] for a finite answer, got {p_failure}"
        )
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    if p_failure == 1.0:
        return 1
    # Both logs through log1p, so p_failure far below the float spacing at 1
    # still counts; the quotient is taken exactly, so it cannot overflow.
    ratio = Fraction(math.log1p(-confidence)) / Fraction(math.log1p(-p_failure))
    n = max(1, math.ceil(ratio))
    # Float rounding can land the ceiling one step off an exact boundary;
    # settle it in exact rationals.
    if n <= _EXACT_SETTLE_LIMIT:
        miss = 1 - Fraction(p_failure)
        target = 1 - Fraction(confidence)
        while n > 1 and miss ** (n - 1) <= target:
            n -= 1
        while miss**n > target:
            n += 1
    return n


def trials_to_distinguish(p1: float, p2: float, alpha: float, power: float) -> int:
    """Two-proportion sample size: trials per arm to tell p1 from p2.

    Standard normal-approximation formula
    N = ((z_{1-alpha}·sqrt(2·pbar·(1-pbar)) + z_{power}·sqrt(p1(1-p1)+p2(1-p2)))
        / (p1 - p2))^2, pbar = (p1+p2)/2, rounded up.
    """
    if not 0.0 <= p2 < p1 < 1.0:
        raise DomainError(
            f"need 0 <= p2 < p1 < 1 for a finite answer, got p1={p1}, p2={p2}"
        )
    if not 0.0 < alpha < 1.0 or not 0.0 < power < 1.0:
        raise DomainError("alpha and power must lie in (0, 1)")
    z_alpha = NormalDist().inv_cdf(1.0 - alpha)
    z_power = NormalDist().inv_cdf(power)
    pbar = (p1 + p2) / 2.0
    numerator = z_alpha * math.sqrt(2.0 * pbar * (1.0 - pbar)) + z_power * math.sqrt(
        p1 * (1.0 - p1) + p2 * (1.0 - p2)
    )
    return math.ceil((numerator / (p1 - p2)) ** 2)
