"""Seeded Monte Carlo trials for the quantum and hidden-variable models.

Each trial draws a configuration uniformly (every station independently
chooses l or r), obtains the total result from the selected model, and
counts a failure when a word's total result differs from its eigenvalue.
Strings never fail.

A trial's failure depends only on its class: its r count mod 4, which gives
the word flag and the eigenvalue, and the parity of its r choices inside
the strategy's t_mask, which gives the hidden-variable prediction. So a run
draws no trial: it follows how many of its trials sit in each of the 8
classes through the q stations. At each station a Bin(n_c, 1/2) share of
class c picks r and moves on to the class one r further (a fixed
permutation of the classes); after the last station a Bin(n_c, 2 p_qm)
share of each class has odd error parity. These draws, one scalar binomial
per non-empty class at each station and once more at the end, give a run's
failures, word trials and station r counts exactly in law, at a cost that
does not depend on the trial count. Their order is random stream version
STREAM_VERSION (see `_class_chain`); its seed map is `_stream`'s.

Every run draws from a numpy Generator, so the module imports numpy when
it is imported; the commands that run no trials never import this module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist
from typing import Any, NamedTuple, Optional, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .configs import MAX_STATIONS, _check_int, _check_int_q, _real, _shown
from .errors import DomainError
from .quantum import NoiseModel, failure_probability_closed, parity_attenuation
from .quantum import sample_result_bits  # noqa: F401  (re-exported: callers look it up here)
from .strategies import CanonicalStrategy, bad_word_count_analytic, minimize_bad_words

#: Version of the seed -> draws contract: bumped whenever the draw order or
#: the streams change, so every such change is deliberate.
STREAM_VERSION = 5

#: Largest trial count a run accepts. Generator.binomial takes an int64
#: count and draws from any count in about the same time, so a run's cost
#: does not grow with its trials; 2^62 keeps every count and sum a factor 2
#: inside int64.
MAX_TRIALS = 1 << 62


class QuantumModel(NamedTuple):
    """Entangled-state model with independent per-station errors."""

    noise: NoiseModel = NoiseModel(0.0)


class LhvModel(NamedTuple):
    """Deterministic per-station answer table, optionally read out with errors.

    ``strategy=None`` selects the canonical optimum for the experiment's q.
    """

    strategy: Optional[CanonicalStrategy] = None
    noise: NoiseModel = NoiseModel(0.0)


Model = Union[QuantumModel, LhvModel]


class ExperimentConfig(
    NamedTuple(
        "ExperimentConfig",
        [("q", int), ("model", Model), ("trials", int), ("master_seed", int), ("ci_level", float)],
    )
):
    """Everything needed to reproduce a run: sizes, model, and master seed."""

    __slots__ = ()

    def __new__(
        cls, q: int, model: Model, trials: int, master_seed: int, ci_level: float = 0.95
    ) -> ExperimentConfig:
        # The 64-station cap serves only `oracles.iter_trials`, which packs each
        # trial's configuration into one uint64; ROADMAP item 7 lifts it for runs.
        q = _check_int_q(q, MAX_STATIONS)
        trials = _check_int(trials, "trial count", 1, MAX_TRIALS)
        master_seed = _check_int(master_seed, "master seed", 0, (1 << 64) - 1)
        if not 0.0 < _real(ci_level) < 1.0:
            raise DomainError(f"interval level must lie in (0, 1), got {_shown(ci_level)}")
        if isinstance(model, LhvModel) and model.strategy is not None and model.strategy.q != q:
            raise DomainError(f"strategy is for q={model.strategy.q}, experiment has q={q}")
        return super().__new__(cls, q, model, trials, master_seed, ci_level)


class ExperimentReport(NamedTuple):
    """Tallies of a run plus the matching theoretical failure probability.

    ``strategy`` is the answer table the hidden-variable model played (the
    canonical optimum unless the model fixed one); None for the quantum
    model.
    """

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
    strategy: Optional[CanonicalStrategy]


def stream_environment() -> dict[str, Any]:
    """How the draws of a run are produced."""
    return {
        "rng": "PCG64DXSM",
        "stream_version": STREAM_VERSION,
        "sampler": "class-chain",
    }


def _resolve_strategy(cfg: ExperimentConfig) -> Optional[CanonicalStrategy]:
    if not isinstance(cfg.model, LhvModel):
        return None
    if cfg.model.strategy is not None:
        return cfg.model.strategy
    return minimize_bad_words(cfg.q).strategy


#: A trial's class is (r count mod 4) | tpar << 2, where tpar is the parity
#: of its r choices inside the strategy's t_mask. _NEXT[b][c] is the class
#: a trial of class c moves to when it picks r at a station whose t_mask
#: bit is b.
_NEXT = ([1, 2, 3, 0, 5, 6, 7, 4], [5, 6, 7, 4, 1, 2, 3, 0])


class _Chain(NamedTuple):
    """Class counts of one run, as Python ints."""

    picks: list[list[int]]  # q lists of 8: trials of each class that pick r at station k
    counts: list[int]  # 8: trials of each class after the last station
    odd: list[int]  # 8: of those, the trials with odd error parity


_M64 = (1 << 64) - 1


class _SeedWords(ISeedSequence):
    """Four fixed 64-bit words, handed to a bit generator as its seed.

    numpy seeds a bit generator from any ISeedSequence by asking it for
    words. This one serves only PCG64DXSM's request, generate_state(4,
    np.uint64), whose words 0-1 become the initial state and 2-3 the
    stream selector; any other request raises ValueError. It is built anew
    for each stream and keeps nothing the generator could share.
    """

    def __init__(self, words: list[int]) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"serves 4 uint64 words, asked for {n_words} of {dtype}")
        return np.array(self.words, dtype=np.uint64)


def _stream(master_seed: int, key: int) -> np.random.Generator:
    """The run's stream ``key``: 0 draws the class chain, 1 `iter_trials`' replay.

    Seed map of random stream version 5: the first four outputs of
    SplitMix64 started at ``master_seed`` (x += 0x9E3779B97F4A7C15, then the
    finalizer z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9,
    z = (z ^ z >> 27) * 0x94D049BB133111EB, z ^ z >> 31, all mod 2^64), with
    ``key`` XORed into the fourth, seed a PCG64DXSM (`_SeedWords`). The
    finalizer is a bijection, so different seeds start from different
    states, and the key sits in the stream selector, so the two streams of
    one seed differ. Each call builds its own generator: no two runs, nor a
    run and a lazy replay, share a bit generator.
    """
    x, words = master_seed, []
    for _ in range(4):
        x = (x + 0x9E3779B97F4A7C15) & _M64
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        words.append(z ^ (z >> 31))
    words[3] ^= key
    return np.random.Generator(np.random.PCG64DXSM(_SeedWords(words)))


def _class_chain(cfg: ExperimentConfig, t_mask: int) -> _Chain:
    """Draw how a run's trials spread over the 8 classes.

    Draw order of random stream version 5, from stream 0, starting with
    every trial in class 0:

    1. For each station k = 0 .. q-1 and each class c = 0 .. 7 in turn:
       picked[c] = binomial(counts[c], 1/2). Those trials pick r and move
       from class c to _NEXT[t_mask >> k & 1][c].
    2. For each class c in turn: odd[c] = binomial(counts[c], 2 * p) with
       p = failure_probability_closed(q, noise), the trials of the class
       whose q independent flips are odd in number.

    A count of 0, or p = 0 (no errors), returns 0 without touching the bit
    generator, so empty classes are skipped. Each draw is one scalar call:
    the array form makes the same draws in the same order, at ~12x the
    call overhead. The counts live in locals and _NEXT is spelled out as
    one assignment per t_mask bit, so a station costs little more than its
    draws.
    """
    binomial = _stream(cfg.master_seed, 0).binomial
    picks: list[list[int]] = []
    append = picks.append
    # Classes 4-7 (odd tpar) stay empty until the station of t_mask's lowest
    # set bit, so the stations before it (all of a quantum run) draw 4 classes.
    split = (t_mask & -t_mask).bit_length() - 1 if t_mask else cfg.q
    c0, c1, c2, c3 = cfg.trials, 0, 0, 0
    for _ in range(split):
        m0 = binomial(c0, 0.5) if c0 else 0
        m1 = binomial(c1, 0.5) if c1 else 0
        m2 = binomial(c2, 0.5) if c2 else 0
        m3 = binomial(c3, 0.5) if c3 else 0
        append([m0, m1, m2, m3, 0, 0, 0, 0])
        c0, c1, c2, c3 = c0 - m0 + m3, c1 - m1 + m0, c2 - m2 + m1, c3 - m3 + m2
    c4 = c5 = c6 = c7 = 0
    for k in range(split, cfg.q):
        m0 = binomial(c0, 0.5) if c0 else 0
        m1 = binomial(c1, 0.5) if c1 else 0
        m2 = binomial(c2, 0.5) if c2 else 0
        m3 = binomial(c3, 0.5) if c3 else 0
        m4 = binomial(c4, 0.5) if c4 else 0
        m5 = binomial(c5, 0.5) if c5 else 0
        m6 = binomial(c6, 0.5) if c6 else 0
        m7 = binomial(c7, 0.5) if c7 else 0
        append([m0, m1, m2, m3, m4, m5, m6, m7])
        if t_mask >> k & 1:  # _NEXT[1]: 0->5, 1->6, 2->7, 3->4, 4->1, 5->2, 6->3, 7->0
            c0, c1, c2, c3, c4, c5, c6, c7 = (
                c0 - m0 + m7, c1 - m1 + m4, c2 - m2 + m5, c3 - m3 + m6,
                c4 - m4 + m3, c5 - m5 + m0, c6 - m6 + m1, c7 - m7 + m2,
            )
        else:  # _NEXT[0]: 0->1, 1->2, 2->3, 3->0, 4->5, 5->6, 6->7, 7->4
            c0, c1, c2, c3, c4, c5, c6, c7 = (
                c0 - m0 + m3, c1 - m1 + m0, c2 - m2 + m1, c3 - m3 + m2,
                c4 - m4 + m7, c5 - m5 + m4, c6 - m6 + m5, c7 - m7 + m6,
            )
    counts = [c0, c1, c2, c3, c4, c5, c6, c7]
    p = 2.0 * failure_probability_closed(cfg.q, cfg.model.noise)
    return _Chain(picks, counts, [binomial(n, p) if n else 0 for n in counts])


def _class_rule(strategy: Optional[CanonicalStrategy]) -> tuple[list[int], list[int]]:
    """Per class c: the predicted total as a bit (1 for -1), and the error
    parity at which a trial of the class fails (-1 for never: a string).

    Both models share one rule: the observed total is the predicted total
    inverted by odd error parity, and a word (odd r count) fails when that
    misses its eigenvalue bit c >> 1 & 1. The quantum model predicts the
    eigenvalue itself, so its words fail exactly on odd parity; the
    hidden-variable model predicts a_bit ^ tpar.
    """
    predicted, failing = [], []
    for c in range(8):
        eigen = c >> 1 & 1
        bit = eigen if strategy is None else c >> 2 ^ (strategy.a_sign != +1)
        predicted.append(bit)
        failing.append(1 ^ bit ^ eigen if c & 1 else -1)
    return predicted, failing


#: _class_rule's failing table by the played strategy's a_sign (None for the
#: quantum model), the only part of a strategy the rule reads.
_FAILING = {
    sign: _class_rule(None if sign is None else CanonicalStrategy(1, sign, 0))[1]
    for sign in (None, +1, -1)
}


def _theory_value(cfg: ExperimentConfig, strategy: Optional[CanonicalStrategy]) -> float:
    """Expected failure rate for the configured model.

    The model misses its bad words outright and an error pattern of odd
    parity inverts any total, giving p_qm + (1 - 2*eps)^q * bad/2^q: the
    closed-form odd-error probability plus the bad-word share, attenuated
    as errors grow. The quantum model has no bad words.
    """
    bad = 0
    if strategy is not None:
        bad = bad_word_count_analytic(cfg.q, strategy.a_sign, strategy.t_mask.bit_count())
    noise = cfg.model.noise
    return failure_probability_closed(cfg.q, noise) + parity_attenuation(cfg.q, noise) * (
        bad / 2.0**cfg.q
    )


def run_experiment(cfg: ExperimentConfig, workers: Optional[int] = None) -> ExperimentReport:
    """Run all trials and return the aggregate report.

    The tallies come from the run's class chain (_class_chain), each class's
    failures from the one per-class rule (_class_rule, tabled once per
    a_sign in _FAILING). ``workers`` is accepted for existing callers and
    ignored: it is neither read nor checked, and the report never depended
    on it.
    """
    strategy = _resolve_strategy(cfg)
    t_mask, sign = (0, None) if strategy is None else (strategy.t_mask, strategy.a_sign)
    picks, counts, odd = _class_chain(cfg, t_mask)
    failing = _FAILING[sign]
    word_trials = sum(counts[1::2])
    failures = sum(odd[c] if failing[c] else counts[c] - odd[c] for c in range(1, 8, 2))
    low, high = wilson_interval(failures, cfg.trials, cfg.ci_level)
    return ExperimentReport(
        config=cfg,
        trials=cfg.trials,
        word_trials=word_trials,
        string_trials=cfg.trials - word_trials,
        failures=failures,
        failure_rate=failures / cfg.trials,
        ci_low=low,
        ci_high=high,
        theory=_theory_value(cfg, strategy),
        station_r_counts=tuple(map(sum, picks)),
        strategy=strategy,
    )


@lru_cache(maxsize=64, typed=True)
def _z_score(level: float) -> float:
    """The two-sided normal quantile of ``level``, taken once per level.

    Typed, so a level of another numeric type with an equal value (whose
    arithmetic may round differently) gets its own entry.
    """
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def wilson_interval(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the plain normal interval for stability at small counts
    and proportions near 0 or 1.
    """
    trials = _check_int(trials, "trial count", 1, MAX_TRIALS)
    successes = _check_int(successes, "successes", 0, trials)
    if not 0.0 < _real(level) < 1.0:
        raise DomainError(f"interval level must lie in (0, 1), got {_shown(level)}")
    z = _z_score(level)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # at the boundary counts one endpoint is exactly p-hat; pin it against
    # the rounding of sqrt(z^2/(4n^2)) vs z^2/(2n)
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high
