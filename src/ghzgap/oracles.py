"""Independent cross-checks of the closed forms and the class chain.

Each name here recomputes by another route what the library states in
closed form, or holds what such a check walks: the quantum failure
probability as the odd-error binomial sum and in exact rationals; outcome
draws and records (`OutcomeTuple`) for one configuration; the word/string
taxonomy and the sampling law from a 2^q state vector (small q only); the
4^q raw answer tables (`DeterministicStrategy`), their reduction
(`canonicalize`), a class's Mermin sum, and the classical optimum by brute
force over the raw tables; and the trial-by-trial replay of a run.

`iter_trials` replays the 4-class chain of `experiment` trial by trial: a
second stream picks which trials of each class pick r at each station and
which have odd error parity, each a uniform subset, so its records tally to
the report. A record's predicted total comes from its own configuration.

No module of the package imports this one. The package's lazy names reach
it, and of the commands only ``lhv optimize --verify-brute-force`` does.
It imports numpy when it is imported, and the Monte Carlo layer only when
`iter_trials` runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .configs import EXACT_POWER_BITS, MAX_STATIONS, Configuration, ConfigurationClass, Word
from .configs import classify, enumerate_configurations, word_count
from .configs import _check_int, _check_int_q, _check_sign, _shown
from .errors import CapacityError, DomainError
from .quantum import NoiseModel, _sample_from_r_counts, sample_parity_tuples
from .strategies import BadWordReport, CanonicalStrategy, bad_word_count_analytic

if TYPE_CHECKING:
    from .experiment import ExperimentConfig

#: failure_probability_sum adds q/2 terms: ~0.4 s at this q.
SUM_LIMIT = 10**6

#: sample_outcome_batch draws at most this many rows (64 MB of bits at q = 64).
SAMPLE_LIMIT = 1 << 20

#: State-vector construction stays affordable up to this q.
ORACLE_LIMIT = 8

#: Raw strategy spaces up to this q (4^q entries) stay brute-forceable.
BRUTE_FORCE_LIMIT = 8

#: Largest run iter_trials replays: the replay holds arrays of one entry per
#: trial, and q result bits per trial for the quantum model (64 MB at q = 64).
REPLAY_LIMIT = 1 << 20


def failure_probability_sum(q: int, noise: NoiseModel) -> float:
    """Failure probability as the explicit odd-error binomial sum.

    Half the configurations are words; on those, a failure occurs exactly
    when an odd number of stations err, hence the 1/2 prefactor and the sum
    over odd error counts j. Each term is taken in the log domain (lgamma),
    so neither comb(q, j) nor the powers leave the float range.
    """
    q = _check_int_q(q, SUM_LIMIT)
    eps = noise.epsilon
    if eps == 0.0:
        return 0.0
    log_eps, log_keep, log_qf = math.log(eps), math.log1p(-eps), math.lgamma(q + 1)
    terms = (
        log_qf - math.lgamma(j + 1) - math.lgamma(q - j + 1) + j * log_eps + (q - j) * log_keep
        for j in range(1, q + 1, 2)
    )
    return 0.5 * math.fsum(map(math.exp, terms))


def failure_probability_exact(q: int, epsilon: Fraction) -> Fraction:
    """Closed form 1/4 - (1/4)(1 - 2 eps)^q in exact rational arithmetic.

    A float eps counts as the exact rational it stores. The power's
    denominator has q times the bits of eps's, which EXACT_POWER_BITS caps.
    """
    if not 0 <= epsilon <= Fraction(1, 2):
        raise DomainError(f"error probability must lie in [0, 1/2], got {_shown(epsilon)}")
    epsilon = Fraction(epsilon)
    q = _check_int_q(q, EXACT_POWER_BITS // epsilon.denominator.bit_length())
    return Fraction(1, 4) - Fraction(1, 4) * (1 - 2 * epsilon) ** q


class OutcomeTuple(NamedTuple("OutcomeTuple", [("results", tuple[int, ...])])):
    """The q per-station results of one observation, each +1 or -1."""

    __slots__ = ()

    def __new__(cls, results: tuple[int, ...]) -> OutcomeTuple:
        if not results:
            raise DomainError("an outcome needs at least one station result")
        results = tuple(_check_sign(s, f"station {k + 1}'s result") for k, s in enumerate(results))
        return super().__new__(cls, results)

    @property
    def q(self) -> int:
        return len(self.results)

    @property
    def total(self) -> int:
        """Product of the per-station results."""
        return math.prod(self.results)


def sample_outcome_batch(
    config: Configuration, noise: NoiseModel, rng: np.random.Generator, size: int
) -> np.ndarray:
    """`size` independent draws for one configuration, as a (size, q) sign matrix."""
    n = _check_int(size, "sample size", 1, SAMPLE_LIMIT, CapacityError)
    r = np.full(n, config.r_count, dtype=np.int64)
    bits = _sample_from_r_counts(r, config.q, noise, rng)
    return 1 - 2 * bits.astype(np.int8)


class OracleEntry(NamedTuple):
    """Oracle result for a single configuration."""

    configuration: Configuration
    kind: str
    eigenvalue: int | None
    expectation: float
    expectation_error: float
    law_error: float


class OracleReport(NamedTuple):
    """State-vector verification of every configuration at one q."""

    q: int
    entries: tuple[OracleEntry, ...]
    max_expectation_error: float
    max_law_error: float


def entangled_state(q: int) -> np.ndarray:
    """Amplitude tensor of the q-station entangled state, shape (2,)*q."""
    q = _check_int_q(q, ORACLE_LIMIT)
    psi = np.zeros((2,) * q, dtype=complex)
    psi[(0,) * q] = 1.0 / math.sqrt(2.0)
    psi[(1,) * q] = 1.0j / math.sqrt(2.0)
    return psi


def _apply_per_station(state: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    out = state
    for axis, mat in enumerate(mats):
        out = np.moveaxis(np.tensordot(mat, out, axes=(1, axis)), 0, axis)
    return out


def product_observable_expectation(config: Configuration) -> float:
    """Exact expectation of the product observable on the entangled state."""
    sigma_l = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma_r = np.array([[0, -1j], [1j, 0]], dtype=complex)
    psi = entangled_state(config.q)
    mats = [sigma_r if config.r_mask >> k & 1 else sigma_l for k in range(config.q)]
    value = np.vdot(psi, _apply_per_station(psi, mats))
    if abs(value.imag) > 1e-12:
        raise AssertionError(f"expectation unexpectedly complex: {value}")
    return float(value.real)


def joint_outcome_probabilities(config: Configuration) -> np.ndarray:
    """Exact joint law of the q results, shape (2,)*q.

    Axis k is station k+1; index 0 along an axis is the +1 outcome. Computed
    by rotating the state into the per-station measurement eigenbases.
    """
    # Rows are the measurement-basis bras for outcome +1 and -1.
    basis_l = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    basis_r = np.array([[1, -1j], [1, 1j]], dtype=complex) / math.sqrt(2)
    psi = entangled_state(config.q)
    mats = [basis_r if config.r_mask >> k & 1 else basis_l for k in range(config.q)]
    amplitudes = _apply_per_station(psi, mats)
    return np.abs(amplitudes) ** 2


def _parity_law(config: Configuration) -> np.ndarray:
    """The sampling law the analytic sampler implements, shape (2,)*q."""
    q = config.q
    cls = classify(config)
    index_parity = np.zeros((2,) * q, dtype=np.uint8)
    for axis in range(q):
        shape = [1] * q
        shape[axis] = 2
        index_parity ^= np.arange(2, dtype=np.uint8).reshape(shape)
    if isinstance(cls, Word):
        eigen_bit = 0 if cls.eigenvalue == +1 else 1
        return np.where(index_parity == eigen_bit, 2.0 ** (1 - q), 0.0)
    return np.full((2,) * q, 2.0**-q)


def statevector_oracle(q: int) -> OracleReport:
    """Check every configuration of q stations against the state vector.

    For each configuration the oracle compares (a) the product-observable
    expectation with the word eigenvalue (or 0 for strings) and (b) the
    exact joint outcome law with the parity law used by the sampler.
    """
    q = _check_int_q(q, ORACLE_LIMIT)
    entries = []
    for config in enumerate_configurations(q):
        cls = classify(config)
        eigenvalue = cls.eigenvalue if isinstance(cls, Word) else None
        expectation = product_observable_expectation(config)
        law_error = float(
            np.max(np.abs(joint_outcome_probabilities(config) - _parity_law(config)))
        )
        entries.append(
            OracleEntry(
                configuration=config,
                kind=cls.kind,
                eigenvalue=eigenvalue,
                expectation=expectation,
                expectation_error=abs(expectation - (eigenvalue or 0)),
                law_error=law_error,
            )
        )
    return OracleReport(
        q=q,
        entries=tuple(entries),
        max_expectation_error=max(e.expectation_error for e in entries),
        max_law_error=max(e.law_error for e in entries),
    )


class DeterministicStrategy(
    NamedTuple("DeterministicStrategy", [("q", int), ("answers", tuple[tuple[int, int], ...])])
):
    """Per-station answer table: ``answers[k] = (a, b)`` for settings l and r."""

    __slots__ = ()

    def __new__(cls, q: int, answers: tuple[tuple[int, int], ...]) -> DeterministicStrategy:
        q = _check_int_q(q, MAX_STATIONS)
        if not (isinstance(answers, (tuple, list)) and len(answers) == q):
            raise DomainError(f"answers must be a tuple or list of {q} answer pairs")
        pairs = []
        for k, pair in enumerate(answers):
            name = f"station {k + 1}'s answer"
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise DomainError(f"{name}s must be a pair (a, b) of +1 or -1")
            pairs.append((_check_sign(pair[0], name), _check_sign(pair[1], name)))
        return super().__new__(cls, q, tuple(pairs))

    @classmethod
    def from_masks(cls, q: int, a_mask: int, b_mask: int) -> "DeterministicStrategy":
        """Build from sign bit masks in [0, 2^q) (bit k set: station k+1 answers -1)."""
        q = _check_int_q(q, MAX_STATIONS)
        a_mask = _check_int(a_mask, "a_mask", 0, (1 << q) - 1)
        b_mask = _check_int(b_mask, "b_mask", 0, (1 << q) - 1)
        signs = [(1 - 2 * (a_mask >> k & 1), 1 - 2 * (b_mask >> k & 1)) for k in range(q)]
        return cls(q, tuple(signs))

    def predict_total(self, config: Configuration) -> int:
        """Product of the per-station answers selected by `config`."""
        if config.q != self.q:
            raise DomainError(f"strategy has {self.q} stations, configuration has {config.q}")
        total = 1
        for k, (a, b) in enumerate(self.answers):
            total *= b if config.r_mask >> k & 1 else a
        return total


def canonicalize(strategy: DeterministicStrategy) -> CanonicalStrategy:
    """Reduce a raw strategy to its canonical class."""
    a_sign = 1
    t_mask = 0
    for k, (a, b) in enumerate(strategy.answers):
        a_sign *= a
        if a * b == -1:
            t_mask |= 1 << k
    return CanonicalStrategy(q=strategy.q, a_sign=a_sign, t_mask=t_mask)


def mermin_sum(strategy: CanonicalStrategy) -> int:
    """Sum over words of eigenvalue times predicted total.

    Each word adds +1 when predicted and -1 when missed, so the sum is the
    word count minus twice the closed-form bad-word count.
    """
    bad = bad_word_count_analytic(strategy.q, strategy.a_sign, strategy.t_mask.bit_count())
    return word_count(strategy.q) - 2 * bad


def minimize_bad_words_brute_force(q: int) -> BadWordReport:
    """Minimum bad-word count over all 4^q raw strategies, evaluated directly.

    Every (a, b) answer table is scored against every word without going
    through the canonical reduction, so this is an independent check of the
    closed-form minimizer. Vectorized; q <= 8.
    """
    q = _check_int_q(q, BRUTE_FORCE_LIMIT)
    masks = np.arange(1 << q, dtype=np.uint32)
    r = np.bitwise_count(masks)
    word_masks = masks[r % 2 == 1]
    eigen_bits = ((np.bitwise_count(word_masks) - 1) >> 1) & 1

    station_bits = (1 << q) - 1
    # parity of a answers on l stations, per (a_mask, word)
    l_part = np.bitwise_count(masks[:, None] & ~word_masks[None, :] & station_bits) & 1
    # parity of b answers on r stations, per (b_mask, word)
    r_part = np.bitwise_count(masks[:, None] & word_masks[None, :]) & 1
    # predicted sign bit for every (a_mask, b_mask, word)
    prediction = l_part[:, None, :] ^ r_part[None, :, :]
    bad_counts = (prediction != eigen_bits[None, None, :]).sum(axis=2)

    flat = int(np.argmin(bad_counts))
    a_mask, b_mask = divmod(flat, 1 << q)
    winner = DeterministicStrategy.from_masks(q, a_mask, b_mask)
    return BadWordReport(
        strategy=canonicalize(winner),
        bad_count=int(bad_counts.flat[flat]),
        probability=Fraction(int(bad_counts.flat[flat]), 1 << q),
    )


class TrialRecord(NamedTuple):
    """One trial, for inspection; aggregate runs only keep the tallies."""

    index: int
    configuration: Configuration
    config_class: ConfigurationClass
    outcome: OutcomeTuple | int
    failure: bool


def _uniform_subsets(
    rng: np.random.Generator, classes: np.ndarray, sizes: list[int]
) -> np.ndarray:
    """Indices of ``sizes[c]`` trials drawn uniformly without replacement
    from the trials of each class c, class by class."""
    return np.concatenate(
        [
            rng.choice(np.flatnonzero(classes == c), size, replace=False, shuffle=False)
            for c, size in enumerate(sizes)
        ]
    )


def iter_trials(cfg: ExperimentConfig) -> Iterator[TrialRecord]:
    """Replay the run trial by trial, yielding exactly the draws a report sums.

    The replay draws the run's class chain, then, from the run's second
    stream (key 1), which of each class's trials pick r at each station and
    which have odd error parity, each a uniform subset of the class. So the
    records' tallies equal run_experiment's for the same configuration. A
    trial's predicted total, as a bit (1 for -1), comes from its own
    configuration: the eigenvalue bit (r count >> 1) & 1 for the quantum
    model, a_bit ^ tpar for the hidden-variable model. A quantum trial's
    result tuple is uniform over the tuples of its total's parity (over all
    tuples for a string), drawn next from the same stream. Runs above
    REPLAY_LIMIT trials raise CapacityError before anything is drawn. Each
    trial's configuration is packed into one uint64, so the replay stops at
    q = 64 even where ROADMAP item 7 lifts that cap for runs.
    """
    # Imported on call: `lhv optimize --verify-brute-force` loads this module,
    # and it runs no trials.
    from .experiment import _FAILING, _NEXT, QuantumModel, _class_chain, _resolve_strategy
    from .experiment import _stream

    if cfg.trials > REPLAY_LIMIT:
        raise CapacityError(f"iter_trials replays at most {REPLAY_LIMIT} trials, got {cfg.trials}")
    strategy = _resolve_strategy(cfg)
    t_mask, sign = (0, None) if strategy is None else (strategy.t_mask, strategy.a_sign)
    chain = _class_chain(cfg, t_mask)
    rng = _stream(cfg.master_seed, 1)
    nexts = np.array(_NEXT)
    classes = np.zeros(cfg.trials, dtype=np.intp)
    masks = np.zeros(cfg.trials, dtype=np.uint64)
    for k in range(cfg.q):
        moved = _uniform_subsets(rng, classes, chain.picks[k])
        masks[moved] |= np.uint64(1 << k)
        classes[moved] = nexts[t_mask >> k & 1][classes[moved]]
    odd = np.zeros(cfg.trials, dtype=np.intp)
    odd[_uniform_subsets(rng, classes, chain.odd)] = 1
    if strategy is None:
        predicted = np.bitwise_count(masks) >> 1 & 1
    else:
        predicted = np.bitwise_count(masks & np.uint64(t_mask)) & 1 ^ (sign != +1)
    parity = predicted ^ odd
    failures = (np.array(_FAILING[sign])[classes] == odd).tolist()
    if isinstance(cfg.model, QuantumModel):
        bits = sample_parity_tuples(cfg.q, parity.astype(np.uint8), classes & 1 == 1, rng)
        signs = 1 - 2 * bits.view(np.int8)
        outcomes = (OutcomeTuple._make((tuple(row.tolist()),)) for row in signs)
    else:
        outcomes = (1 - 2 * parity).tolist()
    # The records are built from the run's own arrays (masks below 2^q,
    # results +1 or -1), so they skip the validating constructors.
    for index, (mask, outcome, failure) in enumerate(zip(masks.tolist(), outcomes, failures)):
        configuration = Configuration._make((cfg.q, mask))
        yield TrialRecord(index, configuration, classify(configuration), outcome, failure)
