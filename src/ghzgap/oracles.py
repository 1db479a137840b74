"""Independent cross-checks of the closed forms.

Each function here recomputes by another route what the library states in
closed form: the quantum failure probability as the odd-error binomial sum
and in exact rationals, outcome draws for one configuration, the word/string
taxonomy and the sampling law from a 2^q state vector (small q only), and
the classical optimum from a 4^q brute force over raw answer tables.

No module of the package imports this one. The package's lazy names reach
it, and of the commands only ``lhv optimize --verify-brute-force`` does.
It imports numpy when it is imported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .configs import EXACT_POWER_BITS, Configuration, Word, classify, enumerate_configurations
from .configs import _check_int, _check_int_q, _shown
from .errors import CapacityError, DomainError
from .quantum import NoiseModel, _sample_from_r_counts
from .strategies import BadWordReport, DeterministicStrategy, canonicalize

#: failure_probability_sum adds q/2 terms: ~0.4 s at this q.
SUM_LIMIT = 10**6

#: sample_outcome_batch draws at most this many rows (64 MB of bits at q = 64).
SAMPLE_LIMIT = 1 << 20

#: State-vector construction stays affordable up to this q.
ORACLE_LIMIT = 8

#: Raw strategy spaces up to this q (4^q entries) stay brute-forceable.
BRUTE_FORCE_LIMIT = 8


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
