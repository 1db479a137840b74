"""Quantum predictions for the entangled q-station measurement scenario.

Outcome statistics follow a parity law that needs no state vector: on a word
the q results are uniform over the sign tuples whose product equals the
word's eigenvalue, on a string they are uniform over all tuples, and each
station's result is then flipped independently with the per-station error
probability. Since a flip mask acts on a word only through its parity, the
sampler draws one odd-flip bit per row instead of q flips. A 2^q
state-vector oracle (small q only) cross-checks both the eigenvalue
taxonomy and this sampling law from first principles.

The closed forms are pure Python. Only the samplers and the state-vector
oracle build arrays, and each imports numpy on its first call, so a
process that never samples never loads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .configs import Configuration, classify, Word
from .errors import CapacityError, DomainError

if TYPE_CHECKING:
    import numpy as np

#: State-vector construction stays affordable up to this q.
ORACLE_LIMIT = 8


class NoiseModel(NamedTuple("NoiseModel", [("epsilon", float)])):
    """Independent per-station probability of reporting the wrong result."""

    __slots__ = ()

    def __new__(cls, epsilon: float = 0.0) -> NoiseModel:
        if not 0.0 <= epsilon <= 0.5:
            raise DomainError(f"error probability must lie in [0, 1/2], got {epsilon}")
        return super().__new__(cls, epsilon + 0.0)  # -0.0 becomes 0.0


class OutcomeTuple(NamedTuple("OutcomeTuple", [("results", tuple[int, ...])])):
    """The q per-station results of one observation, each +1 or -1."""

    __slots__ = ()

    def __new__(cls, results: tuple[int, ...]) -> OutcomeTuple:
        if not results:
            raise DomainError("an outcome needs at least one station result")
        for k, s in enumerate(results):
            if s not in (+1, -1):
                raise DomainError(f"results must be +1 or -1, station {k + 1} has {s}")
        return super().__new__(cls, results)

    @property
    def q(self) -> int:
        return len(self.results)

    @property
    def total(self) -> int:
        """Product of the per-station results."""
        return math.prod(self.results)


def _check_q(q: float) -> None:
    """q must be finite, fit the float range, and be at least 1."""
    try:
        finite = math.isfinite(q)
    except OverflowError:  # an int too large to convert
        raise DomainError("station count q exceeds the float range") from None
    if not finite:
        raise DomainError(f"station count q must be finite, got {q!r}")
    if q < 1:
        raise DomainError(f"station count must be at least 1, got {q}")


def _log_attenuation(q: float, noise: NoiseModel) -> float:
    """q * log(1 - 2*eps), taken through log1p; -inf at eps = 1/2. q is
    checked first (`_check_q`)."""
    _check_q(q)
    if noise.epsilon == 0.5:
        return -math.inf
    return q * math.log1p(-2.0 * noise.epsilon)


def parity_attenuation(q: float, noise: NoiseModel) -> float:
    """Expected sign retention (1 - 2*eps)**q of a q-fold product under flips.

    Each independent flip inverts the product's sign, so its expectation is
    attenuated by this factor. Evaluated in the log domain, which keeps full
    relative precision for tiny eps and avoids spurious under/overflow in
    intermediate powers for huge q.
    """
    return math.exp(_log_attenuation(q, noise))


def _check_int_q(q: int, limit: int) -> int:
    """q must be an integer in [1, limit]; above limit is a CapacityError."""
    if not hasattr(q, "__index__") or q < 1:
        raise DomainError(f"station count must be an integer of at least 1, got {q!r}")
    if q > limit:
        raise CapacityError(f"station count {q} exceeds this form's limit of {limit}")
    return q.__index__()


#: failure_probability_sum adds q/2 terms: ~0.4 s at this q.
SUM_LIMIT = 10**6


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


def failure_probability_closed(q: float, noise: NoiseModel) -> float:
    """Closed form 1/4 - (1/4)(1 - 2*eps)^q of the odd-error sum.

    Evaluated as -expm1(q*log1p(-2*eps))/4, so the difference from 1/4 never
    cancels: the result keeps full relative precision for eps down to 1e-300.
    Accepts real q so that astronomically large station counts evaluate
    stably.
    """
    return -0.25 * math.expm1(_log_attenuation(q, noise))


#: failure_probability_exact takes (1 - 2 eps)^q only while q times the bit
#: length of eps's denominator stays within this: q <= 2^22 at eps = 0,
#: ~10^6 at eps = 1/10 (0.15 s).
EXACT_POWER_BITS = 1 << 22


def failure_probability_exact(q: int, epsilon: Fraction) -> Fraction:
    """Closed form evaluated in exact rational arithmetic."""
    if not 0 <= epsilon <= Fraction(1, 2):
        raise DomainError(f"error probability must lie in [0, 1/2], got {epsilon}")
    q = _check_int_q(q, EXACT_POWER_BITS // Fraction(epsilon).denominator.bit_length())
    return Fraction(1, 4) - Fraction(1, 4) * (1 - 2 * epsilon) ** q


#: Up to this many stations, row parity is taken as a XOR over the q
#: columns, 3-7x faster than np.bitwise_xor.reduce along the short rows;
#: beyond it the q strided passes cost more than the reduce (10^6 rows).
_COLUMN_XOR_LIMIT = 12


def sample_parity_tuples(
    q: int, parity: np.ndarray, fixed: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """(n, q) result bits, uniform over the tuples of a given parity.

    Row i is uniform over the q-bit tuples with parity ``parity[i]`` where
    ``fixed[i]`` is set, and uniform over all tuples elsewhere: q fair bits
    are drawn, then the last station absorbs any parity mismatch.
    """
    import numpy as np

    bits = rng.integers(0, 2, size=(len(parity), q), dtype=np.uint8)
    if q <= _COLUMN_XOR_LIMIT:
        mismatch = parity ^ bits[:, 0]
        for k in range(1, q):
            mismatch ^= bits[:, k]
    else:
        mismatch = np.bitwise_xor.reduce(bits, axis=1) ^ parity
    bits[:, -1] ^= mismatch & fixed
    return bits


def _sample_from_r_counts(
    r: np.ndarray, q: int, noise: NoiseModel, rng: np.random.Generator
) -> np.ndarray:
    """(n, q) result bits for configurations given by their r counts.

    Independent station flips reach a row only through their parity: XOR
    with any flip mask maps the tuples of one parity onto those of the
    other. So a word's results are uniform over the tuples whose parity is
    the eigenvalue bit XOR an odd-flip bit, drawn once per row (only when
    eps > 0) with probability 2 * failure_probability_closed; a string's
    results stay uniform over all tuples. The odd-flip bits are drawn
    first, then the tuples.
    """
    import numpy as np

    is_word = (r & 1).astype(np.uint8)
    target = ((r >> 1) & 1).astype(np.uint8)
    if noise.epsilon > 0.0:
        target ^= rng.random(len(r)) < 2.0 * failure_probability_closed(q, noise)
    return sample_parity_tuples(q, target, is_word, rng)


def sample_result_bits(
    config_bits: np.ndarray, noise: NoiseModel, rng: np.random.Generator
) -> np.ndarray:
    """Draw result bits for a batch of configurations given as bit rows.

    `config_bits` has shape (n, q) with entry 1 where the station applies
    ``r``. The returned array has the same shape with entry 1 meaning the
    station reported -1.
    """
    import numpy as np

    r = config_bits.sum(axis=1, dtype=np.int64)
    return _sample_from_r_counts(r, config_bits.shape[1], noise, rng)


def sample_outcome_batch(
    config: Configuration, noise: NoiseModel, rng: np.random.Generator, size: int
) -> np.ndarray:
    """`size` independent draws for one configuration, as a (size, q) sign matrix."""
    import numpy as np

    if size < 1:
        raise DomainError(f"sample size must be at least 1, got {size}")
    r = np.full(size, config.r_count, dtype=np.int64)
    bits = _sample_from_r_counts(r, config.q, noise, rng)
    return 1 - 2 * bits.astype(np.int8)


# ---------------------------------------------------------------------------
# State-vector oracle
# ---------------------------------------------------------------------------


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
    import numpy as np

    if not 1 <= q <= ORACLE_LIMIT:
        raise CapacityError(f"state vector supports 1 <= q <= {ORACLE_LIMIT}, got {q}")
    psi = np.zeros((2,) * q, dtype=complex)
    psi[(0,) * q] = 1.0 / math.sqrt(2.0)
    psi[(1,) * q] = 1.0j / math.sqrt(2.0)
    return psi


def _apply_per_station(state: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    import numpy as np

    out = state
    for axis, mat in enumerate(mats):
        out = np.moveaxis(np.tensordot(mat, out, axes=(1, axis)), 0, axis)
    return out


def product_observable_expectation(config: Configuration) -> float:
    """Exact expectation of the product observable on the entangled state."""
    import numpy as np

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
    import numpy as np

    # Rows are the measurement-basis bras for outcome +1 and -1.
    basis_l = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    basis_r = np.array([[1, -1j], [1, 1j]], dtype=complex) / math.sqrt(2)
    psi = entangled_state(config.q)
    mats = [basis_r if config.r_mask >> k & 1 else basis_l for k in range(config.q)]
    amplitudes = _apply_per_station(psi, mats)
    return np.abs(amplitudes) ** 2


def _parity_law(config: Configuration) -> np.ndarray:
    """The sampling law the analytic sampler implements, shape (2,)*q."""
    import numpy as np

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
    import numpy as np

    if not 1 <= q <= ORACLE_LIMIT:
        raise CapacityError(f"oracle supports 1 <= q <= {ORACLE_LIMIT}, got {q}")
    entries = []
    for mask in range(1 << q):
        config = Configuration(q=q, r_mask=mask)
        cls = classify(config)
        eigenvalue = cls.eigenvalue if isinstance(cls, Word) else None
        expectation = product_observable_expectation(config)
        expectation_error = abs(expectation - (eigenvalue or 0))
        law_error = float(
            np.max(np.abs(joint_outcome_probabilities(config) - _parity_law(config)))
        )
        entries.append(
            OracleEntry(
                configuration=config,
                kind=cls.kind,
                eigenvalue=eigenvalue,
                expectation=expectation,
                expectation_error=expectation_error,
                law_error=law_error,
            )
        )
    return OracleReport(
        q=q,
        entries=tuple(entries),
        max_expectation_error=max(e.expectation_error for e in entries),
        max_law_error=max(e.law_error for e in entries),
    )
