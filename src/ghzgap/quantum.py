"""Quantum predictions for the entangled q-station measurement scenario.

Outcome statistics follow a parity law that needs no state vector: on a word
the q results are uniform over the sign tuples whose product equals the
word's eigenvalue, on a string they are uniform over all tuples, and each
station's result is then flipped independently with the per-station error
probability. Since a flip mask acts on a word only through its parity, the
sampler draws one odd-flip bit per row instead of q flips, and a row's q
results as one packed q-bit word.

The closed forms are pure Python. Only the samplers build arrays, and each
imports numpy on its first call, so a process that never samples never
loads it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .configs import MAX_STATIONS, _check_int_q, _real, _shown
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np


class NoiseModel(NamedTuple("NoiseModel", [("epsilon", float)])):
    """Independent per-station probability of reporting the wrong result."""

    __slots__ = ()

    def __new__(cls, epsilon: float = 0.0) -> NoiseModel:
        if not 0.0 <= _real(epsilon) <= 0.5:
            raise DomainError(f"error probability must lie in [0, 1/2], got {_shown(epsilon)}")
        return super().__new__(cls, epsilon + 0.0)  # -0.0 becomes 0.0


def _check_q(q: float) -> None:
    """q must be a finite real number (`configs._real`), fit the float
    range, and be at least 1."""
    try:
        finite = math.isfinite(_real(q))
    except OverflowError:  # an int too large to convert
        raise DomainError("station count q exceeds the float range") from None
    if not finite:
        raise DomainError(f"station count q must be finite and real, got {_shown(q)}")
    if q < 1:
        raise DomainError(f"station count must be at least 1, got {_shown(q)}")


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


def failure_probability_closed(q: float, noise: NoiseModel) -> float:
    """Closed form 1/4 - (1/4)(1 - 2*eps)^q of the odd-error sum.

    Evaluated as -expm1(q*log1p(-2*eps))/4, so the difference from 1/4 never
    cancels: the result keeps full relative precision for eps down to 1e-300.
    Accepts real q so that astronomically large station counts evaluate
    stably.
    """
    return -0.25 * math.expm1(_log_attenuation(q, noise))


def sample_parity_tuples(
    q: int, parity: np.ndarray, fixed: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """(n, q) result bits, uniform over the tuples of a given parity.

    Row i is uniform over the q-bit tuples with parity ``parity[i]`` where
    ``fixed[i]`` is set, and uniform over all tuples elsewhere: one uniform
    q-bit word is drawn per row, in the smallest unsigned type that holds
    it, with station k+1's bit at bit k; then bit q-1, the last station,
    absorbs any parity mismatch. 1 <= q <= 64.
    """
    import numpy as np

    dtype = np.min_scalar_type((1 << q) - 1)
    words = rng.integers(0, (1 << q) - 1, size=len(parity), dtype=dtype, endpoint=True)
    mismatch = (np.bitwise_count(words) ^ parity) & fixed
    words ^= mismatch.astype(dtype) << (q - 1)
    # a little-endian byte view (no copy on a little-endian host) puts
    # station 1 at bit 0 of byte 0
    octets = words.astype(dtype.newbyteorder("<"), copy=False)[:, None].view(np.uint8)
    return np.unpackbits(octets, axis=1, count=q, bitorder="little")


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
    ``r``, q at most MAX_STATIONS (CapacityError). The returned array has
    the same shape with entry 1 meaning the station reported -1.
    """
    import numpy as np

    q = _check_int_q(config_bits.shape[1], MAX_STATIONS)
    r = config_bits.sum(axis=1, dtype=np.int64)
    return _sample_from_r_counts(r, q, noise, rng)
