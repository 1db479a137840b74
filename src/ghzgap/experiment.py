"""Seeded Monte Carlo trials for the quantum and hidden-variable models.

Each trial draws a configuration uniformly (every station independently
chooses l or r), obtains the total result from the selected model, and
counts a failure when a word's total result differs from its eigenvalue.
Strings never fail. Trials are processed in fixed-size chunks, each with its
own PCG64DXSM stream seeded from the master seed and the chunk index, so
tallies are bit-for-bit reproducible however the chunks are split; a run
draws them in order on the calling thread.

A failure depends only on the configuration's r count and on the parity of
the station errors, so a trial costs one bit-packed configuration (a masked
uint64) and, when errors are possible, one uniform for the odd-error parity;
no per-station result is drawn. The order of those draws is random stream
version STREAM_VERSION (see `_draw_chunk`). `iter_trials` replays the
same chunks and builds full quantum result tuples from a second per-chunk
stream that the aggregate run never touches. Each calling thread draws
its chunks into one reused set of chunk-sized buffers, so a run allocates
nothing per chunk beyond a few small blocks. Station counts come from
histograms of 12-station lanes of the masks, summed over the whole run and
turned into per-station counts once at its end.

Up to q = 11 a run tallies nothing per trial: each chunk bincounts
``mask | odd << q`` (at most 2^12 values) into the run's one-lane
histogram, and at the end the failure rule runs once per bin, its flags
weighted by the bin counts. Wider runs, and `iter_trials`, apply the same
rule (`_failure_rule`) to every trial.

Only the Monte Carlo functions build arrays, and each imports numpy on its
first call: `wilson_interval`, `min_trials_to_disprove` and the model and
config types are pure Python, so a process that runs no trials never loads
it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Optional, Union

from .configs import MAX_STATIONS, Configuration, ConfigurationClass, classify
from .errors import DomainError
from .quantum import (
    NoiseModel,
    OutcomeTuple,
    failure_probability_closed,
    parity_attenuation,
    sample_parity_tuples,
    sample_result_bits,  # noqa: F401  (re-exported: callers look it up here)
)
from .strategies import (
    CanonicalStrategy,
    bad_word_count_analytic,
    minimize_bad_words,
)

if TYPE_CHECKING:
    import numpy as np

#: Trials per random-stream chunk. Fixed: changing it would change the draws.
CHUNK_TRIALS = 1 << 16

#: Version of the seed -> draws contract: bumped whenever the draw order or
#: the per-chunk streams change, so every such change is deliberate.
STREAM_VERSION = 3

#: Largest trial count a run accepts: 2^24 chunks, a few hours of draws on
#: one core, so no run is unbounded in time.
MAX_TRIALS = 1 << 40

#: min_trials_to_disprove settles its answer with exact rational powers up to
#: this many trials (at most ~10 ms). An exact boundary (1 - p)^N = 1 - c
#: between binary floats needs N <= 1074, so beyond the limit the float
#: logs decide alone.
_EXACT_SETTLE_LIMIT = 1 << 12


@dataclass(frozen=True)
class QuantumModel:
    """Entangled-state model with independent per-station errors."""

    noise: NoiseModel = NoiseModel(0.0)


@dataclass(frozen=True)
class LhvModel:
    """Deterministic per-station answer table, optionally read out with errors.

    ``strategy=None`` selects the canonical optimum for the experiment's q.
    """

    strategy: Optional[CanonicalStrategy] = None
    noise: NoiseModel = NoiseModel(0.0)


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
        # configurations are packed into one uint64 per trial
        if not 1 <= self.q <= MAX_STATIONS:
            raise DomainError(
                f"station count must lie in [1, {MAX_STATIONS}], got {self.q}"
            )
        if not 1 <= self.trials <= MAX_TRIALS:
            raise DomainError(
                f"trial count must lie in [1, {MAX_TRIALS}], got {self.trials}"
            )
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
    """How the draws of a run are produced; independent of how chunks are split."""
    return {
        "rng": "PCG64DXSM",
        "stream_version": STREAM_VERSION,
        "chunk_trials": CHUNK_TRIALS,
    }


def _resolve_strategy(cfg: ExperimentConfig) -> Optional[CanonicalStrategy]:
    if not isinstance(cfg.model, LhvModel):
        return None
    if cfg.model.strategy is not None:
        return cfg.model.strategy
    return minimize_bad_words(cfg.q).strategy


def _chunk_rng(master_seed: int, *spawn_key: int) -> np.random.Generator:
    import numpy as np

    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64DXSM(seq))


def _chunk_count(cfg: ExperimentConfig) -> int:
    return (cfg.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS


class _Chunk(NamedTuple):
    """Per-trial arrays of one chunk, each of length n."""

    masks: np.ndarray  # uint64; bit k set: station k+1 applies r
    is_word: np.ndarray  # bool
    failure: np.ndarray  # bool
    parity: np.ndarray  # uint8; 1 where the observed total is -1


#: Stations per tally lane: a lane's histogram has 2^12 bins (32 KB of int64).
_LANE_BITS = 12

#: Largest q whose runs are tallied from one histogram of (odd parity, mask)
#: bin indices: q mask bits and the odd bit fit one lane.
_BIN_TALLY_MAX_Q = _LANE_BITS - 1


class _Workspace:
    """Chunk-sized buffers that every draw of one thread writes into.

    A chunk is drawn into these arrays in place, so drawing it allocates
    nothing of chunk size: each run reuses the same 1.6 MB (1.4 MB of chunk
    buffers, 192 KB of lane histograms and the 32 KB of one lane's bin
    labels) instead of faulting fresh pages in for every chunk. The arrays
    are written once when made, so even the first full chunk finds its
    pages resident.
    """

    def __init__(self) -> None:
        import numpy as np

        n = CHUNK_TRIALS
        self.masks = np.empty(n, dtype=np.uint64)
        # scratch: uniforms, masked answer tables, then lane indices
        self.wide = np.empty(n, dtype=np.uint64)
        # lane histograms, shaped per run by _lane_histogram
        self.lanes = np.empty(-(-MAX_STATIONS // _LANE_BITS) << _LANE_BITS, dtype=np.int64)
        self.r = np.empty(n, dtype=np.uint8)
        self.word = np.empty(n, dtype=np.uint8)
        self.eigen = np.empty(n, dtype=np.uint8)
        self.odd = np.empty(n, dtype=np.uint8)
        self.parity = np.empty(n, dtype=np.uint8)
        self.failure = np.empty(n, dtype=np.uint8)
        for array in vars(self).values():
            array.fill(0)  # np.empty only reserves pages; touch them now
        # the index of each bin of a one-lane histogram
        self.bins = np.arange(1 << _LANE_BITS, dtype=np.uint64)


_local = threading.local()


def _workspace() -> _Workspace:
    """This thread's workspace, made on first use.

    One per thread, so runs called from different threads at once never
    share buffers. It holds scratch only: a chunk writes every element it
    reads, so successive runs on one thread never see each other's draws.
    """
    ws = getattr(_local, "workspace", None)
    if ws is None:
        ws = _local.workspace = _Workspace()
    return ws


#: Raw words drawn per random_raw call: successive calls continue the same
#: stream, and a block this size stays a small, reused allocation.
_RAW_BLOCK = 1 << 12


def _draw_chunk(
    cfg: ExperimentConfig, chunk_index: int, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one chunk into ``ws``: its configuration masks (uint64) and odd
    error parities (uint8), views of ``ws``.

    Draw order of random stream version 3, from the chunk's PCG64DXSM
    stream:

    1. n raw 64-bit words, ANDed with the low-q mask (skipped at q = 64),
       are the configuration masks.
    2. Only when eps > 0: n uniforms u; the station errors of a trial have
       odd parity when u < 2 * failure_probability_closed(q, noise), the
       probability that an odd number of q independent flips occur.
       Without errors every parity is even.
    """
    import numpy as np

    q = cfg.q
    n = min(CHUNK_TRIALS, cfg.trials - chunk_index * CHUNK_TRIALS)
    rng = _chunk_rng(cfg.master_seed, chunk_index)
    masks, odd = ws.masks[:n], ws.odd[:n]
    for start in range(0, n, _RAW_BLOCK):
        stop = min(n, start + _RAW_BLOCK)
        masks[start:stop] = rng.bit_generator.random_raw(stop - start)
    if q < 64:
        np.bitwise_and(masks, np.uint64((1 << q) - 1), out=masks)
    noise = cfg.model.noise
    if noise.epsilon > 0.0:
        uniforms = ws.wide[:n].view(np.float64)
        rng.random(n, out=uniforms)
        np.less(uniforms, 2.0 * failure_probability_closed(q, noise), out=odd.view(bool))
    else:
        odd.fill(0)
    return masks, odd


def _failure_rule(
    masks: np.ndarray,
    odd: np.ndarray,
    strategy: Optional[CanonicalStrategy],
    ws: _Workspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Word flags, failure flags and observed total parities (uint8 views of
    ``ws``) of the trials with these masks and odd error parities.

    Both models share one rule: the observed total is the predicted total
    inverted by odd error parity, and a word fails when it misses the
    eigenvalue, ``failure = word & (predicted ^ odd ^ eigen)``. The popcount
    r of a mask gives the word flag r & 1 and the eigenvalue bit
    (r >> 1) & 1. The quantum model predicts the eigenvalue itself (so it
    fails exactly on odd error parity, and its parity is meaningful on words
    only: a string's total is a fair coin no tally reads); the
    hidden-variable model predicts a_bit ^ parity(mask & t_mask).
    """
    import numpy as np

    n = len(masks)
    r, word, eigen = ws.r[:n], ws.word[:n], ws.eigen[:n]
    parity, failure = ws.parity[:n], ws.failure[:n]
    np.bitwise_count(masks, out=r)
    np.bitwise_and(r, 1, out=word)
    np.right_shift(r, 1, out=eigen)
    np.bitwise_and(eigen, 1, out=eigen)
    if strategy is None:
        predicted = eigen
    else:
        predicted = parity
        np.bitwise_and(masks, np.uint64(strategy.t_mask), out=ws.wide[:n])
        np.bitwise_count(ws.wide[:n], out=parity)
        np.bitwise_and(parity, 1, out=parity)
        if strategy.a_sign != +1:
            np.bitwise_xor(parity, 1, out=parity)
    np.bitwise_xor(predicted, odd, out=parity)
    np.bitwise_xor(parity, eigen, out=failure)
    np.bitwise_and(failure, word, out=failure)
    return word, failure, parity


def _chunk_arrays(
    cfg: ExperimentConfig,
    strategy: Optional[CanonicalStrategy],
    chunk_index: int,
    ws: _Workspace,
) -> _Chunk:
    """Draw one chunk into ``ws`` and apply the failure rule to each trial.
    The returned arrays are views of ``ws``."""
    masks, odd = _draw_chunk(cfg, chunk_index, ws)
    word, failure, parity = _failure_rule(masks, odd, strategy, ws)
    return _Chunk(masks, word.view(bool), failure.view(bool), parity)


def _lane_histogram(ws: _Workspace, q: int) -> np.ndarray:
    """Zeroed lane histograms in ``ws`` for q-bit bin indices: a run's
    masks, or up to q = _BIN_TALLY_MAX_Q its masks with the odd bit above.

    Column l has one bin per value of the mask bits 12l .. 12l + 11
    (stations 12l + 1 ..), 2^min(q, 12) bins in all. The array is
    contiguous with bins as rows, so a range of bins of every lane is one
    block of memory.
    """
    shape = (1 << min(q, _LANE_BITS), -(-q // _LANE_BITS))
    hist = ws.lanes[: shape[0] * shape[1]].reshape(shape)
    hist.fill(0)
    return hist


def _tally_lanes(hist: np.ndarray, masks: np.ndarray, scratch: np.ndarray) -> None:
    """Add each mask's lane values to the lane histograms ``hist``.

    Masks below 2^12 (one lane) are their own bin indices. Wider masks have
    each lane shifted down and masked into ``scratch`` (a uint64 array at
    least as long as ``masks``), so only 4096-bin histograms are allocated.
    """
    import numpy as np

    bins, lanes = hist.shape
    if lanes == 1:
        hist[:, 0] += np.bincount(masks.view(np.intp), minlength=bins)
        return
    index = scratch[: len(masks)]
    for lane in range(lanes):
        shifted = masks
        if lane:
            shifted = np.right_shift(masks, np.uint64(lane * _LANE_BITS), out=index)
        if lane < lanes - 1:  # the top lane has no bits above it
            np.bitwise_and(shifted, np.uint64(bins - 1), out=index)
        hist[:, lane] += np.bincount(index.view(np.intp), minlength=bins)


def _lane_station_counts(hist: np.ndarray, q: int) -> np.ndarray:
    """How many masks set each of the q station bits, from lane histograms.

    Folds ``hist`` in place, all lanes at once: the upper half of the bins
    sums to the count of the top bit, and adding it onto the lower half
    leaves the histogram of the bits below. The halves never share memory,
    so the fold copies nothing.
    """
    import numpy as np

    bins, lanes = hist.shape
    width = bins.bit_length() - 1
    counts = np.empty((lanes, width), dtype=np.int64)
    for bit in reversed(range(width)):
        half = 1 << bit
        upper = hist[half : 2 * half]
        upper.sum(axis=0, out=counts[:, bit])
        hist[:half] += upper
    return counts.ravel()[:q]


def _bin_tallies(
    hist: np.ndarray, q: int, strategy: Optional[CanonicalStrategy], ws: _Workspace
) -> tuple[int, int]:
    """Word trials and failures of a run, from its one-lane histogram of
    ``mask | odd << q`` bin indices (q <= _BIN_TALLY_MAX_Q).

    The failure rule runs once per bin, on the bin's mask and odd bit, and
    each flag is weighted by the bin's trial count. Read before
    _lane_station_counts folds ``hist``; allocates nothing of bin size.
    """
    import numpy as np

    bins = len(hist)
    masks = np.bitwise_and(ws.bins[:bins], np.uint64((1 << q) - 1), out=ws.masks[:bins])
    odd = ws.odd[:bins]
    odd[: bins >> 1] = 0
    odd[bins >> 1 :] = 1
    word, failure, _ = _failure_rule(masks, odd, strategy, ws)
    counts, weights = hist[:, 0], ws.wide[:bins].view(np.int64)
    np.copyto(weights, word)
    word_trials = int(counts @ weights)
    np.copyto(weights, failure)
    return word_trials, int(counts @ weights)


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

    Chunks are drawn and tallied in chunk order on the calling thread, into
    that thread's reused workspace, so concurrent callers never share
    buffers. ``workers`` is accepted for existing callers and ignored: it is
    neither read nor checked, and the report never depended on it.

    Up to q = _BIN_TALLY_MAX_Q the failure rule runs once per histogram
    bin at the end of the run (_bin_tallies), wider runs apply it per trial.
    """
    import numpy as np

    strategy = _resolve_strategy(cfg)
    ws = _workspace()
    q = cfg.q
    binned = q <= _BIN_TALLY_MAX_Q
    noisy = cfg.model.noise.epsilon > 0.0
    word_trials = failures = 0
    hist = _lane_histogram(ws, q + 1 if binned else q)
    for chunk_index in range(_chunk_count(cfg)):
        if binned:
            masks, odd = _draw_chunk(cfg, chunk_index, ws)
            if noisy:  # odd is all zero otherwise
                odd_bit = ws.wide[: len(masks)]
                np.copyto(odd_bit, odd)
                np.left_shift(odd_bit, np.uint64(q), out=odd_bit)
                np.bitwise_or(masks, odd_bit, out=masks)
        else:
            chunk = _chunk_arrays(cfg, strategy, chunk_index, ws)
            word_trials += int(np.count_nonzero(chunk.is_word))
            failures += int(np.count_nonzero(chunk.failure))
            masks = chunk.masks
        _tally_lanes(hist, masks, ws.wide)
    if binned:
        word_trials, failures = _bin_tallies(hist, q, strategy, ws)
    # the fold drops a binned run's odd bit, bit q
    station_r = _lane_station_counts(hist, q)
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
        station_r_counts=tuple(int(c) for c in station_r),
        strategy=strategy,
    )


def iter_trials(cfg: ExperimentConfig) -> Iterator[TrialRecord]:
    """Replay the run trial by trial, yielding exactly the draws a report sums.

    Intended for inspection at small trial counts; tallies of the yielded
    records match run_experiment for the same configuration bit for bit.
    A quantum trial's result tuple is uniform over the tuples of its total's
    parity (over all tuples for a string), drawn from the chunk's second
    stream, spawn key (chunk_index, 1).
    """
    import numpy as np

    strategy = _resolve_strategy(cfg)
    quantum = isinstance(cfg.model, QuantumModel)
    ws = _Workspace()
    index = 0
    for chunk_index in range(_chunk_count(cfg)):
        chunk = _chunk_arrays(cfg, strategy, chunk_index, ws)
        if quantum:
            tuple_rng = _chunk_rng(cfg.master_seed, chunk_index, 1)
            bits = sample_parity_tuples(cfg.q, chunk.parity, chunk.is_word, tuple_rng)
            outcomes = (1 - 2 * bits.astype(np.int64)).tolist()
        else:
            outcomes = (1 - 2 * chunk.parity.astype(np.int64)).tolist()
        for mask, outcome, failure in zip(
            chunk.masks.tolist(), outcomes, chunk.failure.tolist()
        ):
            configuration = Configuration(q=cfg.q, r_mask=mask)
            yield TrialRecord(
                index=index,
                configuration=configuration,
                config_class=classify(configuration),
                outcome=OutcomeTuple(results=tuple(outcome)) if quantum else outcome,
                failure=failure,
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
