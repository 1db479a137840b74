"""The class chain against a reference copy of random stream version 6.

`tests/golden_tallies.json` pins the stream at q <= 12, 69857 trials and
canonical masks only. This file keeps the array form of the v6 chain (one
Generator.binomial call over the 4-vector of class counts per station, then
one for the parities) as a test-only reference, and checks that the
production chain draws exactly the same numbers over a wider grid: small
and large q, trial counts up to 2^62, eps down to 1e-300 and masks that are
empty, canonical or random, or hold one bit: bit 0, bit q-1 or a random one.
A station rotates the classes one way or the other as its t_mask bit says,
so the one-bit masks put the other rotation first, last and in between.

It also keeps the array form of the v5 chain over 8 classes (r count mod 4,
tpar), and checks that v6 is its lumping onto u = (r count + 2 tpar) mod 4:
v5's moves and failure rule lump onto v6's, and with t_mask = 0 the two
chains make the same draws. An exact check, free of seeds, propagates the
expected class shares through the lumped chain and recovers the closed-form
failure rate for every t_mask at q <= 8. Last, it pins the stream's seed
map (SplitMix64 words into PCG64DXSM) against a copy of SplitMix64 of its
own.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from ghzgap.experiment import (
    STREAM_VERSION,
    ExperimentConfig,
    LhvModel,
    QuantumModel,
    _FAILING,
    _NEXT,
    _class_chain,
    _SeedWords,
    _stream,
    run_experiment,
)
from ghzgap.oracles import failure_probability_exact
from ghzgap.quantum import NoiseModel, failure_probability_closed
from ghzgap.strategies import CanonicalStrategy, minimize_bad_words

QS = (1, 2, 3, 4, 10, 33, 64)
TRIALS = (1, 7, 69857, 1 << 40, 1 << 62)
EPSILONS = (0.0, 1e-300, 0.01, 0.5)
MASKS = ("empty", "canonical", "random", "low", "high", "one")

#: Where a trial of class u goes when it picks r, for t_mask bit 0 and 1:
#: its r count grows by 1, and at a t_mask station tpar flips, adding 2.
NEXT = np.array([[1, 2, 3, 0], [3, 0, 1, 2]])

#: The same for v5's class c = (r count mod 4) | tpar << 2.
NEXT_V5 = np.array([[1, 2, 3, 0, 5, 6, 7, 4], [5, 6, 7, 4, 1, 2, 3, 0]])


def _array_chain(cfg, t_mask, nexts):
    """A chain in array form over len(nexts[0]) classes: (picks, counts, odd)."""
    rng = _stream(cfg.master_seed, 0)
    counts = np.zeros(len(nexts[0]), dtype=np.int64)
    counts[0] = cfg.trials
    picks = np.empty((cfg.q, len(counts)), dtype=np.int64)
    for k in range(cfg.q):
        picked = picks[k] = rng.binomial(counts, 0.5)
        counts -= picked
        counts[nexts[t_mask >> k & 1]] += picked
    noise = cfg.model.noise
    if noise.epsilon > 0.0:
        odd = rng.binomial(counts, 2.0 * failure_probability_closed(cfg.q, noise))
    else:
        odd = np.zeros(len(counts), dtype=np.int64)
    return picks.tolist(), counts.tolist(), odd.tolist()


def reference_chain(cfg, t_mask):
    """Random stream v6 in array form: (picks, counts, odd) as lists of 4."""
    return _array_chain(cfg, t_mask, NEXT)


def reference_chain_v5(cfg, t_mask):
    """Random stream v5 in array form: (picks, counts, odd) as lists of 8."""
    return _array_chain(cfg, t_mask, NEXT_V5)


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


def test_reference_is_stream_version_6():
    # a new stream needs a new reference here, as well as new goldens
    assert STREAM_VERSION == 6
    assert NEXT.tolist() == list(map(list, _NEXT))


def splitmix64(seed, n):
    """The first n outputs of SplitMix64 started at seed."""
    out = []
    for _ in range(n):
        seed = (seed + 0x9E3779B97F4A7C15) % 2**64
        z = (seed ^ seed >> 30) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
        out.append(z ^ z >> 31)
    return out


class _Words(np.random.bit_generator.ISeedSequence):
    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.words, dtype=dtype)[:n_words]


#: Edge seeds of the 64-bit range, and 1000 random ones, each with its neighbours.
_rnd = random.Random("seed-map")
SEEDS = sorted(
    {0, 1, 2, 1 << 32, (1 << 63) - 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1}
    | {(s + d) % 2**64 for s in (_rnd.getrandbits(64) for _ in range(1000)) for d in (-1, 0, 1)}
)


def test_splitmix64_copy():
    assert splitmix64(0, 4) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC
    ]


@pytest.mark.parametrize("key", [0, 1])
@pytest.mark.parametrize("seed", [0, 1, 7, 9100, 1 << 63, (1 << 64) - 1, 0x0123456789ABCDEF])
def test_stream_is_seeded_from_splitmix64_words(seed, key):
    # words 0-1 are PCG64DXSM's state, 2-3 its stream selector; the key
    # goes into the last word
    words = splitmix64(seed, 4)
    words[3] ^= key
    expected = np.random.PCG64DXSM(_Words(words)).state
    assert _stream(seed, key).bit_generator.state == expected


def test_seeds_and_keys_start_distinct_streams():
    starts = set()
    for seed in SEEDS:
        for key in (0, 1):
            state = _stream(seed, key).bit_generator.state["state"]
            starts.add((state["state"], state["inc"]))
    assert len(starts) == 2 * len(SEEDS)


def test_chain_and_replay_streams_differ():
    for seed in SEEDS[::50]:
        raw = [_stream(seed, key).bit_generator.random_raw(4).tolist() for key in (0, 1)]
        assert raw[0] != raw[1], seed


def test_seed_words_serve_only_pcg64dxsm():
    with pytest.raises(ValueError):
        np.random.MT19937(_SeedWords(splitmix64(0, 4)))


@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("q", QS)
def test_chain_matches_reference(q, kind):
    for cfg, t_mask in _grid(q, kind):
        picks, counts, odd = reference_chain(cfg, t_mask)
        chain = _class_chain(cfg, t_mask)
        assert (chain.picks, chain.counts, chain.odd) == (picks, counts, odd), cfg
        assert all(type(n) is int for n in (*chain.counts, *chain.odd, *chain.picks[-1]))


def _lumped(c):
    """v6's class of v5's class c: (r count + 2 tpar) mod 4."""
    return ((c & 3) + 2 * (c >> 2)) & 3


def _failing_v5(c, sign):
    """v5's rule: the error parity at which class c fails, -1 for never."""
    eigen = c >> 1 & 1
    predicted = eigen if sign is None else c >> 2 ^ (sign != +1)
    return 1 ^ predicted ^ eigen if c & 1 else -1


def test_failing_tables_are_the_rule():
    # every v5 class fails at v6's parity for the class it lumps into
    for sign in (None, +1, -1):
        assert [_FAILING[sign][_lumped(c)] for c in range(8)] == [
            _failing_v5(c, sign) for c in range(8)
        ], sign


def test_version_5_moves_lump_onto_version_6():
    for bit in (0, 1):
        assert [_lumped(c) for c in NEXT_V5[bit]] == [NEXT[bit][_lumped(c)] for c in range(8)]


@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("q", QS)
def test_empty_mask_draws_version_5(q, kind):
    # with t_mask = 0, u is the r count mod 4: v5's classes 0-3, and 4-7 stay empty
    for cfg, _ in _grid(q, kind):
        picks, counts, odd = reference_chain_v5(cfg, 0)
        assert all(row[4:] == [0] * 4 for row in (*picks, counts, odd)), cfg
        chain = _class_chain(cfg, 0)
        assert chain.picks == [row[:4] for row in picks], cfg
        assert (chain.counts, chain.odd) == (counts[:4], odd[:4]), cfg


def _bad_words(q, a_sign, t_mask):
    """Words whose hidden-variable total misses the eigenvalue, counted one by one."""
    bad = 0
    for mask in range(1 << q):
        r = mask.bit_count()
        predicted = (a_sign != +1) ^ (mask & t_mask).bit_count() & 1
        if r & 1 and predicted != r >> 1 & 1:
            bad += 1
    return bad


def _lumped_failure_rate(q, t_mask, sign, eps):
    """The failure rate the 4-class chain implies, in exact rationals."""
    shares = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    for k in range(q):
        moved = [Fraction(0)] * 4
        for u, share in enumerate(shares):
            moved[u] += share / 2
            moved[_NEXT[t_mask >> k & 1][u]] += share / 2
        shares = moved
    p_odd = (1 - (1 - 2 * eps) ** q) / 2
    failing = _FAILING[sign]
    return sum(shares[u] * (p_odd if failing[u] else 1 - p_odd) for u in (1, 3))


@pytest.mark.parametrize("q", range(1, 9))
def test_lumped_chain_gives_the_theory(q):
    # p_qm + (1 - 2 eps)^q bad / 2^q for every strategy and the quantum model
    eps = Fraction(3, 40)
    p_qm = failure_probability_exact(q, eps)
    assert _lumped_failure_rate(q, 0, None, eps) == p_qm
    for t_mask in range(1 << q):
        for a_sign in (+1, -1):
            bad = _bad_words(q, a_sign, t_mask)
            expected = p_qm + (1 - 2 * eps) ** q * Fraction(bad, 1 << q)
            assert _lumped_failure_rate(q, t_mask, a_sign, eps) == expected, (t_mask, a_sign)


@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("q", QS)
def test_report_sums_the_reference(q, kind):
    for cfg, t_mask in _grid(q, kind):
        picks, counts, odd = reference_chain(cfg, t_mask)
        strategy = cfg.model.strategy if isinstance(cfg.model, LhvModel) else None
        failures = 0
        for u in (1, 3):
            # a quantum word fails on odd error parity; a hidden-variable
            # word when the parity is 1 ^ a_bit ^ (u >> 1)
            fails_at = 1 if strategy is None else 1 ^ (strategy.a_sign != +1) ^ u >> 1
            failures += odd[u] if fails_at else counts[u] - odd[u]
        report = run_experiment(cfg)
        assert report.station_r_counts == tuple(sum(row) for row in picks), cfg
        assert report.word_trials == sum(counts[1::2]), cfg
        assert report.failures == failures, cfg
