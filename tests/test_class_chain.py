"""The class chain against a reference copy of random stream version 7.

`tests/golden_tallies.json` pins the stream at q <= 12, 69857 trials and
canonical masks only. This file keeps the array form of the v7 chain (one
Generator.binomial call over the vector of class counts per station, then
one for the parities) as a test-only reference, and checks that the
production chain draws exactly the same numbers over a wider grid: small
and large q, trial counts up to 2^62, eps down to 1e-300 and masks that are
empty, canonical or random, or hold one bit: bit 0, bit q-1 or a random one.
A hidden-variable station rotates the 4 classes one way or the other as its
t_mask bit says, so the one-bit masks put the other rotation first, last
and in between. A quantum run follows 2 classes, the r count's parity, and
draws the error parity of its words only.

It also keeps the array form of the v5 chain over 8 classes (r count mod 4,
tpar), and checks that the hidden-variable chain is its lumping onto
u = (r count + 2 tpar) mod 4: v5's moves and failure rule lump onto u's,
and with t_mask = 0 the two chains make the same draws. The quantum chain
lumps v6's 4 classes onto v = u mod 2, checked the same way. Exact checks,
free of seeds, propagate the expected class shares through the lumped
chains and recover the closed-form failure rate for every t_mask at q <= 8,
and enumerate every draw of small runs to match the joint law of their
tallies against all the configurations they could have drawn. A guard
counts the binomial draws of a run. Last, it pins the stream's seed map
(SplitMix64 words into PCG64DXSM) against a copy of SplitMix64 of its own.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ghzgap import experiment
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

#: The same for the quantum model's class v = r count mod 2: a pick flips it.
NEXT_QM = np.array([[1, 0]])

#: v6's quantum failing table over u: a word (u odd) fails on odd parity.
FAILING_QM_V6 = [-1, 1, -1, 1]

#: The same for v5's class c = (r count mod 4) | tpar << 2.
NEXT_V5 = np.array([[1, 2, 3, 0, 5, 6, 7, 4], [5, 6, 7, 4, 1, 2, 3, 0]])


def _array_chain(cfg, t_mask, nexts, drawn=1):
    """A chain in array form over len(nexts[0]) classes: (picks, counts, odd).

    ``drawn`` (1, or a 0/1 vector) marks the classes whose error parity is
    drawn; a class it zeroes has a count of 0 there, which draws nothing.
    """
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
        odd = rng.binomial(counts * drawn, 2.0 * failure_probability_closed(cfg.q, noise))
    else:
        odd = np.zeros(len(counts), dtype=np.int64)
    return picks.tolist(), counts.tolist(), odd.tolist()


def reference_chain(cfg, t_mask):
    """Random stream v7 in array form: (picks, counts, odd) as lists of 2
    for the quantum model (the words' parity only), of 4 otherwise."""
    if isinstance(cfg.model, QuantumModel):
        return _array_chain(cfg, 0, NEXT_QM, np.array([0, 1]))
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


def test_reference_is_stream_version_8():
    # a new stream needs a new reference here, as well as new goldens
    assert STREAM_VERSION == 8
    assert NEXT.tolist() == list(map(list, _NEXT))
    assert [len(_FAILING[sign]) for sign in (None, +1, -1)] == [2, 4, 4]


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
    # every v5 class fails at the parity of the class it lumps into: u for
    # the hidden-variable model, v = u mod 2 for the quantum model
    for sign in (None, +1, -1):
        n = len(_FAILING[sign])
        assert [_FAILING[sign][_lumped(c) % n] for c in range(8)] == [
            _failing_v5(c, sign) for c in range(8)
        ], sign


def test_version_5_moves_lump_onto_version_6():
    for bit in (0, 1):
        assert [_lumped(c) for c in NEXT_V5[bit]] == [NEXT[bit][_lumped(c)] for c in range(8)]


def test_version_6_quantum_chain_lumps_onto_parity():
    # v6 ran the quantum model on u with t_mask = 0; every u of one parity
    # moves to classes of one parity and fails at the same error parity,
    # so the 4 classes lump onto v = u mod 2 (and so does the other
    # rotation: a pick always flips the r count's parity)
    for bit in (0, 1):
        assert [NEXT[bit][u] % 2 for u in range(4)] == [NEXT_QM[0][u % 2] for u in range(4)]
    assert FAILING_QM_V6 == [_FAILING[None][u % 2] for u in range(4)]


@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("q", QS)
def test_empty_mask_draws_version_5(q, kind):
    # a hidden-variable strategy with t_mask = 0: u is the r count mod 4,
    # v5's classes 0-3, and 4-7 stay empty
    for cfg, _ in _grid(q, kind):
        a_sign = cfg.model.strategy.a_sign if isinstance(cfg.model, LhvModel) else +1
        model = LhvModel(CanonicalStrategy(q, a_sign, 0), cfg.model.noise)
        cfg = ExperimentConfig(q, model, cfg.trials, cfg.master_seed)
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


def _lumped_failure_rate(q, nexts, t_mask, failing, eps):
    """The failure rate a lumped chain implies, in exact rationals: its
    classes are the entries of ``failing``, its moves ``nexts``."""
    shares = [Fraction(1)] + [Fraction(0)] * (len(failing) - 1)
    for k in range(q):
        moved = [Fraction(0)] * len(shares)
        for u, share in enumerate(shares):
            moved[u] += share / 2
            moved[nexts[t_mask >> k & 1][u]] += share / 2
        shares = moved
    p_odd = (1 - (1 - 2 * eps) ** q) / 2
    return sum(
        shares[u] * (p_odd if failing[u] else 1 - p_odd) for u in range(1, len(shares), 2)
    )


@pytest.mark.parametrize("q", range(1, 9))
def test_lumped_chain_gives_the_theory(q):
    # p_qm + (1 - 2 eps)^q bad / 2^q for every strategy on the 4 classes,
    # and p_qm for the quantum model on its 2
    eps = Fraction(3, 40)
    p_qm = failure_probability_exact(q, eps)
    assert _lumped_failure_rate(q, NEXT_QM, 0, _FAILING[None], eps) == p_qm
    for t_mask in range(1 << q):
        for a_sign in (+1, -1):
            bad = _bad_words(q, a_sign, t_mask)
            expected = p_qm + (1 - 2 * eps) ** q * Fraction(bad, 1 << q)
            rate = _lumped_failure_rate(q, _NEXT, t_mask, _FAILING[a_sign], eps)
            assert rate == expected, (t_mask, a_sign)


@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("q", QS)
def test_report_sums_the_reference(q, kind):
    for cfg, t_mask in _grid(q, kind):
        picks, counts, odd = reference_chain(cfg, t_mask)
        strategy = cfg.model.strategy if isinstance(cfg.model, LhvModel) else None
        failures = 0
        for u in range(1, len(counts), 2):
            # a quantum word (v = 1) fails on odd error parity; a
            # hidden-variable word when the parity is 1 ^ a_bit ^ (u >> 1)
            fails_at = 1 if strategy is None else 1 ^ (strategy.a_sign != +1) ^ u >> 1
            failures += odd[u] if fails_at else counts[u] - odd[u]
        report = run_experiment(cfg)
        assert report.station_r_counts == tuple(sum(row) for row in picks), cfg
        assert report.word_trials == sum(counts[1::2]), cfg
        assert report.failures == failures, cfg


class _Unscripted(Exception):
    """A draw past the end of a script: its (count, probability)."""


class _Scripted:
    """Stands in for a run's generator: its binomial draws return
    ``script`` in turn, and the first draw past it raises _Unscripted."""

    def __init__(self, script):
        self.script = iter(script)

    def binomial(self, n, p):
        drawn = next(self.script, None)
        if drawn is None:
            raise _Unscripted(n, p)
        return drawn


def _chain_law(cfg, p_odd, monkeypatch):
    """Joint law of (station_r_counts, word_trials, failures) over every
    path of the run's binomial draws, in exact rationals.

    Each path runs run_experiment on scripted draws; a draw past the script
    branches into every value it can take, weighted by its binomial pmf at
    1/2 or at the exact odd-parity probability ``p_odd``.
    """
    law = Counter()
    paths = [((), Fraction(1))]
    while paths:
        script, weight = paths.pop()
        monkeypatch.setattr(experiment, "_stream", lambda seed, key: _Scripted(script))
        try:
            report = run_experiment(cfg)
        except _Unscripted as draw:
            n, p = draw.args
            if p != 0.5:
                assert p == pytest.approx(float(p_odd), rel=1e-14)
                p = p_odd
            p = Fraction(p)
            paths += [
                (script + (k,), weight * math.comb(n, k) * p**k * (1 - p) ** (n - k))
                for k in range(n + 1)
            ]
            continue
        law[report.station_r_counts, report.word_trials, report.failures] += weight
    return law


def _configuration_law(q, trials, p_odd, strategy):
    """The same joint law from all 2^(q trials) configurations of a run,
    each trial's error parity odd with probability ``p_odd``."""
    law = Counter()
    for masks in product(range(1 << q), repeat=trials):
        for odds in product((0, 1), repeat=trials):
            weight = Fraction(1, 1 << q * trials)
            words = failures = 0
            for mask, odd in zip(masks, odds):
                weight *= p_odd if odd else 1 - p_odd
                r = mask.bit_count()
                if r & 1:
                    words += 1
                    predicted = r >> 1 & 1  # the quantum model predicts the eigenvalue
                    if strategy is not None:
                        tpar = (mask & strategy.t_mask).bit_count() & 1
                        predicted = (strategy.a_sign != +1) ^ tpar
                    failures += predicted ^ odd != r >> 1 & 1
            r_counts = tuple(sum(mask >> k & 1 for mask in masks) for k in range(q))
            law[r_counts, words, failures] += weight
    return law


@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_chain_gives_the_joint_law(q, trials, monkeypatch):
    # the whole law of a run's tallies, not its mean alone: the quantum
    # model on its 2 classes, and two strategies on the 4
    eps = Fraction(3, 40)
    p_odd = 2 * failure_probability_exact(q, eps)
    models = [(QuantumModel(NoiseModel(float(eps))), None)]
    if q <= 3:
        for strategy in (minimize_bad_words(q).strategy, CanonicalStrategy(q, -1, 1 << q - 1)):
            models.append((LhvModel(strategy, NoiseModel(float(eps))), strategy))
    for model, strategy in models:
        cfg = ExperimentConfig(q, model, trials, 0)
        expected = _configuration_law(q, trials, p_odd, strategy)
        assert _chain_law(cfg, p_odd, monkeypatch) == expected, model


class _Counting:
    """A run's generator, counting its binomial draws."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def binomial(self, n, p):
        self.calls += 1
        return self.rng.binomial(n, p)


@pytest.mark.parametrize("q", QS)
def test_draws_per_run(q, monkeypatch):
    # at most 2 draws per station and 1 at the end for the quantum model,
    # 4 and 4 for the hidden-variable model
    streams = []

    def counting(seed, key):
        streams.append(_Counting(_stream(seed, key)))
        return streams[-1]

    monkeypatch.setattr(experiment, "_stream", counting)
    for kind in MASKS:
        for cfg, _ in _grid(q, kind):
            run_experiment(cfg)
            limit = 2 * q + 1 if isinstance(cfg.model, QuantumModel) else 4 * q + 4
            assert 0 < streams[-1].calls <= limit, cfg
