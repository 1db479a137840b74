"""Monte Carlo engine: reproducibility, tallies, and the sample-size helper."""

import decimal
import math
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghzgap.asymptotics import min_trials_to_disprove
from ghzgap.configs import MAX_STATIONS, Word
from ghzgap.errors import CapacityError, DomainError
from ghzgap.experiment import (
    MAX_TRIALS,
    ExperimentConfig,
    LhvModel,
    QuantumModel,
    run_experiment,
    wilson_interval,
)
from ghzgap.oracles import REPLAY_LIMIT, OutcomeTuple, iter_trials
from ghzgap.quantum import NoiseModel
from ghzgap.strategies import CanonicalStrategy, minimize_bad_words


def qm_config(**kw):
    defaults = dict(
        q=3, model=QuantumModel(NoiseModel(0.0)), trials=10_000, master_seed=11
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestValidation:
    def test_q_bounds(self):
        with pytest.raises(DomainError):
            qm_config(q=0)
        with pytest.raises(CapacityError):
            qm_config(q=MAX_STATIONS + 1)
        assert qm_config(q=MAX_STATIONS).q == 64

    def test_trials_positive(self):
        with pytest.raises(DomainError):
            qm_config(trials=0)

    def test_trials_capped(self):
        assert qm_config(trials=MAX_TRIALS).trials == 1 << 62
        with pytest.raises(DomainError):
            qm_config(trials=MAX_TRIALS + 1)

    def test_seed_is_64_bit(self):
        with pytest.raises(DomainError):
            qm_config(master_seed=-1)
        with pytest.raises(DomainError):
            qm_config(master_seed=1 << 64)
        qm_config(master_seed=(1 << 64) - 1)

    def test_strategy_q_must_match(self):
        strategy = CanonicalStrategy(q=4, a_sign=+1, t_mask=0)
        with pytest.raises(DomainError):
            qm_config(model=LhvModel(strategy=strategy))


class TestReproducibility:
    def test_same_seed_same_report(self):
        a = run_experiment(qm_config(model=QuantumModel(NoiseModel(0.2))))
        b = run_experiment(qm_config(model=QuantumModel(NoiseModel(0.2))))
        assert a == b

    def test_worker_count_is_irrelevant(self):
        cfg = qm_config(
            model=QuantumModel(NoiseModel(0.05)), trials=3 * 65536 + 17
        )
        reports = {run_experiment(cfg, workers=w) for w in (1, 2, 4, 8)}
        assert len(reports) == 1

    def test_different_seeds_differ(self):
        noisy = QuantumModel(NoiseModel(0.2))
        a = run_experiment(qm_config(model=noisy, master_seed=1, trials=100_000))
        b = run_experiment(qm_config(model=noisy, master_seed=2, trials=100_000))
        assert a.failures != b.failures

    @pytest.mark.parametrize("q", [1, 3, 11, 12, 13, 64])
    @pytest.mark.parametrize(
        "model",
        [QuantumModel(), QuantumModel(NoiseModel(0.05)), LhvModel(noise=NoiseModel(0.05))],
        ids=["qm", "qm-noisy", "lhv-noisy"],
    )
    def test_chunks_reuse_thread_buffers(self, model, q):
        # (named for the chunk kernel it first guarded) a run's memory does
        # not grow with its trials: it holds class counts, never a trial
        cfg = qm_config(q=q, model=model, trials=4 * 65536 + 5)
        run_experiment(cfg, workers=1)  # warm-up
        tracemalloc.start()
        try:
            run_experiment(cfg, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a trial-sized temporary would take at least one byte per trial
        assert peak < 65536

    def test_concurrent_callers_get_their_sequential_reports(self):
        # each run draws from its own generator; shared state between
        # calls would mix the draws of the two runs
        trials = 3 * 65536 + 11
        configs = [
            qm_config(q=10, model=QuantumModel(NoiseModel(0.05)), trials=trials),
            qm_config(q=64, model=LhvModel(noise=NoiseModel(0.05)), trials=trials),
        ]
        expected = [run_experiment(cfg) for cfg in configs]
        start = threading.Barrier(len(configs))
        results = [[] for _ in configs]

        def call(i):
            start.wait(timeout=60)
            for _ in range(4):
                results[i].append(run_experiment(configs[i]))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the lock over often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[report] * 4 for report in expected]

    def test_thread_pool_gives_the_sequential_reports(self):
        # every run builds its own generator from its seed, so running on a
        # pool cannot change a report; long (large-q) runs give the threads
        # time to switch inside a run
        configs = [
            qm_config(q=q, model=model, trials=trials, master_seed=seed)
            for q, model, trials, seed in [
                (3, QuantumModel(), 10_000, 0),
                (33, QuantumModel(NoiseModel(0.01)), 65536 + 7, 1),
                (64, QuantumModel(NoiseModel(0.05)), 1 << 40, (1 << 64) - 1),
                (64, QuantumModel(NoiseModel(0.2)), 999, 1 << 63),
                (10, LhvModel(), 10_000, 0),
                (33, LhvModel(noise=NoiseModel(0.01)), 65536 + 7, 1),
                (64, LhvModel(noise=NoiseModel(0.05)), 1 << 40, (1 << 63) - 1),
                (64, LhvModel(CanonicalStrategy(64, -1, 0xF0F0F0F0F0F0F0F)), 4321, 12345),
            ]
        ]
        expected = [run_experiment(cfg) for cfg in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the lock over inside runs
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run_experiment, cfg) for cfg in configs * 8]
                reports = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert reports == expected * 8


class TestTallies:
    def test_ideal_qm_never_fails(self):
        report = run_experiment(qm_config(trials=100_000))
        assert report.failures == 0
        assert report.theory == 0.0

    def test_counts_are_consistent(self):
        report = run_experiment(qm_config(model=QuantumModel(NoiseModel(0.3))))
        assert report.word_trials + report.string_trials == report.trials
        assert 0 <= report.failures <= report.word_trials
        assert report.failure_rate == report.failures / report.trials

    def test_word_fraction_near_half(self):
        report = run_experiment(qm_config(trials=100_000))
        assert abs(report.word_trials / report.trials - 0.5) < 3 * 0.5 / math.sqrt(
            100_000
        )

    def test_station_marginals_near_half(self):
        report = run_experiment(qm_config(q=5, trials=100_000))
        for count in report.station_r_counts:
            assert abs(count / report.trials - 0.5) < 3 * 0.5 / math.sqrt(100_000)

    def test_lhv_optimal_q3_rate(self):
        cfg = qm_config(model=LhvModel(), trials=1_000_000, ci_level=0.99)
        report = run_experiment(cfg)
        assert report.theory == 0.125
        assert report.ci_low <= 0.125 <= report.ci_high

    def test_lhv_fixed_strategy_rate(self):
        # a deliberately poor strategy: all answers -1 at q=3 misses 3 words
        strategy = CanonicalStrategy(q=3, a_sign=-1, t_mask=0)
        cfg = qm_config(
            model=LhvModel(strategy=strategy), trials=500_000, ci_level=0.99
        )
        report = run_experiment(cfg)
        assert report.theory == pytest.approx(3 / 8)
        assert report.ci_low <= 3 / 8 <= report.ci_high

    def test_lhv_with_noise_moves_toward_quantum(self):
        quiet = run_experiment(qm_config(model=LhvModel(), trials=400_000))
        noisy = run_experiment(
            qm_config(model=LhvModel(noise=NoiseModel(0.25)), trials=400_000)
        )
        # attenuation pulls the failure rate from 1/8 toward the quantum 0.2344
        assert noisy.failure_rate > quiet.failure_rate
        assert noisy.ci_low <= noisy.theory <= noisy.ci_high

    def test_report_carries_resolved_strategy(self):
        assert run_experiment(qm_config()).strategy is None
        report = run_experiment(qm_config(q=6, model=LhvModel()))
        assert report.strategy == minimize_bad_words(6).strategy
        fixed = CanonicalStrategy(q=3, a_sign=-1, t_mask=0b101)
        assert run_experiment(qm_config(model=LhvModel(strategy=fixed))).strategy == fixed


class TestTrialIteration:
    def test_matches_aggregate_run(self):
        cases = [
            qm_config(model=QuantumModel(NoiseModel(0.15)), trials=2_000),
            qm_config(q=9, model=QuantumModel(NoiseModel(0.05)), trials=65536 + 300),
            qm_config(q=5, model=LhvModel(noise=NoiseModel(0.1)), trials=65536 + 300),
            qm_config(q=25, model=LhvModel(noise=NoiseModel(0.05)), trials=65536 + 300),
            qm_config(q=1, model=QuantumModel(NoiseModel(0.1)), trials=65536 + 300),
            qm_config(q=1, model=LhvModel(noise=NoiseModel(0.1)), trials=65536 + 300),
            qm_config(q=11, model=QuantumModel(NoiseModel(0.05)), trials=65536 + 300),
            qm_config(q=11, model=LhvModel(noise=NoiseModel(0.05)), trials=65536 + 300),
            qm_config(q=11, model=LhvModel(), trials=65536 + 300),
            qm_config(q=12, model=LhvModel(noise=NoiseModel(0.05)), trials=65536 + 300),
            qm_config(q=64, model=LhvModel(noise=NoiseModel(0.05)), trials=5_000),
            qm_config(q=64, model=QuantumModel(NoiseModel(0.05)), trials=5_000),
            qm_config(q=10, model=QuantumModel(), trials=5_000),
        ]
        for cfg in cases:
            report = run_experiment(cfg)
            records = list(iter_trials(cfg))
            assert len(records) == cfg.trials
            assert sum(r.failure for r in records) == report.failures
            assert sum(
                1 for r in records if isinstance(r.config_class, Word)
            ) == report.word_trials
            masks = np.array([r.configuration.r_mask for r in records], dtype=np.uint64)
            bits = masks[:, None] >> np.arange(cfg.q, dtype=np.uint64) & np.uint64(1)
            assert tuple(bits.sum(axis=0).tolist()) == report.station_r_counts

    def test_failure_only_on_words(self):
        cfg = qm_config(model=QuantumModel(NoiseModel(0.4)), trials=3_000)
        for record in iter_trials(cfg):
            if record.failure:
                assert isinstance(record.config_class, Word)
                assert record.outcome.total != record.config_class.eigenvalue
            if not isinstance(record.config_class, Word):
                assert not record.failure

    def test_qm_outcomes_are_tuples(self):
        records = list(iter_trials(qm_config(trials=50)))
        assert all(isinstance(r.outcome, OutcomeTuple) for r in records)
        assert all(r.outcome.q == 3 for r in records)

    def test_lhv_outcomes_are_totals(self):
        cfg = qm_config(model=LhvModel(), trials=200)
        for record in iter_trials(cfg):
            assert record.outcome in (+1, -1)
            if isinstance(record.config_class, Word) and not record.failure:
                assert record.outcome == record.config_class.eigenvalue

    def test_records_match_the_strategy(self):
        # each record's total is the played table's, inverted by odd error
        # parity; noiseless, it is a_sign * (-1)^popcount(mask & t_mask)
        rnd = random.Random("replay-strategy")
        for q in (2, 5, 12, 64):
            for eps in (0.0, 0.1):
                t_mask = rnd.getrandbits(q) | 1 | 1 << q - 1
                strategy = CanonicalStrategy(q, rnd.choice((+1, -1)), t_mask)
                cfg = qm_config(
                    q=q, model=LhvModel(strategy, NoiseModel(eps)), trials=3_000,
                    master_seed=rnd.getrandbits(64),
                )
                for record in iter_trials(cfg):
                    if eps == 0.0:
                        tpar = (record.configuration.r_mask & t_mask).bit_count() & 1
                        assert record.outcome == strategy.a_sign * (-1) ** tpar
                    kind = record.config_class
                    missed = isinstance(kind, Word) and record.outcome != kind.eigenvalue
                    assert record.failure == missed, (cfg, record)

    def test_spans_chunk_boundary(self):
        cfg = qm_config(model=QuantumModel(NoiseModel(0.1)), trials=65536 + 5)
        records = list(iter_trials(cfg))
        assert len(records) == 65536 + 5
        assert records[-1].index == 65536 + 4

    def test_replay_size_capped(self):
        # refused before the chain or any per-trial array is drawn
        with pytest.raises(CapacityError, match=str(REPLAY_LIMIT)):
            next(iter_trials(qm_config(q=64, trials=REPLAY_LIMIT + 1)))
        assert next(iter_trials(qm_config(trials=REPLAY_LIMIT))).index == 0


class TestWilson:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(123, 1000)
        assert low < 0.123 < high

    def test_zero_and_full_counts(self):
        low, high = wilson_interval(0, 500)
        assert low == 0.0 and 0 < high < 0.03
        low, high = wilson_interval(500, 500)
        assert 0.97 < low < 1 and high == 1.0

    def test_higher_level_is_wider(self):
        narrow = wilson_interval(50, 1000, 0.9)
        wide = wilson_interval(50, 1000, 0.999)
        assert wide[0] < narrow[0] < narrow[1] < wide[1]

    @given(
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.5, max_value=0.999),
    )
    def test_bounds_stay_in_unit_interval(self, successes, level):
        low, high = wilson_interval(successes, 1000, level)
        assert 0.0 <= low <= successes / 1000 <= high <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            wilson_interval(5, 0)
        with pytest.raises(DomainError):
            wilson_interval(6, 5)
        with pytest.raises(DomainError):
            wilson_interval(1, 5, 1.0)


class TestSampleSizes:
    def test_known_values(self):
        assert min_trials_to_disprove(0.125, 0.99) == 35
        assert min_trials_to_disprove(1.0, 0.99) == 1
        assert min_trials_to_disprove(0.5, 0.99) == 7

    def test_exact_boundary(self):
        # confidence 1 - 2^-7 sits exactly on the n = 7 boundary at p = 1/2
        assert min_trials_to_disprove(0.5, 1 - 2**-7) == 7

    # The float ceiling of the log ratio lands one step off the answer, so
    # only the exact settle gets these right: above it where (1 - p)^N is
    # exactly 1 - c (6, 4, 10), below it in the last case (4).
    @pytest.mark.parametrize(
        "p, c, n",
        [
            (0.5, 0.96875, 5),
            (0.25, 0.578125, 3),
            (0.5, 0.998046875, 9),
            (0.15910358474628544, 0.5, 5),
        ],
    )
    def test_exact_settle_both_ways(self, p, c, n):
        assert min_trials_to_disprove(p, c) == n
        assert (1 - Fraction(p)) ** n <= 1 - Fraction(c) < (1 - Fraction(p)) ** (n - 1)

    def test_tiny_failure_probability(self):
        # 1 - p rounds to 1.0 here, so log(1 - p) would be 0
        n = min_trials_to_disprove(1e-20, 0.99)
        assert isinstance(n, int)
        assert n == pytest.approx(math.log(100) / 1e-20, rel=1e-9)

    def test_subnormal_failure_probability(self):
        # the ratio of logs overflows a float; the answer is still exact
        n = min_trials_to_disprove(5e-324, 0.99)
        expected = Fraction(math.log(100)) / Fraction(5e-324)
        assert abs(n - expected) <= Fraction(1, 10**9) * expected

    def test_fraction_below_the_floats(self):
        # log1p(-p) rounds to -0.0 here; -p stands in for it
        n = min_trials_to_disprove(Fraction(1, 10**400), 0.5)
        ctx = decimal.Context(prec=60)
        expected = ctx.multiply(ctx.ln(2), ctx.power(10, 400))
        assert abs(decimal.Decimal(n) - expected) <= decimal.Decimal("1e-9") * expected

    def test_zero_rate_has_no_finite_answer(self):
        with pytest.raises(DomainError):
            min_trials_to_disprove(0.0, 0.99)

    def test_monotone_in_confidence(self):
        ns = [min_trials_to_disprove(0.125, c) for c in (0.9, 0.99, 0.999)]
        assert ns[0] < ns[1] < ns[2]
