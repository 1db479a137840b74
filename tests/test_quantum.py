"""Failure-probability algebra, the outcome sampler, and the state-vector oracle."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from ghzgap.configs import classify, enumerate_configurations, parse_configuration, Word
from ghzgap.errors import CapacityError, DomainError
from ghzgap.configs import EXACT_POWER_BITS
from ghzgap.oracles import (
    SUM_LIMIT,
    OutcomeTuple,
    entangled_state,
    failure_probability_exact,
    failure_probability_sum,
    joint_outcome_probabilities,
    product_observable_expectation,
    sample_outcome_batch,
    statevector_oracle,
)
from ghzgap.quantum import (
    NoiseModel,
    failure_probability_closed,
    parity_attenuation,
    sample_parity_tuples,
    sample_result_bits,
)

EPS_GRID = (0.0, 1e-6, 0.01, 0.1, 0.25, 0.5)
#: Both sides of every word size the packed sampler draws in (8 to 64 bits).
PACKED_QS = (1, 2, 8, 9, 16, 17, 32, 33, 64)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestNoiseModel:
    def test_bounds(self):
        NoiseModel(0.0)
        NoiseModel(0.5)
        with pytest.raises(DomainError):
            NoiseModel(-0.01)
        with pytest.raises(DomainError):
            NoiseModel(0.51)

    def test_negative_zero_becomes_zero(self):
        epsilon = NoiseModel(-0.0).epsilon
        assert epsilon == 0.0 and math.copysign(1.0, epsilon) == 1.0
        assert math.copysign(1.0, failure_probability_closed(2, NoiseModel(-0.0))) == 1.0


class TestFailureProbability:
    def test_no_error_terms_at_zero(self):
        assert failure_probability_sum(3, NoiseModel(0.0)) == 0.0

    def test_q3_point_one(self):
        # 0.5 * (3 * 0.1 * 0.81 + 0.001)
        assert failure_probability_sum(3, NoiseModel(0.1)) == pytest.approx(
            0.122, abs=1e-15
        )
        assert failure_probability_closed(3, NoiseModel(0.1)) == pytest.approx(
            0.122, abs=1e-15
        )

    def test_half_error_saturates(self):
        for q in (1, 2, 7, 40):
            assert failure_probability_sum(q, NoiseModel(0.5)) == pytest.approx(0.25)
            assert failure_probability_closed(q, NoiseModel(0.5)) == 0.25

    def test_single_station_is_half_eps(self):
        for eps in (0.1, 0.3):
            assert failure_probability_closed(1, NoiseModel(eps)) == pytest.approx(
                eps / 2
            )

    def test_sum_and_closed_agree(self):
        for q in range(1, 65):
            for eps in EPS_GRID:
                noise = NoiseModel(eps)
                delta = abs(
                    failure_probability_sum(q, noise)
                    - failure_probability_closed(q, noise)
                )
                assert delta <= 1e-12, (q, eps, delta)

    def test_huge_q_saturates_without_underflow(self):
        value = failure_probability_closed(1e6, NoiseModel(0.01))
        assert value == pytest.approx(0.25, rel=1e-10)
        assert failure_probability_closed(4e27, NoiseModel(6e-28)) < 0.25

    def test_monotone_in_eps_and_q(self):
        grid = [i / 200 for i in range(101)]
        values = [failure_probability_closed(11, NoiseModel(e)) for e in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        by_q = [failure_probability_closed(q, NoiseModel(0.05)) for q in range(1, 200)]
        assert all(a < b for a, b in zip(by_q, by_q[1:]))

    def test_exact_rational_form(self):
        assert failure_probability_exact(3, Fraction(1, 10)) == Fraction(61, 500)
        assert float(failure_probability_exact(3, Fraction(1, 10))) == pytest.approx(
            0.122
        )
        assert failure_probability_exact(5, Fraction(0)) == 0

    def test_exact_form_takes_a_float_as_its_exact_rational(self):
        got = failure_probability_exact(3, 0.1)
        assert type(got) is Fraction
        assert got == Fraction(1, 4) - Fraction(1, 4) * (1 - 2 * Fraction(0.1)) ** 3

    def test_q_zero_rejected(self):
        with pytest.raises(DomainError):
            failure_probability_sum(0, NoiseModel(0.1))

    @pytest.mark.parametrize(
        "q, eps",
        [
            (3, Fraction(3, 4)),
            (3, Fraction(-1, 10)),
            (3, Fraction(-1)),
            (3, Fraction(51, 100)),
            (0, Fraction(1, 10)),
        ],
    )
    def test_exact_form_checks_domain(self, q, eps):
        with pytest.raises(DomainError):
            failure_probability_exact(q, eps)

    @pytest.mark.parametrize("q", [2.5, 2.0, math.inf, math.nan, Fraction(5, 2)])
    def test_non_integral_q_rejected(self, q):
        with pytest.raises(DomainError):
            failure_probability_sum(q, NoiseModel(0.1))
        with pytest.raises(DomainError):
            failure_probability_exact(q, Fraction(1, 10))

    @pytest.mark.parametrize("q, eps", [(2000, 0.1), (2000, 0.01), (100_000, 0.1)])
    def test_sum_holds_past_the_float_range(self, q, eps):
        # comb(2000, j) * eps**j overflows a float; the log-domain terms do not
        got = failure_probability_sum(q, NoiseModel(eps))
        assert got == pytest.approx(failure_probability_closed(q, NoiseModel(eps)), rel=1e-9)

    def test_sum_matches_exact_form_at_large_q(self):
        exact = float(failure_probability_exact(2000, Fraction(1, 10)))
        assert failure_probability_sum(2000, NoiseModel(0.1)) == pytest.approx(exact, rel=1e-11)

    def test_sum_capped(self):
        for q in (SUM_LIMIT + 1, 10**400):
            with pytest.raises(CapacityError):
                failure_probability_sum(q, NoiseModel(0.1))

    @pytest.mark.parametrize(
        "q, eps",
        [
            (EXACT_POWER_BITS + 1, Fraction(0)),
            (10**400, Fraction(1, 10)),
            (EXACT_POWER_BITS // 4 + 1, Fraction(1, 10)),
            (5000, Fraction(1, 10**400)),
        ],
    )
    def test_exact_form_capped(self, q, eps):
        # the power (1 - 2 eps)^q would hold about q * bits(denominator) bits
        with pytest.raises(CapacityError):
            failure_probability_exact(q, eps)

    def test_exact_form_below_cap(self):
        assert failure_probability_exact(EXACT_POWER_BITS, Fraction(0)) == 0
        assert 0 < failure_probability_exact(3000, Fraction(1, 10**400)) < Fraction(1, 10**396)

    def test_relative_accuracy_at_tiny_eps(self):
        # 1/4 - (1/4)(1 - 2 eps)^q cancels almost every digit at eps = 1e-12;
        # the expm1/log1p form keeps them all
        eps = Fraction(1, 10**12)
        noise = NoiseModel(1e-12)
        for q in range(1, 2001):
            exact = float(failure_probability_exact(q, eps))
            got = failure_probability_closed(q, noise)
            assert abs(got - exact) <= 1e-12 * exact, (q, got, exact)

    def test_relative_accuracy_down_to_smallest_eps(self):
        for eps in (1e-300, 1e-100, 1e-20):
            assert failure_probability_closed(3, NoiseModel(eps)) == pytest.approx(
                1.5 * eps, rel=1e-12, abs=0.0
            )

    def test_attenuation_log_domain_continuity(self):
        # attenuation is continuous in real q around q = 1000
        noise = NoiseModel(1e-4)
        assert parity_attenuation(1000, noise) == pytest.approx(
            parity_attenuation(1000.0000001, noise), rel=1e-9
        )


class TestOutcomeTuple:
    def test_total(self):
        assert OutcomeTuple((1, -1, -1)).total == 1
        assert OutcomeTuple((1, -1, 1)).total == -1

    def test_rejects_other_values(self):
        with pytest.raises(DomainError):
            OutcomeTuple((1, 0, -1))


class TestSampler:
    def test_word_total_is_eigenvalue_without_noise(self):
        for text in ("llr", "rrr", "rlrrl"):
            config = parse_configuration(text)
            eigen = classify(config).eigenvalue
            signs = sample_outcome_batch(config, NoiseModel(0.0), rng(1), 4000)
            assert (np.prod(signs, axis=1) == eigen).all()

    def test_string_total_is_fair_coin(self):
        config = parse_configuration("lll")
        signs = sample_outcome_batch(config, NoiseModel(0.0), rng(2), 100_000)
        mean = np.prod(signs, axis=1).mean()
        assert abs(mean) < 3 / math.sqrt(100_000)

    def test_marginals_uniform_even_for_words(self):
        config = parse_configuration("llr")
        signs = sample_outcome_batch(config, NoiseModel(0.0), rng(3), 100_000)
        assert (np.abs(signs.mean(axis=0)) < 3 / math.sqrt(100_000)).all()

    def test_full_noise_decorrelates_words(self):
        config = parse_configuration("llr")
        signs = sample_outcome_batch(config, NoiseModel(0.5), rng(4), 100_000)
        frac_minus = (np.prod(signs, axis=1) == -1).mean()
        assert abs(frac_minus - 0.5) < 3 * 0.5 / math.sqrt(100_000)

    def test_single_draw_shape(self):
        signs = sample_outcome_batch(parse_configuration("lrlr"), NoiseModel(0.0), rng(5), 1)
        assert signs.shape == (1, 4)
        assert set(signs[0].tolist()) <= {1, -1}

    def test_word_failure_rate_matches_theory(self):
        config = parse_configuration("rrr")
        noise = NoiseModel(0.1)
        n = 200_000
        signs = sample_outcome_batch(config, noise, rng(6), n)
        failures = (np.prod(signs, axis=1) == 1).mean()  # eigenvalue is -1
        p = 0.5 * (1 - (1 - 2 * 0.1) ** 3)
        assert abs(failures - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_noisy_law_matches_state_vector_with_flips(self):
        # exact law: the state-vector law pushed through independent flips,
        # one [[1-eps, eps], [eps, 1-eps]] channel per station
        eps, draws = 0.1, 200_000
        flip = np.array([[1 - eps, eps], [eps, 1 - eps]])
        gen = rng(41)
        for q in range(1, 5):
            channel = functools.reduce(np.kron, [flip] * q)
            weights = 1 << (q - 1 - np.arange(q))
            for config in enumerate_configurations(q):
                law = channel @ joint_outcome_probabilities(config).ravel()
                signs = sample_outcome_batch(config, NoiseModel(eps), gen, draws)
                index = (signs == -1).astype(np.int64) @ weights
                observed = np.bincount(index, minlength=1 << q)
                p_value = stats.chisquare(observed, f_exp=law * draws).pvalue
                assert p_value > 1e-3, (config.text(), p_value)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("text", ["l", "r", "lr", "rrr", "llr", "rlrl", "rrrrr", "lrrlrr"])
    def test_batch_matches_tiled_rows(self, text, eps):
        # oracle: the batch equals its configuration tiled into n bit rows
        # and drawn through sample_result_bits from the same stream
        config = parse_configuration(text)
        row = np.array([config.r_mask >> k & 1 for k in range(config.q)], dtype=np.uint8)
        n = 3000
        noise = NoiseModel(eps)
        tiled = sample_result_bits(np.tile(row, (n, 1)), noise, rng(17))
        batch = sample_outcome_batch(config, noise, rng(17), n)
        assert batch.shape == (n, config.q) and batch.dtype == np.int8
        assert np.array_equal(batch, 1 - 2 * tiled.astype(np.int8))

    @pytest.mark.parametrize("q, error", [(0, DomainError), (65, CapacityError)])
    def test_result_bits_need_1_to_64_stations(self, q, error):
        # one packed word per row holds at most 64 stations
        with pytest.raises(error, match="station count"):
            sample_result_bits(np.zeros((3, q), dtype=np.uint8), NoiseModel(0.1), rng(11))

    @pytest.mark.parametrize("q", PACKED_QS)
    def test_parity_tuples(self, q):
        n = 10_000
        gen = rng(8)
        parity = gen.integers(0, 2, size=n, dtype=np.uint8)
        fixed = np.arange(n) % 3 != 0
        bits = sample_parity_tuples(q, parity, fixed, gen)
        assert bits.shape == (n, q) and bits.dtype == np.uint8
        row_parity = bits.sum(axis=1) & 1
        assert (row_parity[fixed] == parity[fixed]).all()
        free = row_parity[~fixed] != parity[~fixed]
        assert abs(free.mean() - 0.5) < 4 * 0.5 / math.sqrt(free.size)
        # every station's result is a fair coin, the last one's too
        assert (np.abs(bits.mean(axis=0) - 0.5) < 4 * 0.5 / math.sqrt(n)).all()

    @pytest.mark.parametrize("q", PACKED_QS)
    def test_parity_tuples_fix_only_the_last_station(self, q):
        # oracle: the same stream's q-bit words, unpacked by Python int
        # shifts (station k+1 at bit k), with bit q-1 flipped where a fixed
        # row's popcount misses its parity
        n = 2000
        parity = rng(9).integers(0, 2, size=n, dtype=np.uint8)
        fixed = np.arange(n) % 3 != 0
        dtype = np.min_scalar_type((1 << q) - 1)
        words = rng(10).integers(0, (1 << q) - 1, size=n, dtype=dtype, endpoint=True)
        expected = []
        for word, want, fix in zip(words.tolist(), parity.tolist(), fixed.tolist()):
            if fix and word.bit_count() & 1 != want:
                word ^= 1 << (q - 1)
            expected.append([word >> k & 1 for k in range(q)])
        assert sample_parity_tuples(q, parity, fixed, rng(10)).tolist() == expected


class TestOracle:
    def test_state_norm_and_support(self):
        psi = entangled_state(4)
        assert np.vdot(psi, psi).real == pytest.approx(1.0)
        assert abs(psi[0, 0, 0, 0]) == pytest.approx(1 / math.sqrt(2))
        assert psi[1, 1, 1, 1] == pytest.approx(1j / math.sqrt(2))
        assert np.count_nonzero(psi) == 2

    def test_expectations_match_taxonomy(self):
        for q in range(1, 7):
            report = statevector_oracle(q)
            assert report.max_expectation_error <= 1e-12
            assert report.max_law_error <= 1e-12

    def test_named_expectations(self):
        assert product_observable_expectation(
            parse_configuration("llr")
        ) == pytest.approx(1.0)
        assert product_observable_expectation(
            parse_configuration("lll")
        ) == pytest.approx(0.0, abs=1e-14)
        assert product_observable_expectation(
            parse_configuration("lr")
        ) == pytest.approx(1.0)
        assert product_observable_expectation(
            parse_configuration("rrr")
        ) == pytest.approx(-1.0)

    def test_joint_law_word_support(self):
        probs = joint_outcome_probabilities(parse_configuration("llr"))
        # support only where the sign product is +1, uniform at 2^(1-q)
        for idx in np.ndindex(*probs.shape):
            parity = sum(idx) % 2
            if parity == 0:
                assert probs[idx] == pytest.approx(0.25)
            else:
                assert probs[idx] == pytest.approx(0.0, abs=1e-15)

    def test_joint_law_string_uniform(self):
        probs = joint_outcome_probabilities(parse_configuration("rr"))
        assert probs == pytest.approx(np.full((2, 2), 0.25))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            statevector_oracle(9)
        with pytest.raises(CapacityError):
            entangled_state(9)
