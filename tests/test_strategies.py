"""Deterministic-strategy counting: naive, closed-form, and brute-force routes."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ghzgap.configs import (
    Configuration,
    enumerate_configurations,
    enumerate_words,
    parse_configuration,
    word_eigenvalue,
)
from ghzgap.errors import CapacityError, DomainError
from ghzgap.oracles import (
    BRUTE_FORCE_LIMIT,
    DeterministicStrategy,
    canonicalize,
    mermin_sum,
    minimize_bad_words_brute_force,
)
from ghzgap.strategies import (
    CanonicalStrategy,
    bad_word_count_analytic,
    bad_word_count_naive,
    max_classical_mermin_sum,
    mermin_bound,
    minimize_bad_words,
    predict_total,
)


def bad_word_count_double_sum(q, a_sign, m):
    """Bad words of a class by grouping words on (r count R, overlap j with T).

    A word with R r-stations, j of them among the m disagreeing stations, is
    predicted as a_sign * (-1)**j, and there are C(m, j) * C(q - m, R - j) of
    them. O(q^2) big-integer terms; an oracle for the closed form.
    """
    total = 0
    for r in range(1, q + 1, 2):
        eigenvalue = word_eigenvalue(r)
        for j in range(0, min(m, r) + 1):
            if r - j > q - m:
                continue
            prediction = a_sign if j % 2 == 0 else -a_sign
            if prediction != eigenvalue:
                total += math.comb(m, j) * math.comb(q - m, r - j)
    return total


def mermin_sum_enumerated(strategy):
    """Sum over every word of eigenvalue times predicted total; the route
    mermin_sum once offered as method="enumerate", kept as its oracle."""
    return sum(
        eigenvalue * predict_total(strategy, config)
        for config, eigenvalue in enumerate_words(strategy.q)
    )


def full_scan_minimum(q):
    """(bad_count, m, a_sign) over every m in 0..q, smallest m then +1 on ties."""
    best = None
    for m in range(q + 1):
        for a_sign in (+1, -1):
            count = bad_word_count_analytic(q, a_sign, m)
            if best is None or count < best[0]:
                best = (count, m, a_sign)
    return best


def all_raw_strategies(q):
    pairs = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
    for answers in itertools.product(pairs, repeat=q):
        yield DeterministicStrategy(q=q, answers=answers)


class TestCanonicalReduction:
    def test_exhaustive_equivalence_small_q(self):
        # every raw strategy must predict identically to its canonical form
        for q in (1, 2, 3, 4):
            configs = list(enumerate_configurations(q))
            for raw in all_raw_strategies(q):
                reduced = canonicalize(raw)
                for config in configs:
                    assert raw.predict_total(config) == predict_total(reduced, config)

    @settings(max_examples=60)
    @given(st.integers(min_value=5, max_value=8), st.data())
    def test_sampled_equivalence_larger_q(self, q, data):
        sign = st.sampled_from([+1, -1])
        answers = tuple(
            (data.draw(sign), data.draw(sign)) for _ in range(q)
        )
        raw = DeterministicStrategy(q=q, answers=answers)
        reduced = canonicalize(raw)
        mask = data.draw(st.integers(min_value=0, max_value=(1 << q) - 1))
        config = next(
            c for c in enumerate_configurations(q) if c.r_mask == mask
        )
        assert raw.predict_total(config) == predict_total(reduced, config)

    def test_from_masks_bit_convention(self):
        raw = DeterministicStrategy.from_masks(3, a_mask=0b001, b_mask=0b110)
        assert raw.answers == ((-1, +1), (+1, -1), (+1, -1))


class TestBadWordCounts:
    def test_all_plus_q3_misses_only_rrr(self):
        report = bad_word_count_naive(canonicalize(DeterministicStrategy.from_masks(3, 0, 0)))
        assert report.bad_count == 1
        assert [c.text() for c in report.bad_words] == ["rrr"]

    def test_analytic_matches_naive_everywhere(self):
        for q in range(1, 13):
            for m in range(q + 1):
                for a_sign in (+1, -1):
                    strategy = CanonicalStrategy(q=q, a_sign=a_sign, t_mask=(1 << m) - 1)
                    naive = bad_word_count_naive(strategy, list_words=False)
                    assert (
                        bad_word_count_analytic(q, a_sign, m) == naive.bad_count
                    ), (q, m, a_sign)

    def test_closed_form_matches_double_sum_small_q(self):
        for q in range(1, 41):
            for m in range(q + 1):
                for a_sign in (+1, -1):
                    assert bad_word_count_analytic(
                        q, a_sign, m
                    ) == bad_word_count_double_sum(q, a_sign, m), (q, m, a_sign)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300).flatmap(
            lambda q: st.tuples(st.just(q), st.integers(min_value=0, max_value=q))
        ),
        st.sampled_from([+1, -1]),
    )
    def test_closed_form_matches_double_sum(self, q_and_m, a_sign):
        q, m = q_and_m
        assert bad_word_count_analytic(q, a_sign, m) == bad_word_count_double_sum(
            q, a_sign, m
        )

    def test_closed_form_period_four_in_m(self):
        for q in (57, 200, 1001):
            for m in range(q - 3):
                for a_sign in (+1, -1):
                    assert bad_word_count_analytic(
                        q, a_sign, m
                    ) == bad_word_count_analytic(q, a_sign, m + 4)

    def test_closed_form_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            bad_word_count_analytic(5, 0, 1)
        with pytest.raises(DomainError):
            bad_word_count_analytic(5, +1, 6)
        with pytest.raises(DomainError):
            bad_word_count_analytic(0, +1, 0)

    def test_count_depends_only_on_m_not_mask_layout(self):
        q = 6
        for mask in (0b000111, 0b101010, 0b110100):
            strategy = CanonicalStrategy(q=q, a_sign=-1, t_mask=mask)
            assert (
                bad_word_count_naive(strategy, list_words=False).bad_count
                == bad_word_count_analytic(q, -1, 3)
            )


class TestMinimizer:
    def test_matches_bound_analytic(self):
        for q in range(2, 2001):
            assert minimize_bad_words(q).bad_count == mermin_bound(q), q

    def test_matches_full_scan_small_q(self):
        for q in range(1, 130):
            self._assert_matches_full_scan(q)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=130, max_value=2000))
    def test_matches_full_scan(self, q):
        self._assert_matches_full_scan(q)

    @staticmethod
    def _assert_matches_full_scan(q):
        bad, m, a_sign = full_scan_minimum(q)
        report = minimize_bad_words(q)
        assert (report.bad_count, report.strategy.a_sign, report.strategy.t_mask) == (
            bad,
            a_sign,
            (1 << m) - 1,
        ), q
        assert report.probability == Fraction(bad, 1 << q)

    def test_matches_bound_brute_force(self):
        for q in range(2, BRUTE_FORCE_LIMIT + 1):
            assert minimize_bad_words_brute_force(q).bad_count == mermin_bound(q)

    def test_q3_failure_probability_is_one_eighth(self):
        report = minimize_bad_words(3)
        assert report.bad_count == 1
        assert report.probability == pytest.approx(0.125)
        assert (report.probability.numerator, report.probability.denominator) == (1, 8)

    def test_brute_force_cap(self):
        with pytest.raises(CapacityError):
            minimize_bad_words_brute_force(9)

    def test_bound_values(self):
        # even branch 2^(q-2) - 2^((q-2)/2); odd branch 2^(q-2) - 2^((q-3)/2)
        assert [mermin_bound(q) for q in range(2, 11)] == [
            0, 1, 2, 6, 12, 28, 56, 120, 240,
        ]

    def test_deterministic_tie_break(self):
        a = minimize_bad_words(5)
        b = minimize_bad_words(5)
        assert a.strategy == b.strategy


class TestMerminSum:
    def test_identity_with_bad_count(self):
        # sum over words of eigenvalue * prediction = words - 2 * misses
        for q in range(2, 11):
            for m in range(q + 1):
                strategy = CanonicalStrategy(q=q, a_sign=+1, t_mask=(1 << m) - 1)
                bad = bad_word_count_naive(strategy, list_words=False).bad_count
                assert mermin_sum(strategy) == 2 ** (q - 1) - 2 * bad

    def test_enumerate_and_analytic_routes_agree(self):
        for q in range(1, 11):
            for a_sign in (+1, -1):
                for t_mask in {0, 1, (1 << q) - 1, 0b10110 & ((1 << q) - 1)}:
                    strategy = CanonicalStrategy(q=q, a_sign=a_sign, t_mask=t_mask)
                    assert mermin_sum(strategy) == mermin_sum_enumerated(strategy)

    def test_max_classical_values(self):
        for q in range(2, 21):
            expected = 2 ** (q // 2) if q % 2 == 0 else 2 ** ((q - 1) // 2)
            assert max_classical_mermin_sum(q) == expected

    def test_q3_optimum_reaches_two(self):
        assert max_classical_mermin_sum(3) == 2

    def test_perfect_prediction_unattainable(self):
        # no strategy class reaches the full word count for q >= 3
        q = 3
        best = max(
            mermin_sum(CanonicalStrategy(q=q, a_sign=a, t_mask=(1 << m) - 1))
            for a in (+1, -1)
            for m in range(q + 1)
        )
        assert best == 2 < 4


class TestPredictions:
    def test_prediction_sign_rule(self):
        strategy = CanonicalStrategy(q=3, a_sign=-1, t_mask=0b011)
        assert predict_total(strategy, parse_configuration("lll")) == -1
        assert predict_total(strategy, parse_configuration("rll")) == +1
        assert predict_total(strategy, parse_configuration("rrl")) == -1
        assert predict_total(strategy, parse_configuration("rrr")) == -1

    def test_station_count_mismatch_rejected(self):
        strategy = CanonicalStrategy(q=3, a_sign=+1, t_mask=0)
        with pytest.raises(DomainError):
            predict_total(strategy, parse_configuration("llrr"))

    def test_raw_station_count_mismatch_rejected(self):
        raw = DeterministicStrategy.from_masks(3, 0, 0)
        with pytest.raises(DomainError):
            raw.predict_total(Configuration(2, 1))

    def test_bad_words_empty_for_q2(self):
        report = minimize_bad_words(2)
        assert report.bad_count == 0
        listed = bad_word_count_naive(report.strategy)
        assert listed.bad_words == ()
        # both words of q=2 predicted correctly
        for config, eigenvalue in enumerate_words(2):
            assert predict_total(report.strategy, config) == eigenvalue
