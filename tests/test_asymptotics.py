"""Gap reports, threshold inversion, and macroscopic constituent counting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzgap.asymptotics import (
    epsilon_threshold,
    gap,
    gap_asymptotic,
    macroscopic_report,
    particles_in_mass,
    REFERENCE_EPSILON,
)
from ghzgap.errors import DomainError
from ghzgap.oracles import failure_probability_exact
from ghzgap.quantum import NoiseModel, failure_probability_closed, parity_attenuation
from ghzgap.strategies import mermin_bound


# Exact rational oracles for the float gap fields.


def classical_failure_probability(q):
    """Failure probability of the best deterministic table, bound / 2^q."""
    return Fraction(mermin_bound(q), 1 << q)


def gap_exact_fraction(q, epsilon):
    """Classical failure probability minus quantum, exact."""
    return classical_failure_probability(q) - failure_probability_exact(q, epsilon)


def gap_asymptotic_fraction(q, epsilon):
    """The asymptotic gap (1/4)(1 - 2*eps)^q, exact."""
    return Fraction(1, 4) - failure_probability_exact(q, epsilon)


class TestClassicalProbability:
    def test_q3_is_one_eighth(self):
        assert classical_failure_probability(3) == Fraction(1, 8)

    def test_q20(self):
        value = classical_failure_probability(20)
        assert value == Fraction(1, 4) - Fraction(1, 2**11)
        assert float(value) == 0.24951171875

    def test_monotone_approach_to_quarter(self):
        values = [classical_failure_probability(q) for q in range(2, 61)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v < Fraction(1, 4) for v in values)
        assert values[-1] > Fraction(1, 4) - Fraction(1, 2**29)


class TestGap:
    def test_q3_ideal(self):
        report = gap(3, NoiseModel(0.0))
        assert report.p_qm == 0.0
        assert report.p_classical_exact == 0.125
        assert report.gap_exact == 0.125
        assert report.gap_asymptotic == 0.25
        assert report.p_classical_limit == 0.25

    def test_q30_at_ten_percent(self):
        report = gap(30, NoiseModel(0.1))
        assert report.gap_asymptotic == pytest.approx(0.25 * 0.8**30)
        assert report.gap_asymptotic == pytest.approx(3.09e-4, rel=0.01)

    def test_real_q_gets_asymptotic_path_only(self):
        report = gap(4e27, NoiseModel(6e-28))
        assert report.p_classical_exact is None
        assert report.gap_exact is None
        assert report.gap_asymptotic == pytest.approx(0.25 * math.exp(-4.8), rel=1e-6)

    def test_index_q_takes_the_integer_path(self):
        # a numpy integer q is an integer q: same row, q reported as an int
        noise = NoiseModel(0.01)
        report = gap(np.int64(10), noise)
        assert report == gap(10, noise) and type(report.q) is int
        assert report.p_classical_exact is not None

    def test_real_q_fields_match_the_integer_row(self):
        # the real-q path takes the same closed forms, bit for bit
        for eps in (0.0, 1e-300, 1e-12, 0.01, 0.3, 0.5):
            for q in (2, 3, 10, 1000, 10**6):
                exact, real = gap(q, NoiseModel(eps)), gap(float(q), NoiseModel(eps))
                assert (real.p_qm, real.gap_asymptotic) == (exact.p_qm, exact.gap_asymptotic)

    def test_rational_identity(self):
        # the discrepancy between exact and asymptotic gap is exactly the
        # distance of the classical probability from its 1/4 limit
        for eps in (Fraction(0), Fraction(1, 100), Fraction(1, 7)):
            for q in range(2, 61):
                lhs = gap_exact_fraction(q, eps) - gap_asymptotic_fraction(q, eps)
                rhs = Fraction(mermin_bound(q), 2**q) - Fraction(1, 4)
                assert lhs == rhs, (q, eps)

    def test_gap_exact_relative_accuracy(self):
        # both probabilities sit near 1/4; their difference must not cancel
        for q, eps in ((2, 1e-12), (30, 0.1), (1000, 0.01), (3000, 0.01), (2000, 1e-12)):
            exact = float(gap_exact_fraction(q, Fraction(eps)))
            assert gap(q, NoiseModel(eps)).gap_exact == pytest.approx(
                exact, rel=1e-12, abs=0.0
            ), (q, eps)

    def test_classical_field_is_rounded_fraction(self):
        for q in list(range(2, 1200)) + [2150, 2151, 2152, 5000]:
            assert gap(q, NoiseModel(0.01)).p_classical_exact == float(
                classical_failure_probability(q)
            ), q

    def test_huge_integer_q_is_constant_work(self):
        report = gap(10**300, NoiseModel(0.01))
        assert report.p_classical_exact == 0.25
        assert report.gap_exact == report.gap_asymptotic == 0.0

    @pytest.mark.parametrize(
        "q", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "1e400"]
    )
    def test_unrepresentable_q_rejected(self, q):
        with pytest.raises(DomainError, match="station count q"):
            gap(q, NoiseModel(0.0))

    def test_q_one_has_no_classical_probability(self):
        with pytest.raises(DomainError):
            gap(1, NoiseModel(0.0))

    def test_discrepancy_magnitude_branches(self):
        for q in range(2, 30):
            magnitude = Fraction(1, 4) - classical_failure_probability(q)
            if q % 2 == 0:
                assert magnitude == Fraction(1, 2 ** ((q + 2) // 2))
            else:
                assert magnitude == Fraction(1, 2 ** ((q + 3) // 2))

    def test_decay_halves_at_fixed_stride(self):
        for eps in (0.01, 0.1):
            noise = NoiseModel(eps)
            stride = math.log(2) / -math.log1p(-2 * eps)
            for q in (10.0, 100.0, 1000.0):
                ratio = gap_asymptotic(q + stride, noise) / gap_asymptotic(q, noise)
                assert ratio == pytest.approx(0.5, rel=1e-9)


#: The closed forms that take a real q, each called with a valid second argument.
_CLOSED_FORMS = {
    "gap_asymptotic": lambda q: gap_asymptotic(q, NoiseModel(0.0)),
    "failure_probability_closed": lambda q: failure_probability_closed(q, NoiseModel(0.0)),
    "parity_attenuation": lambda q: parity_attenuation(q, NoiseModel(0.0)),
    "epsilon_threshold": lambda q: epsilon_threshold(q, 0.01),
}


@pytest.mark.parametrize(
    "q", [math.nan, math.inf, 10**400, 0, -3], ids=["nan", "inf", "1e400", "0", "-3"]
)
@pytest.mark.parametrize("closed_form", _CLOSED_FORMS.values(), ids=_CLOSED_FORMS)
def test_closed_forms_reject_q(closed_form, q):
    # at eps = 0, q = inf would give inf * 0 = nan without the check
    with pytest.raises(DomainError, match="station count"):
        closed_form(q)


class TestEpsilonThreshold:
    def test_boundary_delta_gives_zero(self):
        assert epsilon_threshold(3, 0.25) == 0.0

    def test_boundary_delta_gives_positive_zero(self):
        # -0.5 * expm1(0.0) is -0.0, which a report would print as -0.0.
        for q in (1, 3, 4e27):
            assert math.copysign(1.0, epsilon_threshold(q, 0.25)) == 1.0
        assert math.copysign(1.0, macroscopic_report(4.0, 0.25).epsilon_derived) == 1.0

    def test_q100_value(self):
        # forward-checked inversion at q=100, delta=0.01
        value = epsilon_threshold(100, 0.01)
        assert value == pytest.approx(0.015838107137185073, rel=1e-12)
        assert gap_asymptotic(100, NoiseModel(value)) == pytest.approx(0.01, rel=1e-12)

    def test_cat_scale_value(self):
        value = epsilon_threshold(4e27, 1e-2)
        assert value == pytest.approx(4.023594781085251e-28, rel=1e-12, abs=0.0)

    def test_round_trip_across_scales(self):
        for q in (10.0, 1e3, 1e10, 4e27):
            for delta in (0.01, 0.001, 0.2):
                eps = epsilon_threshold(q, delta)
                assert gap_asymptotic(q, NoiseModel(eps)) == pytest.approx(
                    delta, rel=1e-9
                )

    def test_no_solution_above_quarter(self):
        with pytest.raises(DomainError):
            epsilon_threshold(10, 0.26)
        with pytest.raises(DomainError):
            epsilon_threshold(10, 0.0)

    @settings(max_examples=80)
    @given(
        st.floats(min_value=1.0, max_value=1e28),
        st.floats(min_value=1e-6, max_value=0.24),
    )
    def test_inversion_property(self, q, delta):
        eps = epsilon_threshold(q, delta)
        assert 0.0 < eps <= 0.5
        assert gap_asymptotic(q, NoiseModel(eps)) == pytest.approx(delta, rel=1e-6)

    def test_no_underflow_for_extreme_products(self):
        # eps*q spanning nine orders of magnitude stays finite and nonzero
        for q in (1e4, 1e9, 1e20):
            for delta in (1e-4, 0.2):
                eps = epsilon_threshold(q, delta)
                value = gap_asymptotic(q, NoiseModel(eps))
                assert math.isfinite(value) and value > 0.0


class TestParticleCounting:
    def test_four_kilograms(self):
        q = particles_in_mass(4.0)
        assert q == pytest.approx(3.7439898147099634e27)
        assert f"{q:.0e}" == "4e+27"  # rounds to the headline figure

    def test_one_mole(self):
        assert particles_in_mass(0.018015) == pytest.approx(28 * 6.02214076e23)

    def test_linear_in_mass(self):
        assert particles_in_mass(0.5) == pytest.approx(particles_in_mass(4.0) / 8)

    def test_conventions(self):
        base = particles_in_mass(1.0, "molecules")
        assert particles_in_mass(1.0, "atoms") == pytest.approx(3 * base)
        assert particles_in_mass(1.0) == pytest.approx(28 * base)

    def test_errors(self):
        with pytest.raises(DomainError):
            particles_in_mass(0.0)
        with pytest.raises(DomainError):
            particles_in_mass(1.0, "quarks")

    @pytest.mark.parametrize("mass", [math.inf, -math.inf, math.nan], ids=str)
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(DomainError, match=f"got {mass} kg"):
            particles_in_mass(mass)

    @pytest.mark.parametrize("convention", ["electrons-nucleons", "atoms", "molecules"])
    def test_count_beyond_float_range_rejected(self, convention):
        with pytest.raises(DomainError, match="mass 1e\\+300 kg"):
            particles_in_mass(1e300, convention)


class TestMacroscopicReport:
    def test_four_kg_report(self):
        report = macroscopic_report(4.0, 0.01)
        assert report.q == pytest.approx(3.744e27, rel=1e-3)
        # derived threshold lands near 4e-28, below the 6e-28 reference
        assert 4.0e-28 < report.epsilon_derived < 4.6e-28
        assert report.epsilon_reference == REFERENCE_EPSILON
        assert report.epsilon_derived < report.epsilon_reference
        # the derived threshold reproduces the requested gap...
        assert report.gap_at_derived == pytest.approx(0.01, rel=1e-9)
        # ...while the larger reference error gives a smaller gap
        assert report.gap_at_reference < 0.01

    def test_reference_threshold_fails_forward_check(self):
        # the quoted reference value does not satisfy the absolute-gap equation
        report = macroscopic_report(4.0, 0.01)
        assert report.gap_at_reference == pytest.approx(0.0027973, rel=1e-4)

    def test_reference_threshold_inverts_the_visibility(self):
        # (1 - 2*eps)^q = delta, the gap relative to its noiseless 1/4,
        # reproduces the quoted 6e-28 to its one significant digit
        report = macroscopic_report(4.0, 0.01)
        visibility = -math.expm1(math.log(report.delta) / report.q) / 2
        assert visibility == pytest.approx(6.15e-28, rel=1e-3, abs=0.0)
        assert float(f"{visibility:.0e}") == REFERENCE_EPSILON
        assert 4 * gap_asymptotic(report.q, NoiseModel(visibility)) == pytest.approx(0.01)

    def test_convention_echo(self):
        report = macroscopic_report(1.0, 0.02, convention="atoms")
        assert report.convention == "atoms"
        assert report.q == pytest.approx(particles_in_mass(1.0, "atoms"))
