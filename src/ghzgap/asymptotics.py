"""Quantum-classical failure gap: exact values, large-q limits, thresholds.

The best deterministic strategy still fails on a fraction of configurations
that approaches 1/4 from below as q grows, while the quantum failure
probability rises toward 1/4 from below once per-station errors act on more
and more stations. Their difference decays like (1/4)(1-2*eps)^q, so for any
error level a station count exists beyond which no experiment of a given
resolution can separate the two models. These helpers evaluate all of that
stably up to station counts of order 10^27 (a few kilograms of matter).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import DomainError
from .quantum import NoiseModel, _log_attenuation, parity_attenuation
from .quantum import failure_probability_closed  # noqa: F401  (bench/spans.py traces it here)


def __getattr__(name: str):
    # bench/spans.py traces `mermin_bound` here; importing it on first use
    # keeps `strategies` off the path of `gap` and `cat`.
    if name == "mermin_bound":
        from .strategies import mermin_bound

        return mermin_bound
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: 2022 SI definition, exact.
AVOGADRO = 6.02214076e23

#: Molar mass of water in kg/mol.
WATER_MOLAR_MASS_KG = 0.018015

#: Countable constituents per water molecule under each convention.
CONSTITUENT_FACTORS = {
    "electrons-nucleons": 28,  # 10 electrons + 18 nucleons
    "atoms": 3,
    "molecules": 1,
}

#: Published reference value for the per-station error below which a 4 kg
#: water-based system would still show a >1e-2 failure-rate difference. It
#: inverts the visibility, (1 - 2*eps)^q = delta: -expm1(ln(delta)/q)/2 is
#: 6.15e-28 at q = 3.744e27 and rounds to 6e-28. The derived threshold
#: (4.30e-28) inverts the absolute gap, (1/4)(1 - 2*eps)^q = delta.
REFERENCE_EPSILON = 6e-28


class GapReport(NamedTuple):
    """Failure probabilities of both models at one (q, epsilon) point.

    Exact fields are filled only on the integer-q path; for real q (the
    macroscopic regime) only the asymptotic gap is meaningful.
    """

    q: float
    epsilon: float
    p_qm: float
    p_classical_exact: Optional[float]
    p_classical_limit: float
    gap_exact: Optional[float]
    gap_asymptotic: float


class MacroscopicReport(NamedTuple):
    """Constituent count and error thresholds for a mass of water."""

    mass_kg: float
    convention: str
    q: float
    delta: float
    epsilon_derived: float
    epsilon_reference: float
    gap_at_derived: float
    gap_at_reference: float


def gap_asymptotic(q: float, noise: NoiseModel) -> float:
    """Leading-order gap (1/4)(1 - 2*eps)^q, stable for huge q."""
    if q < 1:
        raise DomainError(f"station count must be at least 1, got {q}")
    return 0.25 * parity_attenuation(q, noise)


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


def gap_rows(qs: Iterable[int], noises: Sequence[NoiseModel]) -> Iterator[tuple]:
    """Integer-q gap rows (q, eps, p_qm, p_classical_exact, gap_exact,
    gap_asymptotic), for each q of `qs` one per noise model, each q checked
    as `gap` checks it when its first row is asked for.

    The classical probability mermin_bound(q) / 2^q is 1/4 - 2^-floor((q+3)/2)
    exactly. One float subtraction rounds it correctly, without that ratio's
    2^q-sized integers. The gap is the asymptotic term minus the same power
    of two; subtracting the two probabilities, both near 1/4, would cancel.
    At q = 2 the power is 1/4 itself and the classical probability is 0, so
    the plain difference is the exact one there. Both the asymptotic term
    and p_qm come from one q*log1p(-2*eps), whose log is taken once per eps.
    """
    logs = [(noise.epsilon, _log_attenuation(1, noise)) for noise in noises]
    for q in qs:
        _check_q(q)
        if q < 2:
            raise DomainError(f"classical failure probability needs q >= 2, got {q}")
        power = math.ldexp(1.0, -((q + 3) // 2))
        p_classical = 0.25 - power
        for eps, log in logs:
            log_attenuation = q * log
            asymptotic = 0.25 * math.exp(log_attenuation)
            p_qm = -0.25 * math.expm1(log_attenuation)
            gap_exact = p_classical - p_qm if q == 2 else asymptotic - power
            yield q, eps, p_qm, p_classical, gap_exact, asymptotic


def gap(q: float, noise: NoiseModel) -> GapReport:
    """Full gap report at one point.

    Integer q ≥ 2 fills the exact classical probability and exact gap, as
    the `gap_rows` row at (q, eps); any real q ≥ 1 (e.g. 4e27) fills the
    asymptotic fields only. q must be finite, and an integer q must fit the
    float range.
    """
    if isinstance(q, int) and not isinstance(q, bool):
        q, eps, p_qm, p_classical, gap_exact, asymptotic = next(gap_rows((q,), (noise,)))
    else:
        _check_q(q)
        log_attenuation = _log_attenuation(q, noise)
        eps, p_classical, gap_exact = noise.epsilon, None, None
        asymptotic = 0.25 * math.exp(log_attenuation)
        p_qm = -0.25 * math.expm1(log_attenuation)
    return GapReport(q, eps, p_qm, p_classical, 0.25, gap_exact, asymptotic)


def epsilon_threshold(q: float, delta: float) -> float:
    """Per-station error at which the asymptotic gap equals delta.

    Inverts (1/4)(1 - 2*eps)^q = delta as eps = (1 - (4*delta)^(1/q))/2,
    evaluated as -expm1(log(4*delta)/q)/2 so that q ~ 1e27 loses no
    precision. delta = 1/4 returns +0.0; larger delta has no solution.
    """
    if q < 1:
        raise DomainError(f"station count must be at least 1, got {q}")
    if not 0.0 < delta <= 0.25:
        raise DomainError(
            f"gap target must lie in (0, 1/4] for a nonnegative threshold, got {delta}"
        )
    return -0.5 * math.expm1(math.log(4.0 * delta) / q) + 0.0  # -0.0 becomes 0.0


def particles_in_mass(mass_kg: float, convention: str = "electrons-nucleons") -> float:
    """Constituent count of a mass of water under the chosen convention.

    The default counts 10 electrons plus 18 nucleons per molecule (28), the
    convention under which 4 kg lands on ~4e27. The mass and the count
    must both be finite, and the count at least 1.
    """
    if not (math.isfinite(mass_kg) and mass_kg > 0):
        raise DomainError(f"mass must be positive and finite, got {mass_kg} kg")
    try:
        factor = CONSTITUENT_FACTORS[convention]
    except KeyError:
        options = ", ".join(sorted(CONSTITUENT_FACTORS))
        raise DomainError(f"unknown convention {convention!r}; options: {options}")
    count = (mass_kg / WATER_MOLAR_MASS_KG) * AVOGADRO * factor
    if not math.isfinite(count):
        raise DomainError(f"mass {mass_kg} kg has a constituent count beyond the float range")
    if count < 1.0:
        raise DomainError(f"mass {mass_kg} kg holds fewer than one constituent")
    return count


def macroscopic_report(
    mass_kg: float,
    delta: float,
    convention: str = "electrons-nucleons",
) -> MacroscopicReport:
    """Thresholds and gaps for a macroscopic mass treated as one entangled system.

    Reports the error threshold derived from the gap formula next to the
    published reference value, with the asymptotic gap evaluated at both.
    """
    q = particles_in_mass(mass_kg, convention)
    derived = epsilon_threshold(q, delta)
    return MacroscopicReport(
        mass_kg=mass_kg,
        convention=convention,
        q=q,
        delta=delta,
        epsilon_derived=derived,
        epsilon_reference=REFERENCE_EPSILON,
        gap_at_derived=gap_asymptotic(q, NoiseModel(derived)),
        gap_at_reference=gap_asymptotic(q, NoiseModel(REFERENCE_EPSILON)),
    )
