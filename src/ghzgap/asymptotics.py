"""Quantum-classical failure gap: exact values, large-q limits, thresholds.

The best deterministic strategy still fails on a fraction of configurations
that approaches 1/4 from below as q grows, while the quantum failure
probability rises toward 1/4 from below once per-station errors act on more
and more stations. Their difference decays like (1/4)(1-2*eps)^q, so for any
error level a station count exists beyond which no experiment of a given
resolution can separate the two models. These helpers evaluate all of that
stably up to station counts of order 10^27 (a few kilograms of matter).
`min_trials_to_disprove` counts the trials that show one failure at a given
rate: at eps = 0, where the quantum model never fails, the trials that tell
the two models apart. Everything here is pure Python.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .configs import _index, _real, _shown
from .errors import DomainError
from .quantum import NoiseModel, _check_q, _log_attenuation, parity_attenuation
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


#: The cells of one gap row, in the order `gap_rows` yields them: `gap
#: sweep`'s columns, and every field of `GapReport` but the last. A new gap
#: field is a name here and a cell in `gap_rows`.
GAP_COLUMNS = ("q", "eps", "p_qm", "p_classical_exact", "gap_exact", "gap_asymptotic")


class GapReport(NamedTuple("GapReport", [(n, Any) for n in (*GAP_COLUMNS, "p_classical_limit")])):
    """Failure probabilities of both models at one (q, eps) point: the
    `gap_rows` row at that point, then the classical limit 1/4."""

    __slots__ = ()


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
    return 0.25 * parity_attenuation(q, noise)


def gap_rows(qs: Iterable[float], noises: Sequence[NoiseModel]) -> Iterator[tuple]:
    """Gap rows, cells in `GAP_COLUMNS` order, for each q of `qs` one per
    noise model, each q checked when its first row is asked for.

    An integer q ≥ 2 (anything `operator.index` takes but a bool, reported
    as an int) fills every cell; any other real q ≥ 1 (e.g. 4e27) leaves
    the exact classical probability and the exact gap None. q must be
    finite, and an integer q must fit the float range.

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
        if (n := _index(q, None)) is None or isinstance(q, bool):
            for eps, log in logs:
                yield q, eps, -0.25 * math.expm1(q * log), None, None, 0.25 * math.exp(q * log)
            continue
        q = n
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
    """Full gap report at one point: the `gap_rows` row at (q, eps), then
    the classical limit 1/4."""
    return GapReport(*next(gap_rows([q], [noise])), 0.25)


def epsilon_threshold(q: float, delta: float) -> float:
    """Per-station error at which the asymptotic gap equals delta.

    Inverts (1/4)(1 - 2*eps)^q = delta as eps = (1 - (4*delta)^(1/q))/2,
    evaluated as -expm1(log(4*delta)/q)/2 so that q ~ 1e27 loses no
    precision. delta = 1/4 returns +0.0; larger delta has no solution.
    """
    _check_q(q)
    if not 0.0 < _real(delta) <= 0.25:
        raise DomainError(
            f"gap target must lie in (0, 1/4] for a nonnegative threshold, got {_shown(delta)}"
        )
    if float(delta) == 0.0:
        raise DomainError(f"gap target {_shown(delta)} lies below the float range")
    return -0.5 * math.expm1(math.log(4.0 * delta) / q) + 0.0  # -0.0 becomes 0.0


#: min_trials_to_disprove settles its answer with exact rational powers up to
#: this many trials (at most ~10 ms). An exact boundary (1 - p)^N = 1 - c
#: between binary floats needs N <= 1074, so beyond the limit the float
#: logs decide alone.
_EXACT_SETTLE_LIMIT = 1 << 12


def min_trials_to_disprove(p_failure: float, confidence: float) -> int:
    """Smallest N with (1 - p_failure)^N ≤ 1 - confidence.

    The count of independent trials needed before at least one failure has
    been seen with the requested confidence, assuming each trial fails with
    probability p_failure.
    """
    from fractions import Fraction  # only `disprove` loads it, not `gap` or `cat`

    if not 0.0 < _real(p_failure) <= 1.0:
        raise DomainError(
            f"failure probability must lie in (0, 1] for a finite answer, got {_shown(p_failure)}"
        )
    if not 0.0 < _real(confidence) < 1.0:
        raise DomainError(f"confidence must lie in (0, 1), got {_shown(confidence)}")
    if p_failure == 1.0:
        return 1
    # Both logs through log1p, so p_failure far below the float spacing at 1
    # still counts; the quotient is taken exactly, so it cannot overflow.
    # Below 2^-53, -p is log(1 - p) to within p relative, never worse than
    # the float log, and nonzero where a Fraction lies below the floats.
    log_miss = -Fraction(p_failure) if p_failure < 2**-53 else math.log1p(-p_failure)
    ratio = Fraction(math.log1p(-confidence)) / Fraction(log_miss)
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


def particles_in_mass(mass_kg: float, convention: str = "electrons-nucleons") -> float:
    """Constituent count of a mass of water under the chosen convention.

    The default counts 10 electrons plus 18 nucleons per molecule (28), the
    convention under which 4 kg lands on ~4e27. The mass and the count
    must both be finite floats, and the count at least 1.
    """
    if not 0 < _real(mass_kg) <= sys.float_info.max:
        raise DomainError(f"mass must be a positive finite float, got {_shown(mass_kg)} kg")
    try:
        factor = CONSTITUENT_FACTORS[convention]
    except KeyError:
        options = ", ".join(sorted(CONSTITUENT_FACTORS))
        raise DomainError(f"unknown convention {convention!r}; options: {options}")
    count = (mass_kg / WATER_MOLAR_MASS_KG) * AVOGADRO * factor
    if not math.isfinite(count):
        raise DomainError(f"mass {_shown(mass_kg)} kg: constituent count beyond the float range")
    if count < 1.0:
        raise DomainError(f"mass {_shown(mass_kg)} kg holds fewer than one constituent")
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
