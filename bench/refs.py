"""Reference values computed apart from ghzgap, used to check its outputs.

Nothing here imports the package. Classical optima come from exact
Gaussian-integer arithmetic, probabilities and gaps from 80-digit decimals,
and the disprove count from exact rationals where the count is small.
`self_check` compares these references with direct enumeration at small q.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

PRECISION = 80

#: Molar mass of water (kg/mol), Avogadro's number and constituents per
#: molecule (10 electrons + 18 nucleons), typed in independently of ghzgap.
WATER_KG_PER_MOL = Decimal("0.018015")
AVOGADRO = Decimal("6.02214076e23")
CONSTITUENTS_PER_MOLECULE = 28


def _gmul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gpow(z: tuple[int, int], n: int) -> tuple[int, int]:
    out = (1, 0)
    while n:
        if n & 1:
            out = _gmul(out, z)
        z = _gmul(z, z)
        n >>= 1
    return out


def bad_words_of_class(q: int, m: int, a_sign: int) -> int:
    """Bad words of a strategy with sign a_sign and m disagreeing stations.

    (2^(q-1) - a_sign * Im((1+i)^(q-m) (1-i)^m)) / 2, in Gaussian integers.
    """
    _, im = _gmul(_gpow((1, 1), q - m), _gpow((1, -1), m))
    twice = (1 << (q - 1)) - a_sign * im
    if twice % 2:
        raise ArithmeticError(f"odd bad-word numerator at q={q}, m={m}")
    return twice // 2


def classical_optimum(q: int, full_scan: bool = False) -> tuple[int, int, int]:
    """(bad_count, m, a_sign) minimising the bad words; smallest m, then +1.

    (1-i)/(1+i) = -i, so the class value repeats with period 4 in m and the
    minimum with the smallest m lies in m <= 3; `full_scan` checks all m.
    """
    last = q if full_scan else min(q, 3)
    best = None
    for m in range(last + 1):
        for a_sign in (+1, -1):
            bad = bad_words_of_class(q, m, a_sign)
            if best is None or bad < best[0]:
                best = (bad, m, a_sign)
    return best


@lru_cache(maxsize=None)
def classical_bad_count(q: int) -> int:
    return classical_optimum(q)[0]


def _d(x: float | int) -> Decimal:
    return Decimal(x)


def _frac(x: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return _d(x.numerator) / _d(x.denominator)


def attenuation(q: float, eps: float) -> Decimal:
    """(1 - 2 eps)^q; integer q by exact powering, real q through logs."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        base = 1 - 2 * _d(eps)
        if isinstance(q, int):
            return base**q
        if base == 0:
            return Decimal(0)
        return (_d(q) * base.ln()).exp()


def p_qm(q: float, eps: float) -> Decimal:
    """Quantum failure probability (1 - (1 - 2 eps)^q) / 4."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return (1 - attenuation(q, eps)) / 4


def p_classical(q: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return _d(classical_bad_count(q)) / _d(1 << q)


def gap_exact(q: int, eps: float) -> Decimal:
    """p_classical - p_qm, formed as (1/4)(1-2eps)^q - (1/4 - p_classical).

    Both terms are small next to 1/4; forming the difference from them
    keeps the reference's relative accuracy at any q in the table.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        deficit = _d((1 << (q - 2)) - classical_bad_count(q)) / _d(1 << q)
        return attenuation(q, eps) / 4 - deficit


def gap_asymptotic(q: float, eps: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return attenuation(q, eps) / 4


@lru_cache(maxsize=None)
def gap_row(q: int, eps: float) -> dict[str, Decimal]:
    """Reference values for every float column of a gap-table row."""
    return {
        "p_qm": p_qm(q, eps),
        "p_classical_exact": p_classical(q),
        "gap_exact": gap_exact(q, eps),
        "gap_asymptotic": gap_asymptotic(q, eps),
    }


def mc_theory(model: str, q: int, eps: float) -> Decimal:
    """Expected failure rate of a Monte Carlo trial.

    A trial is a word with probability 1/2 and fails when its observed total
    is wrong. Quantum: an odd number of flips, probability (1 - a)/2 with
    a = (1-2eps)^q. Hidden variable with b bad words of 2^(q-1): a bad word
    fails unless the flips are odd, a good one fails when they are.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        att = attenuation(q, eps)
        odd = (1 - att) / 2
        if model == "qm":
            return odd / 2
        bad_share = _d(classical_bad_count(q)) / _d(1 << (q - 1))
        return (bad_share * (1 - odd) + (1 - bad_share) * odd) / 2


def min_trials(p: float, confidence: float) -> int:
    """Smallest N with (1 - p)^N <= 1 - confidence, p and confidence exact."""
    pf, cf = Fraction(p), Fraction(confidence)
    miss, target = 1 - pf, 1 - cf
    if miss == 0:
        return 1
    with localcontext() as ctx:
        ctx.prec = PRECISION
        ratio = _frac(target).ln() / _frac(miss).ln()
        n = max(1, int(ratio.to_integral_value(rounding="ROUND_CEILING")))
    if n <= 4096:
        while n > 1 and miss ** (n - 1) <= target:
            n -= 1
        while miss**n > target:
            n += 1
    return n


def macroscopic_q(mass_kg: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return _d(mass_kg) / WATER_KG_PER_MOL * AVOGADRO * CONSTITUENTS_PER_MOLECULE


def epsilon_threshold(q: float, delta: float) -> Decimal:
    """eps with (1/4)(1-2eps)^q = delta: (1 - (4 delta)^(1/q)) / 2."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return (1 - ((4 * _d(delta)).ln() / _d(q)).exp()) / 2


def word_eigenvalue(r_count: int) -> int | None:
    """+1 or -1 for an odd r count (i^(r-1)), None for a string."""
    if r_count % 2 == 0:
        return None
    return +1 if r_count % 4 == 1 else -1


def relative_error(value: float, ref: Decimal) -> float:
    if ref == 0:
        return 0.0 if value == 0 else math.inf
    return float(abs((_d(value) - ref) / ref))


def self_check() -> list[str]:
    """Compare the references with direct enumeration; return the mismatches."""
    problems = []
    for q in range(1, 11):
        for m in range(q + 1):
            t_mask = (1 << m) - 1
            for a_sign in (+1, -1):
                direct = 0
                for mask in range(1 << q):
                    r = mask.bit_count()
                    if r % 2 == 0:
                        continue
                    flips = (mask & t_mask).bit_count() % 2
                    predicted = a_sign if flips == 0 else -a_sign
                    direct += predicted != word_eigenvalue(r)
                if direct != bad_words_of_class(q, m, a_sign):
                    problems.append(f"bad words q={q} m={m} a={a_sign}")
    for q in range(1, 41):
        if classical_optimum(q) != classical_optimum(q, full_scan=True):
            problems.append(f"period-4 optimum q={q}")
    for q in range(1, 9):
        for eps in (0.0, 0.01, 0.25):
            e = Fraction(eps)
            direct = Fraction(0)
            for flip_mask in range(1 << q):
                k = flip_mask.bit_count()
                if k % 2:
                    direct += e**k * (1 - e) ** (q - k)
            direct /= 2  # only words (half the configurations) can fail
            if abs(_frac(direct) - p_qm(q, eps)) > Decimal("1e-60"):
                problems.append(f"p_qm q={q} eps={eps}")
            theory = mc_theory("lhv", q, eps)
            b = classical_bad_count(q)
            words = 1 << (q - 1)
            odd = 2 * direct
            exact_lhv = (Fraction(b, words) * (1 - odd) + Fraction(words - b, words) * odd) / 2
            if abs(_frac(exact_lhv) - theory) > Decimal("1e-60"):
                problems.append(f"lhv theory q={q} eps={eps}")
    for p, c in ((0.125, 0.99), (0.5, 0.9), (0.25, 0.75), (0.0625, 0.999)):
        miss, target, n = 1 - Fraction(p), 1 - Fraction(c), 1
        while miss**n > target:
            n += 1
        if min_trials(p, c) != n:
            problems.append(f"min trials p={p} c={c}")
    return problems
