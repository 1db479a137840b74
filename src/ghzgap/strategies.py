"""Deterministic local-hidden-variable strategies and their bad-word counts.

A deterministic strategy fixes, per station, the result it would report for
either setting. Its predictions on every configuration depend only on two
aggregates (the product of the ``l`` answers and the set of stations whose two
answers disagree), so the 4^q raw strategies (`oracles.DeterministicStrategy`)
collapse to 2^(q+1) canonical classes. A word whose predicted total differs
from its eigenvalue is a bad word; the minimal bad-word count over all
strategies is the classical floor on the failure rate.

A class with sign a and m disagreeing stations has Mermin sum (eigenvalue
times prediction, summed over words) a*Im((1+i)^(q-m) (1-i)^m), which is 0
or a signed power of two, so its bad-word count is a closed form. Because
(1-i)/(1+i) = -i, that count repeats with period 4 in m, and the optimum is
found among m <= 3. Word enumeration (`bad_word_count_naive`) checks it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .configs import ENUMERATION_LIMIT, EXACT_POWER_BITS, Configuration, enumerate_words
from .configs import _check_int, _check_int_q, _check_sign, word_count
from .errors import DomainError


class CanonicalStrategy(
    NamedTuple("CanonicalStrategy", [("q", int), ("a_sign", int), ("t_mask", int)])
):
    """Prediction-equivalent reduction of a deterministic strategy.

    `a_sign` is the product of all l answers; bit k of `t_mask` is set when
    station k+1 answers differently under the two settings. The predicted
    total for a configuration is ``a_sign * (-1)**|r_mask & t_mask|``.
    """

    __slots__ = ()

    def __new__(cls, q: int, a_sign: int, t_mask: int) -> CanonicalStrategy:
        q = _check_int_q(q, EXACT_POWER_BITS)
        a_sign = _check_sign(a_sign, "a_sign")
        return super().__new__(cls, q, a_sign, _check_int(t_mask, "t_mask", 0, (1 << q) - 1))


class BadWordReport(NamedTuple):
    """A strategy together with how many words it gets wrong."""

    strategy: CanonicalStrategy
    bad_count: int
    probability: Fraction
    bad_words: Optional[tuple[Configuration, ...]] = None


def predict_total(strategy: CanonicalStrategy, config: Configuration) -> int:
    """Predicted total result, ``a_sign * (-1)**|r_mask & t_mask|``."""
    if strategy.q != config.q:
        raise DomainError(
            f"strategy has {strategy.q} stations, configuration has {config.q}"
        )
    overlap = (strategy.t_mask & config.r_mask).bit_count()
    return strategy.a_sign if overlap % 2 == 0 else -strategy.a_sign


def bad_word_count_naive(
    strategy: CanonicalStrategy, list_words: bool = True
) -> BadWordReport:
    """Count bad words by walking every word of the strategy's q.

    The enumeration is deliberately direct; it is the reference the
    closed-form counter is checked against. Capped at q <= 24.
    """
    _check_int_q(strategy.q, ENUMERATION_LIMIT)
    bad: list[Configuration] = []
    count = 0
    for config, eigenvalue in enumerate_words(strategy.q):
        if predict_total(strategy, config) != eigenvalue:
            count += 1
            if list_words:
                bad.append(config)
    return BadWordReport(
        strategy=strategy,
        bad_count=count,
        probability=Fraction(count, 1 << strategy.q),
        bad_words=tuple(bad) if list_words else None,
    )


def bad_word_count_analytic(q: int, a_sign: int, m: int) -> int:
    """Bad words of any strategy with |t_mask| = m and the given a_sign.

    The eigenvalue of a word with r count R is Im(i^R) and the prediction is
    ``a_sign * (-1)**|R & T|``, so summing their product over all r masks is
    the generating function (1 + x)^(q - m) (1 - x)^m taken at x = i:
    ``a_sign * Im((1+i)^(q-m) (1-i)^m) = a_sign * 2^(q/2) sin(pi (q - 2m)/4)``.
    That Mermin sum is 0 or +-2^floor(q/2), with the sign fixed by
    (q - 2m) mod 8, and the bad words are half of 2^(q-1) minus it.
    Exact integer arithmetic, a few shifts.
    """
    q = _check_int_q(q, EXACT_POWER_BITS)
    return _bad_words(q, _check_sign(a_sign, "a_sign"), _check_int(m, "m", 0, q))


def _bad_words(q: int, a_sign: int, m: int) -> int:
    """`bad_word_count_analytic` of arguments already checked."""
    phase = (q - 2 * m) % 8
    sine_sign = 0 if phase % 4 == 0 else (1 if phase < 4 else -1)
    mermin = (a_sign * sine_sign) << (q // 2)
    return ((1 << (q - 1)) - mermin) >> 1


def minimize_bad_words(q: int) -> BadWordReport:
    """Strategy class minimizing the bad-word count, searched in closed form.

    The count depends only on a_sign and m = |t_mask|, and since
    (1-i)/(1+i) = -i it repeats with period 4 in m, so scanning m <= 3 finds
    every value. Ties break deterministically: smallest m first, then
    a_sign = +1, with the t_mask realized on the lowest m stations.
    """
    q = _check_int_q(q, EXACT_POWER_BITS)
    best: Optional[tuple[int, int, int]] = None
    for m in range(min(q, 3) + 1):
        for a_sign in (+1, -1):
            count = _bad_words(q, a_sign, m)
            if best is None or count < best[0]:
                best = (count, m, a_sign)
    count, m, a_sign = best
    strategy = CanonicalStrategy._make((q, a_sign, (1 << m) - 1))
    return BadWordReport(
        strategy=strategy,
        bad_count=count,
        probability=Fraction(count, 1 << q),
    )


def mermin_bound(q: int) -> int:
    """Minimal bad-word count attainable by deterministic strategies.

    Exact integer 2^(q-2) - 2^floor((q-2)/2), which vanishes at q = 2;
    q = 1 returns 0 by the same cancellation (the formal value 1/2 - 1/2).
    """
    q = _check_int_q(q, EXACT_POWER_BITS)
    if q == 1:
        return 0
    return (1 << (q - 2)) - (1 << ((q - 2) // 2))


def max_classical_mermin_sum(q: int) -> int:
    """Largest `oracles.mermin_sum` any deterministic strategy can reach."""
    return word_count(q) - 2 * mermin_bound(q)

