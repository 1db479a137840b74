"""Measurement configurations of q stations and their word/string taxonomy.

A configuration records which of the two local settings each station applies:
``l`` or ``r``. Configurations with an odd number of ``r`` settings are words
(the entangled state is an eigenvector of the product observable, with a
definite total result); the rest are strings (the total result is an unbiased
coin). Station 1 is the leftmost letter in text form and bit 0 internally.
"""

from __future__ import annotations

import operator
from typing import Iterator, NamedTuple, Union

from .errors import CapacityError, ConfigParseError, DomainError

#: Hard cap for bit-packed configurations.
MAX_STATIONS = 64
#: Cap for operations that walk all 2^(q-1) words of a given q.
ENUMERATION_LIMIT = 24
#: Cap for forms that build an exact integer near 2^q (512 KiB at the cap).
#: failure_probability_exact divides it by the bit length of eps's
#: denominator: ~10^6 stations at eps = 1/10 (0.15 s).
EXACT_POWER_BITS = 1 << 22

_LETTERS = {"l": 0, "r": 1}
#: Binary digits to letters: bit clear is ``l``, bit set is ``r``.
_DIGIT_LETTERS = str.maketrans("01", "lr")


def _index(value: object, default: int) -> int:
    """`value` as an exact int if it is an integer, else `default`: a float,
    an array of any size or anything else that `operator.index` refuses."""
    try:
        return operator.index(value)
    except TypeError:
        return default


def _real(value: object) -> object:
    """`value` if it orders against floats as one number and combines with
    them, else NaN, which every range check refuses: an array of any size
    (its comparisons give arrays, and a one-element array's would pass), a
    string, None or a Decimal (it orders against floats but does not add)."""
    try:
        if not getattr(value, "ndim", 0) and (value < 0.0) in (False, True):
            try:
                value + 0.0
            except OverflowError:  # an int or Fraction past the float range
                pass
            return value
    except TypeError:  # no order against floats, or no sum with one
        pass
    return float("nan")


def _shown(value: object) -> str:
    """`value` as a message names it: an integer past 64 bits by its bit length,
    anything else by its repr, or by its type where that is past int-to-text."""
    n = _index(value, 0)
    if n.bit_length() > 64:
        return f"an integer of {n.bit_length()} bits"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to write out"


def _check_int(value: int, name: str, low: int, high: int, above: type = DomainError) -> int:
    """The integer gate: `value` (`name` in the message) as an int in [low, high];
    an integer above `high` raises `above`, any other value DomainError."""
    n = _index(value, low - 1)
    if not low <= n <= high:
        error = DomainError if n < low else above
        raise error(f"{name} must be an integer in [{low}, {_shown(high)}], got {_shown(value)}")
    return n


def _check_int_q(q: int, limit: int) -> int:
    """The station-count gate: `_check_int` from 1, CapacityError above `limit`."""
    return _check_int(q, "station count", 1, limit, CapacityError)


def _check_sign(value: int, name: str) -> int:
    """The sign gate: `value`, called `name` in the message, must be the
    integer +1 or -1 (DomainError). Returns it as an int."""
    n = _index(value, 0)
    if n not in (+1, -1):
        raise DomainError(f"{name} must be the integer +1 or -1, got {_shown(value)}")
    return n


class Configuration(NamedTuple("Configuration", [("q", int), ("r_mask", int)])):
    """Bit-packed choice of settings: bit k set means station k+1 applies ``r``."""

    __slots__ = ()

    def __new__(cls, q: int, r_mask: int) -> Configuration:
        q = _check_int_q(q, MAX_STATIONS)
        return super().__new__(cls, q, _check_int(r_mask, "r_mask", 0, (1 << q) - 1))

    @property
    def r_count(self) -> int:
        """Number of stations applying ``r``."""
        return self.r_mask.bit_count()

    @property
    def is_word(self) -> bool:
        return self.r_count % 2 == 1

    def text(self) -> str:
        """Letter form, station 1 first."""
        return format(self.r_mask, f"0{self.q}b")[::-1].translate(_DIGIT_LETTERS)

    def __str__(self) -> str:
        return self.text()


class Word(NamedTuple("Word", [("eigenvalue", int)])):
    """Classification of a configuration whose total result is determined."""

    __slots__ = ()
    kind = "word"

    def __new__(cls, eigenvalue: int) -> Word:
        return super().__new__(cls, _check_sign(eigenvalue, "eigenvalue"))


class String(NamedTuple):
    """Classification of a configuration whose total result is a fair coin."""

    kind = "string"


ConfigurationClass = Union[Word, String]

#: The three classifications; they are frozen, so `classify` shares them.
_WORDS = {+1: Word(+1), -1: Word(-1)}
_STRING = String()


def parse_configuration(text: str) -> Configuration:
    """Parse a configuration from its letter form, e.g. ``"llr"``.

    Station 1 is the leftmost letter. Raises CapacityError for empty or
    overlong input and ConfigParseError (with the 1-based position) for any
    character other than ``l`` or ``r``.
    """
    if not text:
        raise CapacityError("configuration text is empty")
    if len(text) > MAX_STATIONS:
        raise CapacityError(
            f"configuration text has {len(text)} letters, limit is {MAX_STATIONS}"
        )
    mask = 0
    for k, ch in enumerate(text):
        bit = _LETTERS.get(ch)
        if bit is None:
            raise ConfigParseError(
                f"invalid letter {ch!r} at station {k + 1}; expected 'l' or 'r'",
                position=k + 1,
            )
        mask |= bit << k
    return Configuration(q=len(text), r_mask=mask)


def word_eigenvalue(r_count: int) -> int:
    """Total result of a word with `r_count` stations on ``r``: +1 or -1.

    Defined only for odd r_count, where the nominally imaginary unit raised
    to (r_count - 1) is real.
    """
    r = _index(r_count, 0)
    if r % 2 != 1:
        raise DomainError(f"eigenvalue is defined for odd integer r counts, got {_shown(r_count)}")
    return +1 if r % 4 == 1 else -1


def classify(config: Configuration) -> ConfigurationClass:
    """Word (with eigenvalue) for odd r count, String for even."""
    r = config.r_count
    if r % 2 == 1:
        return _WORDS[word_eigenvalue(r)]
    return _STRING


def enumerate_configurations(q: int) -> Iterator[Configuration]:
    """All 2^q configurations in ascending r_mask order; q is checked at
    the call, before the first configuration is asked for."""
    q = _check_int_q(q, ENUMERATION_LIMIT)
    return (Configuration._make((q, mask)) for mask in range(1 << q))


def enumerate_words(q: int) -> Iterator[tuple[Configuration, int]]:
    """All configurations with odd r count, with eigenvalues, ascending r_mask."""
    q = _check_int_q(q, ENUMERATION_LIMIT)
    for mask in range(1 << q):
        r = mask.bit_count()
        if r % 2 == 1:
            yield Configuration._make((q, mask)), word_eigenvalue(r)


def word_count(q: int) -> int:
    """Number of words among the 2^q configurations: exactly 2^(q-1), as
    an exact integer for q up to EXACT_POWER_BITS."""
    return 1 << (_check_int_q(q, EXACT_POWER_BITS) - 1)
