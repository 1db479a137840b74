import pytest
from hypothesis import given, strategies as st

from ghzgap.configs import (
    Configuration,
    String,
    Word,
    classify,
    enumerate_configurations,
    enumerate_words,
    parse_configuration,
    word_count,
    word_eigenvalue,
)
from ghzgap.errors import CapacityError, ConfigParseError, DomainError


class TestParse:
    def test_llr(self):
        config = parse_configuration("llr")
        assert config.q == 3
        assert config.r_mask == 0b100  # station 3 only
        assert config.r_count == 1

    def test_ll_has_empty_mask(self):
        assert parse_configuration("ll").r_mask == 0

    def test_rrr(self):
        assert parse_configuration("rrr").r_mask == 0b111

    def test_station_one_is_leftmost(self):
        assert parse_configuration("rll").r_mask == 0b001

    def test_round_trip(self):
        for text in ("l", "r", "lrlr", "rrrl"):
            assert parse_configuration(text).text() == text

    def test_empty_rejected(self):
        with pytest.raises(CapacityError):
            parse_configuration("")

    def test_overlong_rejected(self):
        with pytest.raises(CapacityError):
            parse_configuration("l" * 65)

    def test_bad_letter_position_reported(self):
        with pytest.raises(ConfigParseError) as excinfo:
            parse_configuration("llxr")
        assert excinfo.value.position == 3
        assert "station 3" in str(excinfo.value)

    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_parse_inverts_text(self, q, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << q) - 1))
        config = Configuration(q=q, r_mask=mask)
        assert parse_configuration(config.text()) == config


class TestConfiguration:
    def test_mask_outside_stations_rejected(self):
        with pytest.raises(DomainError):
            Configuration(q=2, r_mask=0b100)

    def test_q_zero_rejected(self):
        with pytest.raises(DomainError):
            Configuration(q=0, r_mask=0)

    def test_q_over_limit_rejected(self):
        with pytest.raises(CapacityError):
            Configuration(q=65, r_mask=0)


class TestClassify:
    def test_known_q3_words(self):
        for text in ("llr", "lrl", "rll"):
            assert classify(parse_configuration(text)) == Word(eigenvalue=+1)
        assert classify(parse_configuration("rrr")) == Word(eigenvalue=-1)

    def test_known_q3_strings(self):
        # even r count: the remaining four of the eight configurations
        for text in ("lll", "rrl", "rlr", "lrr"):
            assert classify(parse_configuration(text)) == String()

    def test_q5_all_r_is_plus_word(self):
        assert classify(parse_configuration("rrrrr")) == Word(eigenvalue=+1)

    def test_eigenvalue_cycle(self):
        # r_count 1, 3, 5, 7 -> +1, -1, +1, -1
        assert [word_eigenvalue(r) for r in (1, 3, 5, 7)] == [1, -1, 1, -1]

    def test_eigenvalue_rejects_even(self):
        with pytest.raises(DomainError):
            word_eigenvalue(2)

    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_word_iff_odd_r(self, q, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << q) - 1))
        config = Configuration(q=q, r_mask=mask)
        cls = classify(config)
        if config.r_count % 2 == 1:
            assert isinstance(cls, Word)
        else:
            assert isinstance(cls, String)


class TestEnumeration:
    def test_q3_words_in_order(self):
        words = [(c.text(), e) for c, e in enumerate_words(3)]
        assert words == [("rll", 1), ("lrl", 1), ("llr", 1), ("rrr", -1)]

    def test_q1(self):
        assert [(c.text(), e) for c, e in enumerate_words(1)] == [("r", 1)]

    def test_counts_match_formula(self):
        for q in range(1, 13):
            assert len(list(enumerate_words(q))) == word_count(q) == 2 ** (q - 1)

    def test_q10_has_512_words(self):
        assert sum(1 for _ in enumerate_words(10)) == 512

    def test_word_count_huge_q_exact(self):
        assert word_count(64) == 2**63
        assert word_count(200) == 2**199

    def test_enumeration_cap(self):
        with pytest.raises(CapacityError):
            list(enumerate_words(25))

    def test_all_configurations(self):
        configs = list(enumerate_configurations(3))
        assert len(configs) == 8
        assert len({c.r_mask for c in configs}) == 8
        words = [c for c in configs if c.is_word]
        assert len(words) == 4
