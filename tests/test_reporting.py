"""Report writers: JSON layout, CSV cells, and refusal of non-finite floats."""

import json
from fractions import Fraction

import pytest

from ghzgap.errors import DomainError
from ghzgap.reporting import dumps_csv, dumps_json


class TestJson:
    def test_layout_is_pinned(self):
        payload = {
            "empty_object": {},
            "empty_list": [],
            "missing": None,
            "flag": False,
            "big": 2**70,
            "ratio": Fraction(3, 8),
            "name": "Schrödinger",
            "rows": [1, [0.1, -2.5e-300], {"x": 1e22}],
        }
        assert dumps_json(payload) == (
            "{\n"
            '  "empty_object": {},\n'
            '  "empty_list": [],\n'
            '  "missing": null,\n'
            '  "flag": false,\n'
            '  "big": 1180591620717411303424,\n'
            '  "ratio": "3/8",\n'
            '  "name": "Schr\\u00f6dinger",\n'
            '  "rows": [\n'
            "    1,\n"
            "    [\n"
            "      0.1,\n"
            "      -2.5e-300\n"
            "    ],\n"
            "    {\n"
            '      "x": 1e+22\n'
            "    }\n"
            "  ]\n"
            "}"
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_refused(self, value):
        with pytest.raises(DomainError):
            dumps_json({"x": value})

    def test_unknown_type_refused(self):
        with pytest.raises(DomainError):
            dumps_json({"x": object()})

    def test_floats_round_trip(self):
        values = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, 0.0, -0.0]
        assert json.loads(dumps_json(values)) == values


class TestCsv:
    def test_cells(self):
        text = dumps_csv(
            ["q", "p", "note", "absent"],
            [{"q": 3, "p": 0.1, "note": "a,b", "absent": None}, {"q": 4, "p": 2.5e-300}],
        )
        assert text == 'q,p,note,absent\n3,0.1,"a,b",\n4,2.5e-300,,\n'

    def test_header_only(self):
        assert dumps_csv(["q", "eps"], []) == "q,eps\n"
