"""Deterministic JSON writer: formats, nesting, and rejection of non-finite values."""

import json
from fractions import Fraction

import pytest

from orbint.jsonio import dumps


def test_scalars():
    assert dumps(None) == "null"
    assert dumps(True) == "true"
    assert dumps(False) == "false"
    assert dumps(3) == "3"
    assert dumps(0.5) == "0.5"
    assert dumps(Fraction(3, 7)) == '"3/7"'
    assert dumps("a\"b") == json.dumps('a"b')


def test_float_precision():
    text = dumps(1 / 3)
    assert text == "0.33333333333333331"
    assert json.loads(text) == 1 / 3  # 17 significant digits round-trip
    assert dumps(2.0) == "2.0"
    assert dumps(1e-300) == "1e-300"
    assert json.loads(dumps(1e-300)) == 1e-300


def test_complex_numbers():
    assert dumps(1 + 2j) == '{"re": 1.0, "im": 2.0}'
    assert json.loads(dumps(-0.5j)) == {"re": -0.0, "im": -0.5}


def test_nesting_and_key_order():
    obj = {"b": [1, (2.5, None)], "a": {"x": Fraction(1, 2)}}
    text = dumps(obj)
    assert text == '{"b": [1, [2.5, null]], "a": {"x": "1/2"}}'
    assert json.loads(text) == {"b": [1, [2.5, None]], "a": {"x": "1/2"}}


def test_rejections():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps(float("inf"))
    with pytest.raises(TypeError):
        dumps(object())
