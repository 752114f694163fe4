"""Deterministic JSON emission: fixed float formatting (17 significant digits),
complex numbers as {re, im} records, Fractions as "p/q" strings.  Identical
inputs therefore produce byte-identical output.  ``read_int`` reads the
integers of JSON input."""

from __future__ import annotations

import json
import sys
from fractions import Fraction


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in JSON output")
    text = format(x, ".17g")
    # keep it a JSON number
    if "e" not in text and "." not in text and "inf" not in text and "nan" not in text:
        text += ".0"
    return text


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, complex):
        return '{"re": %s, "im": %s}' % (_format_float(obj.real), _format_float(obj.imag))
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        parts = ", ".join(f"{json.dumps(str(k))}: {_encode(v)}" for k, v in obj.items())
        return "{" + parts + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    return _encode(obj)


def read_int(value) -> int:
    """``int(value)`` of a parsed JSON value, but a boolean, a number off the
    integers or one beyond the double range raises ValueError instead of
    reading as 1 or 0, truncating, or overflowing the first float it meets:
    2.0 reads as 2, while 2.5, 1e400 (infinite), a 400-digit integer and true
    are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    value = int(value)
    if abs(value) > sys.float_info.max:
        raise ValueError("an integer beyond the double range")
    return value
