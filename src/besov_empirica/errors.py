"""Exception types shared across the package, and the checks that turn a
malformed input file into one of them."""

import json
import sys


class BesovEmpiricaError(Exception):
    """Base class for all package errors."""


class ParameterError(BesovEmpiricaError, ValueError):
    """A parameter violates its documented domain.

    Carries the offending parameter name so command-line handling can
    point at the exact key in its diagnostic.
    """

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key
        self.message = message


class TiesError(BesovEmpiricaError):
    """Tied observations in a sample that should be almost surely tie-free.

    Ties have probability zero under the sampling model, so hitting one
    signals generator misuse.  Callers must abort, never perturb.
    """


class AggregationError(BesovEmpiricaError):
    """Replicate partials do not cover the replicate range exactly once."""


def read_json_object(path, key: str) -> dict:
    """The JSON object in file ``path``; any failure is a ``ParameterError(key, ...)``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8, or a NUL in the path
        raise ParameterError(key, f"cannot read a JSON file: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(key, "file must hold a JSON object")
    return data


_EXPECTED = {str: "a string", int: "an integer", float: "a finite number",
             list: "a list", dict: "an object"}


def checked_value(key: str, value, kind):
    """A JSON value of type ``kind``, never coerced; ``float`` takes any finite number."""
    if kind is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if not ok or isinstance(value, bool):
        raise ParameterError(key, f"must be {_EXPECTED[kind]} (got {value!r})")
    return float(value) if kind is float else value
