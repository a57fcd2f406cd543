"""Model-file loading and schema validation.

A model file is the JSON graded-symbol literal plus optional experiment
sections:

    {
      "d": 1, "m": 0, "k": 2,
      "levels": [{"j": 0, "terms": [{"c": [1, 0], "y": [4], "eta": [0]}, ...]}, ...],
      "sweep": {"lambdas": [16, 64], "truncations": [16, 32],
                "limit_tol": 0.05, "slope_tol": 0.05},
      "phase": {"alpha": [0.7, 2.5, 10], "beta": [-0.5, 0.5, 10],
                "gamma": [0.7, 2.5, 10], "s": [-1, 1, 5], "truncation": 64}
    }

Input limits: d <= MAX_MODES = 2; every truncation (sweep and phase) is
an integer from 2 to MAX_TRUNCATION = 256; Lambda >= 1, and Lambda^k
must fit a double.  Each phase range is [low, high, count] with an
integer count >= 1, and the grid (the product of the four counts) may
hold at most 10^6 points.  Every number must be a finite double: the
JSON parse rejects NaN, Infinity and overflowing numbers such as 1e400.
Unknown keys are rejected at every nesting level; all validation runs
before any computation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .errors import ModelFileError
from .quantize import MAX_MODES, MAX_TRUNCATION
from .symbols import GradedSymbol, PolynomialSymbol
from .sweep import ModelSpec

__all__ = ["MODEL_SCHEMA", "load_model_dict", "load_model_file", "load_symbol_literal",
           "sweep_spec_from_model"]

_RANGE = {  # [low, high, count]
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "number"}, {"type": "integer", "minimum": 1}],
    "items": False,
    "minItems": 3,
}
_TRUNCATION = {"type": "integer", "minimum": 2, "maximum": MAX_TRUNCATION}
_PHASE_AXES = ("alpha", "beta", "gamma", "s")
_MAX_PHASE_POINTS = 10**6  # product of the four counts

MODEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["d", "m", "k", "levels"],
    "properties": {
        "d": {"type": "integer", "minimum": 1, "maximum": MAX_MODES},
        "m": {"type": "number"},
        "k": {"type": "integer", "minimum": 0},
        "levels": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["j", "terms"],
                "properties": {
                    "j": {"type": "integer", "minimum": 0},
                    "terms": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["c", "y", "eta"],
                            "properties": {
                                "c": {
                                    "type": "array",
                                    "items": {"type": "number"},
                                    "minItems": 2,
                                    "maxItems": 2,
                                },
                                "y": {
                                    "type": "array",
                                    "items": {"type": "integer", "minimum": 0},
                                },
                                "eta": {
                                    "type": "array",
                                    "items": {"type": "integer", "minimum": 0},
                                },
                            },
                        },
                    },
                },
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["lambdas", "truncations"],
            "properties": {
                "lambdas": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 1},
                    "minItems": 1,
                },
                "truncations": {
                    "type": "array",
                    "items": _TRUNCATION,
                    "minItems": 1,
                },
                "limit_tol": {"type": "number", "exclusiveMinimum": 0},
                "slope_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "phase": {
            "type": "object",
            "additionalProperties": False,
            "required": list(_PHASE_AXES),
            "properties": {**dict.fromkeys(_PHASE_AXES, _RANGE), "truncation": _TRUNCATION},
        },
    },
}


# A polynomial-symbol literal {"d": ..., "terms": [...]}, as `melinlab star`
# takes it; symbol algebra has no mode limit.
_SYMBOL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["d", "terms"],
    "properties": {
        "d": {"type": "integer", "minimum": 1},
        "terms": MODEL_SCHEMA["properties"]["levels"]["items"]["properties"]["terms"],
    },
}

# Checked and compiled once; jsonschema.validate would redo both per call.
# The symbol schema adds only "d" to MODEL_SCHEMA's checked term schema,
# so it is compiled without another 6 ms metaschema check at import.
_VALIDATOR = validator_for(MODEL_SCHEMA)(MODEL_SCHEMA)
_VALIDATOR.check_schema(MODEL_SCHEMA)
_SYMBOL_VALIDATOR = validator_for(_SYMBOL_SCHEMA)(_SYMBOL_SCHEMA)


def _validate(validator, data, what: str) -> None:
    error = best_match(validator.iter_errors(data))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "(root)"
        raise ModelFileError(f"{what} invalid at {where}: {error.message}") from error


def load_model_dict(data: dict) -> tuple[GradedSymbol, dict | None, dict | None]:
    """Validate a parsed model dict; returns (symbol, sweep, phase)."""
    _validate(_VALIDATOR, data, "model file")
    try:
        symbol = GradedSymbol.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"model file invalid: {exc}") from exc
    if Fraction(symbol.m * 2).denominator != 1:
        raise ModelFileError(f"order m={symbol.m} must be a half-integer")
    phase = data.get("phase")
    if phase and math.prod(int(phase[ax][2]) for ax in _PHASE_AXES) > _MAX_PHASE_POINTS:
        raise ModelFileError(f"phase grid has more than {_MAX_PHASE_POINTS} points")
    return symbol, data.get("sweep"), phase


def _finite(text: str) -> float:
    """Number hook of every model-file and literal parse: json alone lets
    NaN, Infinity and overflowing numbers such as 1e400 through."""
    value = float(text)
    if not math.isfinite(value):
        raise ModelFileError(f"{text} is not allowed; numbers must be finite")
    return value


def _finite_int(text: str) -> int:
    _finite(text)
    return int(text)


_JSON_NUMBERS = {"parse_float": _finite, "parse_int": _finite_int, "parse_constant": _finite}


def load_symbol_literal(text: str) -> PolynomialSymbol:
    """Parse and validate a polynomial-symbol literal, then build it."""
    try:
        data = json.loads(text, **_JSON_NUMBERS)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"symbol is not valid JSON: {exc}") from exc
    _validate(_SYMBOL_VALIDATOR, data, "symbol literal")
    return PolynomialSymbol.from_dict(data)


def load_model_file(path: str) -> tuple[GradedSymbol, dict | None, dict | None]:
    """Read and validate a model file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, **_JSON_NUMBERS)
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelFileError(f"model file {path} must contain a JSON object")
    return load_model_dict(data)


def sweep_spec_from_model(symbol: GradedSymbol, section: dict) -> ModelSpec:
    """Build the sweep spec from a validated model-file section."""
    try:
        return ModelSpec(symbol=symbol, **section)
    except ValueError as exc:
        raise ModelFileError(f"sweep section invalid: {exc}") from exc
