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

Input limits: d <= MAX_MODES = 2; every exponent is an integer from 0 to
MAX_DEGREE = 32, and quantization rejects a symbol whose total degree
exceeds it; every truncation (sweep and phase) is an integer from 2 to
MAX_TRUNCATION = 256; Lambda >= 1, and Lambda^k must fit a double.
Each phase range is [low, high, count] with an integer count >= 1, and
the grid (the product of the four counts) may hold at most 10^6 points.
Every number must be a finite double: the JSON parse rejects NaN,
Infinity and overflowing numbers such as 1e400.  Unknown keys are
rejected at every nesting level; all validation runs before any
computation.

Validation walks MODEL_SCHEMA (and the symbol-literal schema of
`melinlab star`) itself; the schema dicts are the one statement of the
format.  The walk interprets exactly the JSON Schema keywords they use:
type, minimum, maximum, exclusiveMinimum, required,
additionalProperties (false), properties, items (a schema or false),
prefixItems, minItems and maxItems, with jsonschema's type rules (2.0
is an integer, True is no number, NaN fails no comparison).  A node
that fails its type is not checked further.  Import fails if either
schema uses anything else.  Of all errors, the one reported is the one
jsonschema's best_match picks: the shallowest path, the greatest of
equally deep paths, and the first of those in iteration order (schema
keys, then properties in schema order, then items by index), worded as
jsonschema 4.26 words it; the tests hold the walk to jsonschema on a
seeded mutation corpus.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from numbers import Number

from .errors import ModelFileError
from .quantize import MAX_DEGREE, MAX_MODES, MAX_TRUNCATION
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
_EXPONENT = {"type": "integer", "minimum": 0, "maximum": MAX_DEGREE}
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
                                "y": {"type": "array", "items": _EXPONENT},
                                "eta": {"type": "array", "items": _EXPONENT},
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
# takes it; symbol algebra has no mode limit, and its terms share the model
# file's exponent limit.
_SYMBOL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["d", "terms"],
    "properties": {
        "d": {"type": "integer", "minimum": 1},
        "terms": MODEL_SCHEMA["properties"]["levels"]["items"]["properties"]["terms"],
    },
}

_IS_TYPE = {  # jsonschema's type checks: True is no number, 2.0 is an integer
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "number": lambda x: isinstance(x, Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}
_KEYWORDS = {"type", "minimum", "maximum", "exclusiveMinimum", "required",
             "additionalProperties", "properties", "items", "prefixItems",
             "minItems", "maxItems"}


def _errors(schema: dict, x, path: tuple, out: list) -> None:
    """Append (path, message) for each error jsonschema 4.26 yields on x,
    in its order: the schema's keys, then properties in schema order, then
    items in index order."""
    kind = schema["type"]
    if not _IS_TYPE[kind](x):
        # "type" is every node's first key, so an error that jsonschema's
        # other keywords add here comes later on the same path and loses
        out.append((path, f"{x!r} is not of type {kind!r}"))
        return
    for key, value in schema.items():
        if key == "minimum":
            if x < value:
                out.append((path, f"{x!r} is less than the minimum of {value!r}"))
        elif key == "maximum":
            if x > value:
                out.append((path, f"{x!r} is greater than the maximum of {value!r}"))
        elif key == "exclusiveMinimum":
            if x <= value:
                out.append((path, f"{x!r} is less than or equal to the minimum of {value!r}"))
        elif key == "required":
            out.extend((path, f"{name!r} is a required property") for name in value
                       if name not in x)
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted((name for name in x if name not in known), key=str)
            if extras:
                names, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
                out.append((path, "Additional properties are not allowed "
                                  f"({names} {verb} unexpected)"))
        elif key == "properties":
            for name, sub in value.items():
                if name in x:
                    _errors(sub, x[name], path + (name,), out)
        elif key == "prefixItems":
            for i, (item, sub) in enumerate(zip(x, value)):
                _errors(sub, item, path + (i,), out)
        elif key == "items":
            prefix = len(schema.get("prefixItems", ()))
            if value is False:
                extra = len(x) - prefix
                if extra > 0:
                    rest = x[prefix] if extra == 1 else x[prefix:]
                    noun = "item" if prefix == 1 else "items"
                    out.append((path, f"Expected at most {prefix} {noun} but found {extra} "
                                      f"extra: {rest!r}"))
            else:
                for i in range(prefix, len(x)):
                    _errors(value, x[i], path + (i,), out)
        elif key == "minItems":
            if len(x) < value:
                verdict = "should be non-empty" if value == 1 else "is too short"
                out.append((path, f"{x!r} {verdict}"))
        elif key == "maxItems":
            if len(x) > value:
                verdict = "is expected to be empty" if value == 0 else "is too long"
                out.append((path, f"{x!r} {verdict}"))


def _check_schema(schema: dict) -> None:
    """Refuse a schema node that _errors would misread: an uninterpreted
    keyword, a type it does not know or not given first, additionalProperties
    other than false, or items other than a schema or false."""
    items = schema.get("items", False)
    if (next(iter(schema), None) != "type" or schema["type"] not in _IS_TYPE
            or not schema.keys() <= _KEYWORDS
            or schema.get("additionalProperties", False) is not False
            or not (items is False or isinstance(items, dict))):
        raise AssertionError(f"model schema node not interpreted: {schema}")
    for sub in [*schema.get("properties", {}).values(), *schema.get("prefixItems", ()),
                *([items] if items else ())]:
        _check_schema(sub)


_check_schema(MODEL_SCHEMA)
_check_schema(_SYMBOL_SCHEMA)


def _validate(schema: dict, data, what: str) -> None:
    """Raise ModelFileError with the error best_match would pick: the
    greatest (-depth, path), the first of equals in _errors' order."""
    errors: list = []
    _errors(schema, data, (), errors)
    if errors:
        path, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
        where = "/".join(map(str, path)) or "(root)"
        raise ModelFileError(f"{what} invalid at {where}: {message}")


def load_model_dict(data: dict) -> tuple[GradedSymbol, dict | None, dict | None]:
    """Validate a parsed model dict; returns (symbol, sweep, phase)."""
    _validate(MODEL_SCHEMA, data, "model file")
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
    _validate(_SYMBOL_SCHEMA, data, "symbol literal")
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
