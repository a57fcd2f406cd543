"""Model-file validation against jsonschema, its oracle.

modelfile checks MODEL_SCHEMA and the symbol-literal schema with its own
walk; on a seeded corpus of mutated models and literals every verdict,
error path and message must equal what jsonschema's best_match reports.
"""

import copy
import json
import random
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from melinlab import modelfile
from melinlab.errors import ModelFileError
from melinlab.modelfile import _SYMBOL_SCHEMA, MODEL_SCHEMA
from melinlab.symbols import GradedSymbol, eta, y

MODELS = sorted((Path(__file__).resolve().parent.parent / "demos" / "models").glob("*.json"))
STAR_LITERALS = [  # the `melinlab star` literals of the CLI tests and CI
    '{"d":1,"terms":[{"c":[1,0],"y":[2],"eta":[0]}]}',
    '{"d":1,"terms":[{"c":[1,0],"y":[0],"eta":[2]}]}',
    '{"d":2,"terms":[{"c":[1,0],"y":[32,32],"eta":[0,0]},{"c":[0.5,0],"y":[1,0],"eta":[0,1]}]}',
    '{"d":2,"terms":[{"c":[1,0],"y":[0,0],"eta":[32,32]},{"c":[2,0],"y":[0,1],"eta":[1,0]}]}',
]
VALUES = [True, None, "x", -1, 0, 0.5, 2.0, 33, 300, 1e308, float("nan"), [], {}]
TOP_LEVEL = [[1, 2], 3, "x", None, True, 2.0, [], {}]
# mutated cases per base; jsonschema takes about 10 ms on a mutated degree-8 model
MUTATIONS = {"small": 620, "degree-8": 300}  # 6 small bases: 4020 mutated cases


def degree8_model() -> dict:
    """A d = 2, k = 2 model of star_compose size and shape: level 0 is
    Q1^2 + 0.1 Q2^4 (level-0 degree 8), 49 terms in all."""
    q1 = y(2, 0) ** 2 + 1.2 * eta(2, 0) ** 2 + eta(2, 1) ** 2
    q2 = y(2, 0) ** 2 + 0.9 * eta(2, 0) ** 2 + 1.1 * y(2, 1) ** 2 + eta(2, 1) ** 2
    levels = {0: q1 * q1 + 0.1 * q2 ** 4, 1: q2 + 0.5 * y(2, 0), 2: 0.25 * q1}
    model = GradedSymbol(2, 2, levels).to_dict()
    model["sweep"] = {"lambdas": [16, 64], "truncations": [8, 16], "limit_tol": 0.1}
    model["phase"] = {"alpha": [0.7, 2.5, 3], "beta": [-0.5, 0.5, 3], "gamma": [0.7, 2.5, 3],
                      "s": [-1, 1, 2], "truncation": 16}
    return model


def _nodes(x, path=()):
    yield path, x
    if isinstance(x, dict):
        for key, value in x.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(x, list):
        for i, value in enumerate(x):
            yield from _nodes(value, path + (i,))


def _mutate(rng: random.Random, case):
    """One mutation: set a value, add an unknown key, delete a key or append
    an item, at a node drawn from the whole case (the root included)."""
    nodes = list(_nodes(case))
    path, node = rng.choice(nodes)
    value = copy.deepcopy(rng.choice(VALUES))
    kind = rng.randrange(4)
    if kind == 1 and isinstance(node, dict):
        node[rng.choice(["zz", "a", "terms", "lambda"])] = value
    elif kind == 2 and isinstance(node, dict) and node:
        del node[rng.choice(list(node))]
    elif kind == 3 and isinstance(node, list):
        node.append(copy.deepcopy(node[0]) if node and rng.random() < 0.5 else value)
    elif not path:
        return value
    else:
        parent = case
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return case


def corpus():
    """(schema, case) pairs: every base as it is, the top-level non-objects,
    and per base its MUTATIONS count of seeded cases of 1-3 mutations each."""
    bases = [(MODEL_SCHEMA, json.loads(p.read_text()), "small") for p in MODELS]
    bases.append((MODEL_SCHEMA, degree8_model(), "degree-8"))
    bases += [(_SYMBOL_SCHEMA, json.loads(text), "small") for text in STAR_LITERALS]
    cases = [(schema, base) for schema, base, _ in bases]
    cases += [(schema, x) for schema in (MODEL_SCHEMA, _SYMBOL_SCHEMA) for x in TOP_LEVEL]
    rng = random.Random(20261020)
    for schema, base, size in bases:
        for _ in range(MUTATIONS[size]):
            case = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                case = _mutate(rng, case)
            cases.append((schema, case))
    return cases


def oracle_text(validator, case, what: str) -> str | None:
    error = best_match(validator.iter_errors(case))
    if error is None:
        return None
    where = "/".join(str(p) for p in error.absolute_path) or "(root)"
    return f"{what} invalid at {where}: {error.message}"


def test_schemas_are_valid_under_the_metaschema():
    Draft202012Validator.check_schema(MODEL_SCHEMA)
    Draft202012Validator.check_schema(_SYMBOL_SCHEMA)


def test_checker_reports_what_best_match_reports_on_the_mutation_corpus():
    validators = {id(s): Draft202012Validator(s) for s in (MODEL_SCHEMA, _SYMBOL_SCHEMA)}
    cases = corpus()
    assert len(cases) >= 4000
    rejected = 0
    for schema, case in cases:
        what = "model file" if schema is MODEL_SCHEMA else "symbol literal"
        want = oracle_text(validators[id(schema)], case, what)
        try:
            modelfile._validate(schema, case, what)
            got = None
        except ModelFileError as exc:
            got = str(exc)
            rejected += 1
        assert got == want, case
    # both verdicts are well represented
    assert 0.5 * len(cases) < rejected < 0.95 * len(cases), rejected


@pytest.mark.parametrize("case, message", [
    ({"d": 1, "m": 0, "k": 2, "levels": [], "phase": {
        "alpha": [1, 2, 3, 4], "beta": [1, 2, 3], "gamma": [1, 2, 3], "s": [1, 2, 3]}},
     "at phase/alpha: Expected at most 3 items but found 1 extra: 4"),
    ({"d": True, "m": 0, "k": 2, "levels": []}, "at d: True is not of type 'integer'"),
    ({"d": 1, "m": 0, "k": 2, "levels": [],
      "sweep": {"lambdas": [1], "truncations": [2], "slope_tol": 0}},
     "at sweep/slope_tol: 0 is less than or equal to the minimum of 0"),
    ({"d": 2.0, "m": float("nan"), "k": 0, "levels": [],
      "sweep": {"lambdas": [float("nan")], "truncations": [2.0], "limit_tol": float("nan")}},
     None),
])
def test_checker_follows_jsonschema_type_and_comparison_rules(case, message):
    if message is None:
        modelfile._validate(MODEL_SCHEMA, case, "model file")
    else:
        with pytest.raises(ModelFileError, match=f"^model file invalid {message}$"):
            modelfile._validate(MODEL_SCHEMA, case, "model file")


@pytest.mark.parametrize("node", [
    {"type": "integer", "multipleOf": 2},           # a keyword the walk does not read
    {"minimum": 0, "type": "integer"},              # "type" not first
    {"type": "string"},                             # a type the walk does not know
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": "array", "items": {"type": "integer", "const": 3}},
])
def test_schema_nodes_the_checker_would_misread_are_refused(node):
    with pytest.raises(AssertionError, match="not interpreted"):
        modelfile._check_schema({"type": "object", "properties": {"x": node}})
