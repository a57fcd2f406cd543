"""Every coefficient of the symbol algebra pinned to the bit.

tests/data/symbol_bits.json holds the results below on seeded d = 1 and
d = 2 pairs of graded symbols (level 0 of degree 4-8), each coefficient
as the float hex of its real and its imaginary part, so the sign of a
zero counts too.  Rewrite the file only from a commit whose results are
the reference:

    PYTHONPATH=src:tests python3 tests/test_symbol_bits.py
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from melinlab.localize import localized_symbol
from melinlab.symbols import (
    GradedSymbol,
    PolynomialSymbol,
    bidifferential_power,
    eta,
    graded_star,
    moyal_star,
    scale_symbol,
    y,
)

from oracles import random_polynomial

FIXTURE = Path(__file__).parent / "data" / "symbol_bits.json"


def seeded(rng, d, degree):
    p = random_polynomial(rng, d, degree, n_terms=8, real=False)
    return PolynomialSymbol(d, {k: c * rng.uniform(0.5, 1.5) for k, c in p.terms.items()})


def pairs():
    rng = np.random.default_rng(2016)
    for d, degrees in ((1, ((4, 6), (8, 5), (7, 8))), (2, ((4, 6), (8, 5)))):
        for deg_p, deg_q in degrees:
            p = GradedSymbol(d, 2, {0: seeded(rng, d, deg_p), 1: seeded(rng, d, 3),
                                    2: seeded(rng, d, 1)}, m=2)
            q = GradedSymbol(d, 1, {0: seeded(rng, d, deg_q), 1: seeded(rng, d, 2)},
                             m=Fraction(3, 2))
            yield f"d{d}-{deg_p}-{deg_q}", p, q


def results():
    """{name: PolynomialSymbol} of every pinned result."""
    out = {}
    for tag, p, q in pairs():
        a, b = p.levels[0], q.levels[0]
        g = graded_star(p, q)
        for j, level in g.levels.items():
            out[f"{tag}/graded_star/{j}"] = level
        out[f"{tag}/moyal_star"] = moyal_star(p.fold(4.0), q.fold(4.0), 0.25)
        out[f"{tag}/bidifferential_2"] = bidifferential_power(a, b, 2)
        out[f"{tag}/product"] = a * b
        out[f"{tag}/scalar"] = (0.3 - 1.7j) * a
        for name, s in (("p", p), ("q", q), ("g", g)):
            out[f"{tag}/fold_{name}"] = s.fold(4.0)
            out[f"{tag}/localized_{name}"] = localized_symbol(s, strict=False)
            out[f"{tag}/scaled_{name}"] = scale_symbol(s).fold(4.0)
        out[f"{tag}/neg"] = -a
        out[f"{tag}/conj"] = a.conjugate()
        out[f"{tag}/sum"] = a + b
        out[f"{tag}/diff"] = a - b
        for axis in range(2 * a.d):
            out[f"{tag}/derivative_{axis}"] = a.derivative(axis)
    hand = 3 * y() + 2j * eta()
    out["hand/neg"] = -hand
    out["hand/conj"] = hand.conjugate()
    out["hand/diff"] = hand - 2j * eta()
    return out


def hex_map(p):
    return {tuple(k): (c.real.hex(), c.imag.hex()) for k, c in p.terms.items()}


def test_symbol_results_match_pinned_bits():
    pinned = json.loads(FIXTURE.read_text())
    got = results()
    assert sorted(got) == sorted(pinned)
    for name, p in got.items():
        expect = {tuple(k): (re, im) for k, re, im in pinned[name]}
        assert hex_map(p) == expect, name


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {name: [[list(k), *c] for k, c in hex_map(p).items()]
            for name, p in results().items()}
    lines = ",\n".join(f"{json.dumps(name)}: [\n" + ",\n".join(map(json.dumps, terms)) + "]"
                       for name, terms in sorted(data.items()))
    FIXTURE.write_text("{\n" + lines + "}\n")
