"""The public surface: `import melinlab` re-exports each module's __all__;
the test oracles lean on none of it but the symbol class."""

import ast
import importlib
from pathlib import Path

import melinlab

SURFACE = {
    "errors": [
        "MelinLabError", "DimensionMismatch", "VanishingOrderError", "GradingError",
        "PositivityError", "NonHermitianError", "MonotonicityError", "ModelFileError",
        "ResourceLimitError",
    ],
    "symbols": [
        "PolynomialSymbol", "GradedSymbol", "HalfGradedPolynomial", "y", "eta", "moyal_star",
        "bidifferential_power", "poisson_bracket", "graded_star", "taylor_transverse",
        "scale_symbol",
    ],
    "quantize": [
        "OperatorMatrix", "weyl_quantize", "lowest_eigenvalue", "TruncationSweep",
        "truncation_sweep", "conjugation_residual",
    ],
    "invariants": [
        "QuadraticData", "symplectic_form_matrix", "fundamental_matrix", "trace_plus",
        "melin_quantity",
    ],
    "localize": [
        "LocalizedOperator", "localized_symbol", "localize", "HypothesisDiagnosis",
        "hypothesis_check", "localization_product_check", "unit_sphere_grid",
    ],
    "sweep": [
        "ModelSpec", "SweepRow", "SweepReport", "lambda_sweep", "PhasePoint", "PhaseReport",
        "melin_phase_diagram", "emit_report", "render_report", "parse_report",
    ],
    "models": ["harmonic_symbol", "quadratic_form_symbol", "quadratic_model", "quartic_model"],
}


def test_package_all_is_the_union_of_the_module_lists():
    names = ["__version__"] + [n for listed in SURFACE.values() for n in listed]
    assert len(names) == 53
    assert sorted(melinlab.__all__) == sorted(names)
    for module_name, listed in SURFACE.items():
        module = importlib.import_module(f"melinlab.{module_name}")
        assert sorted(module.__all__) == sorted(listed)
        for name in listed:
            assert getattr(melinlab, name) is getattr(module, name), name
    # the package attribute is the function, not the submodule it shadows
    assert callable(melinlab.localize)
    # MultiIndex is importable from its module but not public
    assert importlib.import_module("melinlab.symbols").MultiIndex is tuple


def test_oracles_import_only_the_symbol_class_from_melinlab():
    # the reference computations must not share the code paths they check
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "melinlab"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "melinlab":
            imported |= {f"{node.module}.{a.name}" for a in node.names}
    assert imported == {"melinlab.symbols.PolynomialSymbol"}


def test_only_the_symbol_module_reads_the_symbol_storage():
    # a PolynomialSymbol's arrays (_exps, _coef, built by _arrays) belong to
    # symbols.py; every other module reads a symbol through its methods, and
    # symbol algebra such as a pull-back lives in symbols.py
    storage = {"_exps", "_coef", "_arrays"}
    readers = {}
    for path in sorted(Path(melinlab.__file__).parent.glob("*.py")):
        if path.name == "symbols.py":
            continue
        used = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and node.attr in storage}
        if used:
            readers[path.name] = sorted(used)
    assert readers == {}
