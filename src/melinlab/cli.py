"""Command-line interface.

Subcommands: traceplus | localize | sweep | phase | star.

Exit codes: 0 success / verification pass, 2 invalid input, 3 hypothesis
failure, 4 verification failure.  A sweep solves its rows as one batch
in this process; --workers is validated (>= 1) and kept for
compatibility, and no output depends on it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import MelinLabError, ModelFileError, PositivityError
from .invariants import QuadraticData, fundamental_matrix, trace_plus
from .localize import hypothesis_check, localize
from .modelfile import _PHASE_AXES, load_model_file, load_symbol_literal, sweep_spec_from_model
from .sweep import PHASE_TRUNCATION, emit_report, lambda_sweep, melin_phase_diagram, render_report
from .symbols import moyal_star

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_HYPOTHESIS = 3
EXIT_VERIFICATION = 4


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INVALID


def _resolve_workers(value: int) -> int:
    if value < 1:
        raise MelinLabError(f"--workers must be >= 1, got {value}")
    return value


def _parse_matrix(text: str, allow_json: bool = False) -> np.ndarray:
    """A 2d x 2d matrix from rows separated by ";" or newlines, or, with
    allow_json, from a JSON array."""
    text = text.strip()
    try:
        if allow_json and text.startswith("["):
            mat = np.array(json.loads(text), dtype=float)
        else:
            rows = [r.strip() for r in text.replace("\n", ";").split(";") if r.strip()]
            mat = np.array([[float(v) for v in r.split()] for r in rows])
    except (ValueError, TypeError) as exc:
        raise MelinLabError(f"cannot parse matrix {text!r}: {exc}")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise MelinLabError(f"matrix must be square, got shape {mat.shape}")
    if mat.shape[0] % 2:
        raise MelinLabError(f"matrix size must be even (2d x 2d), got {mat.shape[0]}")
    return mat


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_traceplus(args: argparse.Namespace) -> int:
    if args.h_file:
        with open(args.h_file, "r", encoding="utf-8") as fh:
            hessian = _parse_matrix(fh.read(), allow_json=True)
    else:
        hessian = _parse_matrix(args.h)
    d = hessian.shape[0] // 2
    try:
        q = QuadraticData(d=d, hessian=hessian, subprincipal=args.s)
        f = fundamental_matrix(q)
        tplus = trace_plus(q)
        melin = q.subprincipal + 0.5 * tplus
    except PositivityError as exc:
        print(f"hypothesis violated: the quadratic form must be >= 0 ({exc})", file=sys.stderr)
        return EXIT_INVALID
    if args.json:
        print(json.dumps({
            "d": d,
            "F": f.tolist(),
            "trace_plus": tplus,
            "melin": melin,
        }, indent=2))
    else:
        print("F =")
        print(np.array2string(f))
        print(f"trace_plus = {tplus:.12g}")
        print(f"melin = {melin:.12g}")
    return EXIT_OK


def cmd_localize(args: argparse.Namespace) -> int:
    symbol, _, _ = load_model_file(args.model)
    diagnosis = hypothesis_check(symbol)
    # a non-Hermitian operator is not kept; localizing again raises its error
    op = diagnosis.localized or localize(symbol, strict=False)
    if args.dump_matrix:
        with open(args.dump_matrix, "w", encoding="utf-8") as fh:
            json.dump({
                "d": op.matrix.d,
                "n": op.matrix.n,
                "hbar": op.matrix.hbar,
                "re": op.matrix.entries.real.tolist(),
                "im": op.matrix.entries.imag.tolist(),
            }, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps({
            "symbol": op.symbol.to_dict(),
            "k": op.k,
            "lambda_min": op.lambda_min,
            "truncations": list(op.sweep.truncations),
            "sweep_values": list(op.sweep.values),
            "diagnosis": {
                "vanishing_ok": diagnosis.vanishing_ok,
                "vanishing_violations": {
                    str(j): v for j, v in diagnosis.vanishing_violations.items()
                },
                "ellipticity_ok": diagnosis.ellipticity_ok,
                "ellipticity_min": diagnosis.ellipticity_min,
                "positivity_ok": diagnosis.positivity_ok,
                "ok": diagnosis.ok,
            },
        }, indent=2))
    else:
        print(f"localized symbol (hbar = 1): {op.symbol}")
        print(f"k = {op.k}, d = {op.symbol.d}")
        ladder = ", ".join(
            f"N={n}: {v:.12g}" for n, v in zip(op.sweep.truncations, op.sweep.values)
        )
        print(f"truncation sweep: {ladder} (last gap {op.sweep.last_gap:.3g})")
        print(f"lambda_min = {op.lambda_min:.12g}")
        print("hypothesis diagnosis:")
        for line in diagnosis.summary_lines():
            print("  " + line)
    return EXIT_OK if diagnosis.ok else EXIT_HYPOTHESIS


def cmd_sweep(args: argparse.Namespace) -> int:
    symbol, sweep_section, _ = load_model_file(args.model)
    if sweep_section is None:
        raise ModelFileError(f"model file {args.model} has no \"sweep\" section")
    spec = sweep_spec_from_model(symbol, sweep_section)
    workers = _resolve_workers(args.workers)
    report = lambda_sweep(spec, workers=workers)
    emit_report(report, args.format, args.out)
    if args.json:
        print(render_report(report, "json").decode(), end="")
    else:
        for r in report.rows:
            print(
                f"lambda={r.lam:g} n_used={r.n_used} lambda_min={r.lambda_min:.9g} "
                f"scaled={r.scaled:.9g} reference={r.reference:.9g}"
            )
        print(f"slope = {report.slope:.4f} (target {-report.k})")
        for note in report.notes:
            print(f"note: {note}")
        for reason in report.reasons:
            print(f"reason: {reason}")
        print(f"verdict: {report.verdict}")
        print(f"wrote {args.out}")
    return EXIT_OK if report.verdict == "pass" else EXIT_VERIFICATION


def cmd_phase(args: argparse.Namespace) -> int:
    symbol, _, phase_section = load_model_file(args.model)
    if phase_section is None:
        raise ModelFileError(f"model file {args.model} has no \"phase\" section")
    del symbol  # the phase grid is defined by its own section
    axes = [np.linspace(lo, hi, int(count))
            for lo, hi, count in (phase_section[ax] for ax in _PHASE_AXES)]
    report = melin_phase_diagram(
        *axes,
        truncation=phase_section.get("truncation", PHASE_TRUNCATION),
        workers=_resolve_workers(args.workers),
    )
    if args.out:
        emit_report(report, args.format, args.out)
    if args.json:
        print(json.dumps({
            "points": len(report.points),
            "skipped": len(report.skipped),
            "max_error": report.max_error,
        }, indent=2))
    else:
        print(f"phase diagram: {len(report.points)} points, {len(report.skipped)} skipped")
        if report.points:
            worst = max(report.points, key=lambda p: p.error)
            print(
                f"max |lambda_min - melin| = {report.max_error:.3e} at "
                f"(alpha={worst.alpha:g}, beta={worst.beta:g}, gamma={worst.gamma:g}, s={worst.s:g})"
            )
        if args.out:
            print(f"wrote {args.out}")
    return EXIT_OK


def cmd_star(args: argparse.Namespace) -> int:
    a = load_symbol_literal(args.a)
    b = load_symbol_literal(args.b)
    if not 0 <= args.hbar < math.inf:
        raise MelinLabError(f"--hbar must be finite and >= 0, got {args.hbar}")
    try:
        result = moyal_star(a, b, args.hbar)
    except OverflowError:  # a weight (i hbar/2)^r / r! or r! / (alpha! beta!) past a double
        raise MelinLabError(f"the star series weight overflows a double at hbar={args.hbar:g}")
    if not result.is_finite():
        raise MelinLabError("a # b has a coefficient that is not finite (it overflows a double)")
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(f"a # b = {result}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melinlab",
        description="Weyl calculus for graded model operators: invariants, "
                    "localization, and scaling-law verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("traceplus", help="fundamental matrix, plus-trace, and Melin quantity")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", help='Hessian, rows separated by ";" (e.g. "2 0; 0 2")')
    group.add_argument("--h-file", help="file containing the Hessian (rows or a JSON array)")
    p.add_argument("--s", type=float, default=0.0, help="subprincipal constant (default 0)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_traceplus)

    p = sub.add_parser("localize", help="localized operator and hypothesis diagnosis")
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--dump-matrix", metavar="PATH",
                   help="write the localized matrix entries as JSON for debugging")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("sweep", help="run the Lambda scaling sweep of a model")
    p.add_argument("model", help="model file (JSON) with a \"sweep\" section")
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=1,
                   help="validated (>= 1); rows are one batch and no output depends on it")
    p.add_argument("--json", action="store_true", help="machine-readable console summary")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("phase", help="quadratic-model phase diagram vs the Melin quantity")
    p.add_argument("model", help="model file (JSON) with a \"phase\" section")
    p.add_argument("--out", help="optional table output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=1,
                   help="validated (>= 1); forms run in order and no output depends on it")
    p.add_argument("--json", action="store_true", help="machine-readable console summary")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("star", help="Moyal star product of two polynomial symbols")
    p.add_argument("--a", required=True, help="left symbol as a JSON literal")
    p.add_argument("--b", required=True, help="right symbol as a JSON literal")
    p.add_argument("--hbar", type=float, required=True, help="star parameter")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_star)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MelinLabError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
