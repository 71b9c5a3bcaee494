"""Command-line front end for the verification engine.

Four subcommands: ``lie`` runs the structure-constant suite for one
algebra, ``model`` runs the check suite for one model instance,
``solve-lambda`` solves for the couplings that conserve the level-1
generators, and ``dump-tables`` emits the structure constants and metric
as deterministic JSON for external diffing.

Exit codes: 0 all executed checks passed, 1 at least one check failed
or errored, 2 invalid configuration.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

from .checks import (MODEL_CHECK_NAMES, CheckReport, run_lambda_solver,
                     run_lie_suite, run_model_suite)
from .errors import DegenerateCouplingError
from .lie import AlgebraSpec, basis, metric, structure_row
from .models import MODEL_KINDS, ModelSpec
from .operators import DEFAULT_TERM_CEILING, term_ceiling
from .version import __version__

Coupling = Union[str, Fraction]


class ConfigError(Exception):
    """Rejected run configuration; maps to exit code 2."""


def _parse_theta0(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError("theta0 must be +1 or -1")


_RATIONAL_SHAPE = re.compile(r"[+-]?\d+(/[1-9]\d*)?\Z")


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_SHAPE.match(text):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like 5, -2 or 1/3, got {text!r}")
    return Fraction(text)


def _parse_coupling(text: str) -> Coupling:
    if text in ("star", "symbolic"):
        return text
    return _parse_rational(text)


def _parse_trap(text: str) -> Coupling:
    if text == "symbolic":
        return text
    return _parse_rational(text)


def _parse_checks(text: str) -> Tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError("empty check list")
    unknown = [c for c in names if c not in MODEL_CHECK_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown checks {unknown}; "
            f"available: {', '.join(MODEL_CHECK_NAMES)}")
    return names


def _parse_positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsym",
        description="Exact symbolic verification of the symmetry algebras "
                    "of spin Calogero, Sutherland and confined models.")
    parser.add_argument("--version", action="version",
                        version=f"spinsym {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_algebra(p: argparse.ArgumentParser) -> None:
        p.add_argument("--N", type=int, required=True, metavar="N",
                       help="size of the defining representation")
        p.add_argument("--theta0", type=_parse_theta0, required=True,
                       metavar="{+1,-1}", help="+1 for so(N), -1 for sp(N)")

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--term-ceiling", type=_parse_positive,
                       default=DEFAULT_TERM_CEILING, metavar="TERMS",
                       help="abort any operator that grows past this many "
                            f"terms (default {DEFAULT_TERM_CEILING})")

    def add_model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", choices=MODEL_KINDS, required=True)
        p.add_argument("--L", type=int, required=True, metavar="L",
                       help="number of sites")
        p.add_argument("--omega", type=_parse_trap, default=None,
                       metavar="OMEGA",
                       help="trap strength: symbolic or an exact rational "
                            "(confined model only)")

    lie = sub.add_parser(
        "lie", help="structure constants, Jacobi, metric and coupling "
                    "weight for one algebra")
    add_algebra(lie)
    add_output(lie)
    lie.set_defaults(command=_cmd_lie)

    model = sub.add_parser("model", help="run the model check suite")
    add_algebra(model)
    add_model(model)
    model.add_argument(
        "--lambda", dest="lam", type=_parse_coupling, default="star",
        metavar="LAMBDA",
        help="coupling: star (critical value), symbolic, or an exact "
             "rational; use --lambda=-1/3 for negative fractions")
    model.add_argument(
        "--checks", type=_parse_checks, default=None, metavar="LIST",
        help="comma-separated subset of: " + ", ".join(MODEL_CHECK_NAMES))
    model.add_argument("--seed", type=int, default=1,
                       help="seed for the evaluation oracle (default 1)")
    add_output(model)
    model.set_defaults(command=_cmd_model)

    solve = sub.add_parser(
        "solve-lambda", help="solve for couplings that conserve the "
                             "level-1 generators")
    add_algebra(solve)
    add_model(solve)
    add_output(solve)
    solve.set_defaults(command=_cmd_solve, lam="symbolic")

    dump = sub.add_parser(
        "dump-tables", help="emit structure constants and metric as a "
                            "deterministic table")
    add_algebra(dump)
    add_output(dump)
    dump.set_defaults(command=_cmd_dump)
    return parser


def _algebra(ns: argparse.Namespace) -> AlgebraSpec:
    try:
        return AlgebraSpec(ns.N, ns.theta0)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _trap(ns: argparse.Namespace) -> Coupling:
    """The --omega value; symbolic when it is not given."""
    return "symbolic" if ns.omega is None else ns.omega


def _model_spec(ns: argparse.Namespace) -> ModelSpec:
    spec = _algebra(ns)
    if ns.omega is not None and ns.model != "confined":
        raise ConfigError(
            f"--omega sets the trap of the confined model; the {ns.model} "
            f"model has no trap")
    try:
        return ModelSpec(spec, sites=ns.L, kind=ns.model, lam=ns.lam,
                         omega=_trap(ns))
    except DegenerateCouplingError:
        raise ConfigError(
            f"the critical coupling 2/(N - 4*theta0) is undefined for "
            f"{spec.describe()}: N = 4*theta0 makes it divide by zero and "
            f"the algebra non-simple; pass an explicit --lambda or "
            f"--lambda symbolic instead")
    except ValueError as exc:
        raise ConfigError(str(exc))


def _coupling_label(value: Coupling) -> str:
    return value if isinstance(value, str) else str(value)


def _spec_info(ns: argparse.Namespace) -> Dict[str, object]:
    info: Dict[str, object] = {
        "subcommand": ns.subcommand,
        "algebra": _algebra(ns).describe(),
        "N": ns.N,
        "theta0": ns.theta0,
    }
    if ns.subcommand in ("model", "solve-lambda"):
        info["L"] = ns.L
        info["model"] = ns.model
        info["lambda"] = _coupling_label(ns.lam)
        info["omega"] = _coupling_label(_trap(ns))
    if ns.subcommand == "model":
        info["seed"] = ns.seed
    return info


_ORACLE_BANNER = "\n".join([
    "!" * 74,
    "!! ORACLE DISAGREEMENT: a symbolically proven identity evaluated "
    "nonzero !!",
    "!! on a random test function.  The engine is inconsistent; no verdict "
    "  !!",
    "!! in this report can be trusted until the discrepancy is resolved.  "
    "  !!",
    "!" * 74,
])


def _emit(report: CheckReport, ns: argparse.Namespace,
          extra: Optional[Dict[str, object]] = None) -> int:
    if ns.format == "json":
        payload = report.to_payload(_spec_info(ns))
        if extra:
            tail = payload.pop("engine_version")
            payload.update(extra)
            payload["engine_version"] = tail
        print(json.dumps(payload, indent=2))
    else:
        print(report.to_text())
        if extra:
            for key, value in extra.items():
                print(f"{key}: {json.dumps(value)}")
    if report.oracle_alarm:
        print(_ORACLE_BANNER, file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_lie(ns: argparse.Namespace) -> int:
    report = run_lie_suite(_algebra(ns))
    return _emit(report, ns)


def _cmd_model(ns: argparse.Namespace) -> int:
    ms = _model_spec(ns)
    report = run_model_suite(ms, checks=ns.checks, seed=ns.seed)
    return _emit(report, ns)


def _cmd_solve(ns: argparse.Namespace) -> int:
    result, roots = run_lambda_solver(_model_spec(ns))
    report = CheckReport.build([result])
    if roots is None:
        # the check reports why it stopped; there are no roots to list
        return _emit(report, ns)
    return _emit(report, ns,
                 extra={"lambda_roots": [str(r) for r in sorted(roots)]})


def _pair_key(ab: Tuple[int, int]) -> str:
    return f"{ab[0]},{ab[1]}"


def _dump_payload(ns: argparse.Namespace) -> Dict[str, object]:
    spec = _algebra(ns)
    labels = sorted(basis(spec))
    g = metric(spec)
    constants: Dict[str, Dict[str, str]] = {}
    for ab in labels:
        for cd in labels:
            row = structure_row(spec, ab, cd)
            if row:
                constants[f"{_pair_key(ab)}|{_pair_key(cd)}"] = {
                    _pair_key(ef): str(c) for ef, c in sorted(row.items())}
    metric_entries: Dict[str, str] = {}
    inverse_entries: Dict[str, str] = {}
    for ab in labels:
        for cd in labels:
            key = f"{_pair_key(ab)}|{_pair_key(cd)}"
            value = g.entry(ab, cd)
            if value:
                metric_entries[key] = str(value)
            raised = g.inverse_entry(ab, cd)
            if raised:
                inverse_entries[key] = str(raised)
    return {
        "spec": _spec_info(ns),
        "basis": [_pair_key(ab) for ab in labels],
        "structure_constants": constants,
        "metric": metric_entries,
        "metric_inverse": inverse_entries,
        "engine_version": __version__,
    }


def _cmd_dump(ns: argparse.Namespace) -> int:
    payload = _dump_payload(ns)
    if ns.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"algebra: {payload['spec']['algebra']}")
        print("basis: " + "  ".join(payload["basis"]))
        for key, row in payload["structure_constants"].items():
            body = " + ".join(f"({c})*({ef})" for ef, c in row.items())
            print(f"f[{key}] = {body}")
        for key, value in payload["metric"].items():
            print(f"g[{key}] = {value}")
        for key, value in payload["metric_inverse"].items():
            print(f"ginv[{key}] = {value}")
    return 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already reported the problem on stderr
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        with term_ceiling(ns.term_ceiling):
            return ns.command(ns)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    console_main()
