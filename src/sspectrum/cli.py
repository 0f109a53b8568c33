"""Command-line front end.

Commands: spectrum | apply | projector | verify | selftest.  Results go
to stdout (or --out FILE) as JSON by default; identity reports can also
be emitted as CSV.  Errors are printed as machine-readable JSON on
stderr with exit codes 2 (parse), 3 (precondition) and 4 (numeric);
failing checks exit 1.  A flag that the command does not read
(``_READS``) is a parse error unless it holds its default.

Every document is one ``json.dumps`` call: floats print as their
shortest round-trip ``repr`` (NaN, Infinity and -Infinity as written),
so emitted documents re-read bit-identically, and a fixed seed makes
every byte of the output reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import identities
from .calculus import CalculusKind, apply_calculus, riesz_projector
from .contour import DEFAULT_NODES, MIN_NODES, auto_contour, check_nodes, load_contour
from .errors import (CalculusError, InputError, NumericError,
                     PreconditionError)
from .operators import load_operator
from .quat import E1
from .slicefn import load_stem

__all__ = ["RunConfig", "run", "main"]

# the largest --m: beyond it s^m overflows a double for any |s| >= 2,
# and the power sums cost about 0.5 ms per degree
MAX_DEGREE = 1024


@dataclass
class RunConfig:
    command: str
    operator: str | None = None
    function: str | None = None
    contour: str = "auto"
    calculus: str = "s"
    cluster: str | None = None
    nodes: int | None = None
    tol: float = identities.DEFAULT_TOL
    seed: int = 0
    out_format: str = "json"
    out: str | None = None
    name: str | None = None
    m: int = 3


# ---------------------------------------------------------------------------
# command implementations


def _nodes(config: RunConfig) -> int:
    return config.nodes if config.nodes is not None else DEFAULT_NODES


def _resolve_contour(config: RunConfig, T, selection=None):
    if config.contour != "auto":
        c = load_contour(config.contour)
        if config.nodes is not None:
            c = c.with_nodes(config.nodes)
        return c
    spheres = T.spheres
    if selection is None:
        selection = range(len(spheres))
    return auto_contour(spheres, selection, J=E1, N=_nodes(config))


def _cmd_spectrum(config: RunConfig):
    T = load_operator(_require(config.operator, "--operator"))
    doc = [{"u": sp.u, "v": sp.v, "multiplicity": sp.multiplicity}
           for sp in T.spheres]
    return 0, doc


def _cmd_apply(config: RunConfig):
    T = load_operator(_require(config.operator, "--operator"))
    f = load_stem(_require(config.function, "--function"))
    c = _resolve_contour(config, T)
    result = apply_calculus(CalculusKind(config.calculus), f, T, c)
    return 0, result.to_nested()


def _cmd_projector(config: RunConfig):
    if config.cluster is not None and config.contour != "auto":
        raise InputError("--cluster needs --contour auto: a contour file "
                         "decides the enclosed spheres")
    T = load_operator(_require(config.operator, "--operator"))
    selection = None
    if config.cluster is not None:
        try:
            selection = [int(tok) for tok in config.cluster.split(",") if tok != ""]
        except ValueError as exc:
            raise InputError(f"--cluster needs comma-separated sphere indexes: {exc}") from exc
    c = _resolve_contour(config, T, selection=selection)
    P = riesz_projector(CalculusKind(config.calculus), T, c)
    residual = (P @ P - P).norm()
    scale = max(P.norm(), 1.0)
    # trace(Re P) counts the joint eigenvalues on the enclosed spheres: a
    # sphere's multiplicity, and half that of a real point, which its
    # conjugate pair of pencil roots counts twice
    turns = c.winding([sp.u for sp in T.spheres], [sp.v for sp in T.spheres])[0]
    rank = sum(sp.multiplicity if sp.v > 0.0 else sp.multiplicity / 2
               for sp, t in zip(T.spheres, turns) if t == 1)
    trace_error = abs(float(np.trace(P.data[..., 0])) - rank)
    ok = residual <= config.tol * scale and trace_error <= config.tol * scale
    doc = {
        "projector": P.to_nested(),
        "idempotency_residual": residual,
        "scale": scale,
        "pass": ok,
    }
    return (0 if ok else 1), doc


def _cmd_verify(config: RunConfig):
    name = _require(config.name, "--name")
    row = identities.POINTWISE_IDENTITIES.get(name)
    if row is not None:
        _refuse(config, ("nodes",) if row.draw is identities._power_degrees
                else ("nodes", "m"), f"verify --name {name}")
        rng = np.random.default_rng(config.seed)
        if config.operator is not None:
            T = load_operator(config.operator)
        else:
            T = identities.random_commuting_operator(rng, 2)
        s, p, option_sets = identities.draw_pointwise(name, rng, T)
        opts = option_sets[0]
        if "m" in opts:  # --m overrides the drawn degree
            opts["m"] = config.m
        report = identities.verify_pointwise(name, T, s, p, tol=config.tol, **opts)
    else:
        if name in identities.INTEGRAL_IDENTITIES:
            _refuse(config, ("operator", "m"), f"verify --name {name}")
        report = identities.verify_seeded(name, config.seed, config.tol,
                                          _nodes(config))
    return (0 if report.passed else 1), report


def _cmd_selftest(config: RunConfig):
    reports = identities.verify_all(seed=config.seed, tol=config.tol,
                                    nodes=_nodes(config))
    ok = all(r.passed for r in reports)
    return (0 if ok else 1), reports


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "apply": _cmd_apply,
    "projector": _cmd_projector,
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}

# The RunConfig fields each command reads.  run() refuses every other
# field set to a value other than its default, and _cmd_verify those of
# verify's that the named row does not read; command and out are read
# by main for every command.
_READS = {
    "spectrum": ("operator",),
    "apply": ("operator", "function", "calculus", "contour", "nodes"),
    "projector": ("operator", "calculus", "contour", "cluster", "nodes", "tol"),
    "verify": ("name", "operator", "seed", "tol", "nodes", "m", "out_format"),
    "selftest": ("seed", "tol", "nodes", "out_format"),
}


def _refuse(config: RunConfig, names, reader: str) -> None:
    """Raise InputError naming every field in names that config sets
    off its default: reader does not read them."""
    given = ["--format" if f.name == "out_format" else f"--{f.name}"
             for f in fields(RunConfig)
             if f.name in names and getattr(config, f.name) != f.default]
    if given:
        raise InputError(f"{', '.join(given)} refused: {reader} does not read them")


def _require(value, flag):
    if value is None:
        raise InputError(f"this command requires {flag}")
    return value


def _json(doc) -> str:
    """The one rendering of every JSON document, identity reports
    included; Python's float repr is the shortest that round-trips."""
    return json.dumps(doc, separators=(",", ":"),
                      default=identities.IdentityReport.to_dict) + "\n"


def _render(config: RunConfig, doc) -> str:
    if config.out_format == "json":
        return _json(doc)
    return identities.reports_to_csv(doc if isinstance(doc, list) else [doc])


def run(config: RunConfig):
    """Execute one command; returns (exit_status, rendered document)."""
    if config.command not in _COMMANDS:
        raise InputError(f"unknown command '{config.command}'")
    if config.out_format not in ("json", "csv"):
        raise InputError(f"unknown format '{config.out_format}'")
    if config.calculus not in {kind.value for kind in CalculusKind}:
        raise InputError(f"unknown calculus '{config.calculus}'")
    if not (math.isfinite(config.tol) and config.tol >= 0.0):
        raise InputError(f"--tol must be finite and non-negative, got {config.tol}")
    if not 0 <= config.m <= MAX_DEGREE:
        raise InputError(f"--m must be in 0..{MAX_DEGREE}, got {config.m}")
    # numpy's generators take any non-negative integer seed, 10^23 too
    if config.seed < 0:
        raise InputError(f"--seed must be non-negative, got {config.seed}")
    if config.nodes is not None:
        check_nodes(config.nodes)
        if config.nodes < MIN_NODES:
            raise InputError(f"--nodes must be at least {MIN_NODES}, got {config.nodes}")
    _refuse(config, {f.name for f in fields(RunConfig)}
            - set(_READS[config.command]) - {"command", "out"}, config.command)
    status, doc = _COMMANDS[config.command](config)
    return status, _render(config, doc)


class _Parser(argparse.ArgumentParser):
    """Raises InputError where argparse would print usage and exit 2, so
    a refused flag gets the same JSON error line as any parse error."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sspectrum",
                     description="Quaternionic functional calculi on the S-spectrum")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        # an absent flag stays out of the namespace: RunConfig holds every
        # default; a flag the command does not read still parses, so that
        # run() refuses it by name, but --help leaves it out
        sp = sub.add_parser(cmd, argument_default=argparse.SUPPRESS)
        for action in (
                sp.add_argument("--operator"),
                sp.add_argument("--function"),
                sp.add_argument("--calculus", choices=[kind.value for kind in CalculusKind]),
                sp.add_argument("--contour"),
                sp.add_argument("--cluster"),
                sp.add_argument("--nodes", type=int),
                sp.add_argument("--tol", type=float),
                sp.add_argument("--seed", type=int),
                sp.add_argument("--format", dest="out_format", choices=["json", "csv"]),
                sp.add_argument("--out"),
                sp.add_argument("--name"),
                sp.add_argument("--m", type=int)):
            if action.dest not in _READS[cmd] and action.dest != "out":
                action.help = argparse.SUPPRESS
    return parser


def main(argv=None) -> int:
    try:
        config = RunConfig(**vars(_build_parser().parse_args(argv)))
        # non-finite results raise NumericError; warnings would only litter stderr
        with np.errstate(all="ignore"):
            status, text = run(config)
    except InputError as exc:
        return _emit_error(exc, 2)
    except PreconditionError as exc:
        return _emit_error(exc, 3)
    except (NumericError, CalculusError) as exc:
        return _emit_error(exc, 4)
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _emit_error(InputError(f"cannot write --out {config.out}: {exc}"), 2)
    else:
        sys.stdout.write(text)
    return status


def _emit_error(exc, code) -> int:
    """Print exc as the JSON error line on stderr; returns the exit code."""
    sys.stderr.write(_json({"error": type(exc).__name__, "message": str(exc),
                            "exit": code}))
    return code


if __name__ == "__main__":
    sys.exit(main())
