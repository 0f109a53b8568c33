"""Command-line front end.

Commands: spectrum | apply | projector | verify | selftest.  Results go
to stdout (or --out FILE) as JSON by default; identity reports can also
be emitted as CSV.  Errors are printed as machine-readable JSON on
stderr with exit codes 2 (parse), 3 (precondition) and 4 (numeric);
failing checks exit 1.

All floats are printed with 17 significant digits so emitted documents
re-read bit-identically, and a fixed seed makes every byte of the
output reproducible.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import identities
from .calculus import CalculusKind, apply_calculus, riesz_projector
from .contour import auto_contour, load_contour
from .errors import (CalculusError, InputError, NumericError,
                     PreconditionError)
from .operators import load_operator
from .quat import E1
from .slicefn import load_stem

__all__ = ["RunConfig", "run", "main"]


@dataclass
class RunConfig:
    command: str
    operator: str | None = None
    function: str | None = None
    contour: str = "auto"
    calculus: str = "s"
    cluster: str | None = None
    nodes: int | None = None
    tol: float = 1e-8
    seed: int = 0
    out_format: str = "json"
    out: str | None = None
    name: str | None = None
    m: int = 3

    DEFAULT_NODES = 256


# ---------------------------------------------------------------------------
# deterministic JSON with lossless floats


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    text = format(x, ".17g")
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def _float_template(obj, values):
    """A %-format template for a nest of lists whose leaves are all
    floats, appending the floats to values in order; None for any other
    nest.  One format call then renders a whole matrix."""
    if all(type(v) is float for v in obj):
        values.extend(obj)
        return "[" + ",".join(("%.17g",) * len(obj)) + "]"
    parts = []
    for v in obj:
        if type(v) not in (list, tuple):
            return None
        part = _float_template(v, values)
        if part is None:
            return None
        parts.append(part)
    return "[" + ",".join(parts) + "]"


# a whole '%.17g' token with neither a point nor an exponent
_INTEGRAL_TOKEN = re.compile(r"(?<=[\[,])(-?\d+)(?=[\],])")


def _mend_floats(text, values):
    """Turn '%.17g' tokens into _fmt_float's: NaN, Infinity, -Infinity,
    and '.0' after integral values."""
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    if any(map(float.is_integer, values)):
        text = _INTEGRAL_TOKEN.sub(r"\1.0", text)
    return text


def dump_json(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        import json as _json

        return _json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        values = []
        template = _float_template(obj, values)
        if template is not None:
            return _mend_floats(template % tuple(values), values)
        return "[" + ",".join(dump_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{dump_json(str(k))}:{dump_json(v)}"
                              for k, v in obj.items()) + "}"
    raise InputError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# command implementations


def _nodes(config: RunConfig) -> int:
    return config.nodes if config.nodes is not None else RunConfig.DEFAULT_NODES


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
    rank = sum(sp.multiplicity if sp.v > 0.0 else sp.multiplicity / 2
               for sp in T.spheres if c.winding(sp.u, sp.v)[0] == 1)
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
    if name in identities.POINTWISE_IDENTITIES:
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


def _require(value, flag):
    if value is None:
        raise InputError(f"this command requires {flag}")
    return value


def _render(config: RunConfig, doc) -> str:
    from .identities import IdentityReport, reports_to_csv, reports_to_json

    if isinstance(doc, IdentityReport):
        if config.out_format == "csv":
            return reports_to_csv([doc])
        return dump_json(doc.to_dict()) + "\n"
    if isinstance(doc, list) and doc and isinstance(doc[0], IdentityReport):
        if config.out_format == "csv":
            return reports_to_csv(doc)
        return dump_json(reports_to_json(doc)) + "\n"
    if config.out_format == "csv":
        raise InputError("csv output is only defined for identity reports")
    return dump_json(doc) + "\n"


def run(config: RunConfig):
    """Execute one command; returns (exit_status, rendered document)."""
    if config.command not in _COMMANDS:
        raise InputError(f"unknown command '{config.command}'")
    if config.out_format not in ("json", "csv"):
        raise InputError(f"unknown format '{config.out_format}'")
    if not (math.isfinite(config.tol) and config.tol >= 0.0):
        raise InputError(f"--tol must be finite and non-negative, got {config.tol}")
    if config.m < 0:
        raise InputError(f"--m must be non-negative, got {config.m}")
    status, doc = _COMMANDS[config.command](config)
    return status, _render(config, doc)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sspectrum",
        description="Quaternionic functional calculi on the S-spectrum")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        sp = sub.add_parser(cmd)
        sp.add_argument("--operator", default=None)
        sp.add_argument("--function", default=None)
        sp.add_argument("--calculus", default="s", choices=["s", "q", "p2", "f"])
        sp.add_argument("--contour", default="auto")
        sp.add_argument("--cluster", default=None)
        sp.add_argument("--nodes", type=int, default=None)
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", dest="out_format", default="json",
                        choices=["json", "csv"])
        sp.add_argument("--out", default=None)
        sp.add_argument("--name", default=None)
        sp.add_argument("--m", type=int, default=3)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(**vars(args))
    try:
        # non-finite results raise NumericError; warnings would only litter stderr
        with np.errstate(all="ignore"):
            status, text = run(config)
    except InputError as exc:
        _emit_error(exc, 2)
        return 2
    except PreconditionError as exc:
        _emit_error(exc, 3)
        return 3
    except (NumericError, CalculusError) as exc:
        _emit_error(exc, 4)
        return 4
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _emit_error(InputError(f"cannot write --out {config.out}: {exc}"), 2)
            return 2
    else:
        sys.stdout.write(text)
    return status


def _emit_error(exc, code):
    doc = {"error": type(exc).__name__, "message": str(exc), "exit": code}
    sys.stderr.write(dump_json(doc) + "\n")


if __name__ == "__main__":
    sys.exit(main())
