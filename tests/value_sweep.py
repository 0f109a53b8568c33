"""Run a fixed sweep of CLI invocations, or compare two such sweeps.

    python3 tests/value_sweep.py OUT.jsonl
    python3 tests/value_sweep.py --compare A.jsonl B.jsonl

The sweep is 518 runs of ``sspectrum.cli.main``, in process, with the
package from the ``src/`` next to this directory:

- ``selftest --seed 0..5``, in JSON and in CSV (12 runs)
- ``verify --name X --seed 0..2`` for every registry name (78 runs)
- every ``apply`` (96) and ``projector`` (135) op that
  ``perfbench/workloads.py`` generates at seeds 501-503; the generators
  are imported and only read
- the ``apply`` (32) and ``projector`` (45) ops of seed 501 again,
  without their contour file or ``--cluster``, so ``auto_contour``
  builds a contour around every sphere
- on each ``tests/corpus.py`` operator, the six bases with T1 = 0 and
  T1 = 0.3 B^2 (120 runs): ``spectrum``, ``apply --contour auto`` of
  each kind on one fixed left and one fixed right degree-3 stem, and
  ``projector --calculus s --cluster 0``.  Most of these operators have
  no usable eigenbasis, so their sums invert one pencil per node, and
  the Jordan blocks take the Schur route of the spectrum

Each run is written as one JSON line: its id, exit code, stdout and
stderr.  Run the sweep in two checkouts and compare the files.
``--compare`` prints, per command, how many runs are byte-identical
(same exit code, stdout and stderr), and per command and object key,
the largest deviation of a float relative to the largest finite |value|
of its document in A, and lists every run whose exit code, stderr error
kind or non-float content differs.  It exits 1 when it lists such a run.

Every stem of the sweep is a polynomial, so every ``apply`` run has an
exact reference: the stem at T for S, and ``fueter_apply(f, op)`` at T
for the image under D, Dbar or Delta for Q, P2 and F (the package's
``PAPoly.at_operator``).  ``--compare`` rebuilds the runs' documents,
prints per file and per group of ``apply`` runs (workload, whole
spectrum, corpus) how many are within CLOSED_FORM_RTOL of that
reference, the largest deviation of a float of the value from the
reference relative to the reference's largest |float| (a run that
exits non-zero is not), and lists the runs whose relative error grew
from A to B.

The file is not collected by pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SELFTEST_SEEDS = range(6)
VERIFY_SEEDS = range(3)
WORKLOAD_SEEDS = (501, 502, 503)
WHOLE_SPECTRUM_SEED = 501
CORPUS_T1 = (0.0, 0.3)
CORPUS_STEM = [[0.5, -1.0, 0.25, 2.0], [1.0, 0.0, -0.5, 0.75],
               [-0.25, 1.5, 1.0, 0.0], [0.125, -0.5, 0.0, 1.0]]
CLOSED_FORM_RTOL = 1e-8


def _invocations(workdir):
    """(id, argv) of every run; workload documents go under workdir."""
    from sspectrum import identities
    from sspectrum.operators import save_operator
    import corpus
    import workloads

    for seed in SELFTEST_SEEDS:
        for fmt in ("json", "csv"):
            yield f"selftest seed={seed} {fmt}", ["selftest", "--seed", str(seed),
                                                  "--format", fmt]
    for name in identities.registry_names():
        for seed in VERIFY_SEEDS:
            yield f"verify {name} seed={seed}", ["verify", "--name", name,
                                                 "--seed", str(seed)]
    for workload in ("apply", "projector"):
        for seed in WORKLOAD_SEEDS:
            ops = workloads.GENERATORS[workload](seed)
            configs = workloads.materialize(ops, workdir, f"{workload}{seed}-")
            for i, config in enumerate(configs):
                yield f"{workload} seed={seed} op={i:03d}", _argv(config)
            if seed == WHOLE_SPECTRUM_SEED:
                for i, config in enumerate(configs):
                    whole = {key: value for key, value in config.items()
                             if key not in ("contour", "cluster")}
                    yield f"{workload} seed={seed} op={i:03d} whole", _argv(whole)
    stems = {}
    for side in ("left", "right"):
        stems[side] = str(Path(workdir) / f"corpus-stem-{side}.json")
        Path(stems[side]).write_text(json.dumps({"side": side, "coeffs": CORPUS_STEM}))
    for name, B in corpus.BASES.items():
        for t1 in CORPUS_T1:
            op = str(Path(workdir) / f"corpus-{name}-{t1}.json")
            save_operator(corpus.operator(B, t1), op)
            tag = f"{name} t1={t1}"
            yield f"spectrum {tag}", ["spectrum", "--operator", op]
            for kind in ("s", "q", "p2", "f"):
                for side, stem in stems.items():
                    yield f"apply {tag} {kind} {side}", [
                        "apply", "--operator", op, "--function", stem,
                        "--calculus", kind, "--contour", "auto"]
            yield f"projector {tag} cluster=0", [
                "projector", "--operator", op, "--calculus", "s", "--cluster", "0"]


def _argv(config):
    argv = [config["command"]]
    for key, value in config.items():
        if key != "command":
            argv += [f"--{key}", str(value)]
    return argv


def _import_paths():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def sweep(out_path) -> None:
    _import_paths()
    from sspectrum import cli

    with tempfile.TemporaryDirectory() as workdir, open(out_path, "w") as fh:
        for run_id, argv in _invocations(workdir):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            fh.write(json.dumps({"id": run_id, "exit": code,
                                 "stdout": out.getvalue().replace(workdir, "DIR"),
                                 "stderr": err.getvalue().replace(workdir, "DIR")}) + "\n")


# ---------------------------------------------------------------------------
# comparison


def _tokens(text):
    """The values of a JSON or CSV document in order, floats as floats
    and everything else (keys, ints, bools, strings) as text; each value
    of an object or of a CSV row follows its key or column name."""
    try:
        doc = json.loads(text)
    except ValueError:
        header, *rows = csv.reader(io.StringIO(text))
        return [tok for row in rows for key, f in zip(header, row)
                for tok in (repr(key), _field(f))]
    return list(_leaves(doc))


def _leaves(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield repr(key)
            yield from _leaves(value)
    elif isinstance(doc, list):
        yield f"[{len(doc)}"
        for value in doc:
            yield from _leaves(value)
    else:
        yield doc if isinstance(doc, float) else repr(doc)


def _field(text):
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _deviations(a, b):
    """{key: largest deviation of a float of b from a under that key,
    relative to a's largest finite |value|} (key None for floats outside
    an object), or None when the documents differ in anything but
    floats (non-finite floats must be equal, NaN matching NaN)."""
    if len(a) != len(b):
        return None
    scale = max((abs(x) for x in a if isinstance(x, float) and math.isfinite(x)),
                default=0.0)
    worst, key = {}, None
    for x, y in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            if math.isfinite(x) and math.isfinite(y):
                dev = abs(x - y) / scale if x != y else 0.0
                worst[key] = max(worst.get(key, 0.0), dev)
            elif not (x == y or (math.isnan(x) and math.isnan(y))):
                return None
        elif x != y:
            return None
        elif isinstance(x, str) and x.startswith("'"):
            key = x
    return worst


def _error_kind(stderr):
    try:
        return json.loads(stderr)["error"] if stderr else None
    except ValueError:
        return stderr


def _apply_group(run_id):
    """The group of an apply run: workload, whole spectrum or corpus."""
    if " seed=" not in run_id:
        return "corpus"
    return "whole spectrum" if run_id.endswith(" whole") else "workload"


def _closed_form_errors(run_ids, runs_by_file):
    """{run id: relative error against the closed form} for every apply
    run among run_ids, per file, inf where the run did not exit 0."""
    _import_paths()
    import numpy as np
    from sspectrum.operators import load_operator
    from sspectrum.slicefn import FueterOp, PAPoly, fueter_apply, load_stem

    images = {"q": FueterOp.D, "p2": FueterOp.DBAR, "f": FueterOp.DELTA}
    errors = [{} for _ in runs_by_file]
    with tempfile.TemporaryDirectory() as workdir:
        for run_id, argv in _invocations(workdir):
            if argv[0] != "apply" or run_id not in run_ids:
                continue
            flags = dict(zip(argv[1::2], argv[2::2]))
            T = load_operator(flags["--operator"])
            f = load_stem(flags["--function"])
            kind = flags.get("--calculus", "s")
            if kind == "s":
                image = PAPoly({(m, 0): c for m, c in enumerate(f.coeffs)}, f.side)
            else:
                image = fueter_apply(f, images[kind])
            ref = image.at_operator(T).data
            for runs, out in zip(runs_by_file, errors):
                run = runs[run_id]
                if run["exit"] != 0:
                    out[run_id] = math.inf
                    continue
                diff = np.abs(np.array(json.loads(run["stdout"])) - ref).max()
                out[run_id] = float(diff / np.abs(ref).max())
    return errors


def _closed_form_report(paths, errors) -> None:
    groups = sorted({_apply_group(run_id) for run_id in errors[0]})
    print(f"apply runs within {CLOSED_FORM_RTOL:g} of the closed form:")
    for path, errs in zip(paths, errors):
        for group in groups:
            member = [e for run_id, e in errs.items() if _apply_group(run_id) == group]
            good = sum(e <= CLOSED_FORM_RTOL for e in member)
            finite = [e for e in member if math.isfinite(e)]
            worst = f", worst finite {max(finite):.1e}" if finite else ""
            print(f"  {path} {group}: {good} of {len(member)}{worst}")
    a, b = errors
    for run_id in sorted(a):
        if b[run_id] > a[run_id] or (math.isnan(b[run_id]) and not math.isnan(a[run_id])):
            print(f"error grew: {run_id} ({a[run_id]:.3e} -> {b[run_id]:.3e})")


def compare(path_a, path_b) -> int:
    load = lambda p: {r["id"]: r for r in map(json.loads, Path(p).read_text().splitlines())}
    runs_a, runs_b = load(path_a), load(path_b)
    differ = sorted(set(runs_a) ^ set(runs_b))
    worst, same = {}, {}
    for run_id in sorted(set(runs_a) & set(runs_b)):
        a, b = runs_a[run_id], runs_b[run_id]
        command = run_id.split()[0]
        same[command] = same.get(command, 0) + (a == b)
        devs = (_deviations(_tokens(a["stdout"]), _tokens(b["stdout"]))
                if a["stdout"] and b["stdout"] else {})
        if (a["exit"] != b["exit"] or _error_kind(a["stderr"]) != _error_kind(b["stderr"])
                or bool(a["stdout"]) != bool(b["stdout"]) or devs is None):
            differ.append(run_id)
            continue
        for key, dev in devs.items():
            if dev >= worst.get((command, key), (-1.0,))[0]:
                worst[command, key] = (dev, run_id)
    print(f"{len(runs_a)} runs in {path_a}, {len(runs_b)} in {path_b}")
    print("byte-identical runs per command:")
    commands = Counter(run_id.split()[0] for run_id in runs_a)
    for command in sorted(same):
        print(f"  {command} {same[command]}/{commands[command]}")
    print("largest float deviation relative to the document's largest |value|:")
    for (command, key), (dev, run_id) in sorted(worst.items(), key=str):
        print(f"  {command} {key or 'values'}: {dev:.3e} ({run_id})")
    both = set(runs_a) & set(runs_b)
    _closed_form_report((path_a, path_b), _closed_form_errors(both, (runs_a, runs_b)))
    for run_id in differ:
        print(f"differs: {run_id}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="JSON lines file the sweep writes")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give OUT or --compare A B")
    sweep(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
