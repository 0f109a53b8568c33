"""Benchmark of the sspectrum CLI entry point, one workload per process.

    python3 perfbench/run.py --workload apply --seed 3 --seconds 30 --trace 0

Runs from a checkout's root and imports the library from its ``src``.
One caller drives ``sspectrum.cli.run(RunConfig(...))`` in a closed
loop: each op starts when the previous one has returned and its output
has been checked.  The op sequence is generated from the seed before
timing; see NOTES.md for the workloads and metrics.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from a loop that runs each op
twice, untraced and traced.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("selftest", "apply", "projector")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10


def _cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use.
    Must run before numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    threads = min(int(os.environ.get("OPENBLAS_NUM_THREADS", cpus)), cpus)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


BLAS_THREADS = _cap_blas_threads()


def _import_library():
    """Import sspectrum from this checkout's src, and nowhere else."""
    if not (SRC / "sspectrum" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sspectrum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sspectrum

    if Path(sspectrum.__file__).resolve().parent != SRC / "sspectrum":
        sys.exit(f"perfbench: imported sspectrum from {sspectrum.__file__}")
    from sspectrum import cli

    return cli


# ---------------------------------------------------------------------------
# set-up


def _parse_documents(configs):
    """Parse every document of the run with the library's own loaders."""
    from sspectrum.contour import load_contour
    from sspectrum.operators import load_operator
    from sspectrum.slicefn import load_stem

    loaders = {"operator": load_operator, "function": load_stem, "contour": load_contour}
    for config in configs:
        for key, load in loaders.items():
            if key in config:
                load(config[key])


def _warm_up(cli, warmup):
    for config in warmup:
        cli.run(cli.RunConfig(**config))


def setup_probe(workdir: Path) -> None:
    """Body of one set-up measurement, in a fresh interpreter: import,
    parse the run's documents, warm up, then report ready."""
    cli = _import_library()
    _parse_documents(json.loads((workdir / "configs.json").read_text()))
    _warm_up(cli, json.loads((workdir / "warmup.json").read_text()))
    print("ready", flush=True)


def probe_setup(workload: str, workdir: Path) -> float:
    """Wall time from spawning a fresh interpreter to the point where its
    first timed op could start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--setup-probe", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed with exit {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs ops, checks each output after its timer stops, and keeps
    per-op latency and outcome."""

    def __init__(self, cli, ops, configs, check):
        # cli.run is looked up on every op, so a traced copy goes
        # through the tracer's wrapper
        self.cli = cli
        self.ops, self.configs, self.check = ops, configs, check
        self.latencies = []     # seconds, every op attempted
        self.busy_s = 0.0       # sum of latencies
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # failures that make the run incorrect
        self.reasons = Counter()

    def step(self, i: int) -> None:
        op = self.ops[i % len(self.ops)]
        config = self.cli.RunConfig(**self.configs[i % len(self.ops)])
        status, text, error = 1, "", None
        t0 = time.perf_counter()
        try:
            status, text = self.cli.run(config)
        except Exception as exc:  # a raised error is a failed op, not a crash
            error = type(exc).__name__
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.busy_s += dt
        self.attempted += 1
        reason = error or self.check(op, status, text)
        if reason is None:
            return
        self.failed += 1
        # Only an op tagged with a known defect may fail, and only by
        # saying so: exit 0 with a wrong output is wrong on every op.
        if not op.may_fail or (error is None and status == 0):
            self.wrong += 1
        self.reasons[op.tag + (reason.split(" ")[0] if error is None else f"raised {error}")] += 1


def run_passes(n_ops: int, seconds: float, step, timed_s) -> None:
    """Call step(i) for i = 0, 1, ... in whole passes over the n_ops ops
    of the sequence, at least one pass, until timed_s() reaches seconds,
    so every run times the same mix of ops."""
    i = 0
    while True:
        step(i)
        i += 1
        if i % n_ops == 0 and timed_s() >= seconds:
            return


class TracedCli:
    """sspectrum.cli whose run() records spans; the checks that follow
    an op call into the library too, and stay out of the numbers."""

    def __init__(self, cli, tracer):
        self.cli, self.tracer = cli, tracer
        self.RunConfig = cli.RunConfig

    def run(self, config):
        self.tracer.active = True
        try:
            return self.cli.run(config)
        finally:
            self.tracer.active = False


def tail(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    k = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(loop: Loop, setup_s: float) -> dict:
    value, _ = tail(loop.latencies)
    return {
        "ops_per_s": ((loop.attempted - loop.failed) / loop.busy_s, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(loop.latencies), "ms"),
        "latency_tail_ms": (1e3 * value, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced: Loop, untraced_busy_s: float) -> dict:
    """Self seconds and counts per op of the traced pass, and the trace's
    own overhead and coverage."""
    ops = traced.attempted
    self_s = lambda key: (tracer.self_s[key] / ops, "s")
    calls = lambda key: (tracer.calls[key] / ops, "count")
    counted = lambda key: (tracer.counts[key] / ops, "count")
    return {
        "qlinalg.solve_arr.self_s": self_s("qlinalg.solve_arr"),
        "qlinalg.solve_arr.matrices": counted("qlinalg.solve_arr.matrices"),
        "qlinalg.solve_arr.self_s.n8": self_s("qlinalg.solve_arr.n8"),
        "qlinalg.solve_arr.self_s.n16": self_s("qlinalg.solve_arr.n16"),
        "qlinalg.solve_arr.self_s.n32": self_s("qlinalg.solve_arr.n32"),
        "qlinalg.matmul.self_s": self_s("qlinalg.matmul"),
        "qlinalg.matmul.calls": calls("qlinalg.matmul"),
        "operators.qcs_pencil_at.self_s": self_s("operators.qcs_pencil_at"),
        "operators.s_spectrum.self_s": self_s("operators.s_spectrum"),
        "operators.s_spectrum.calls_per_op": calls("operators.s_spectrum"),
        "kernels.kernel_at_nodes.self_s": self_s("kernels.kernel_at_nodes"),
        "kernels.nodes_per_op": counted("kernels.nodes"),
        "kernels.kernel.calls": calls("kernels.kernel"),
        "contour.auto_contour.self_s": self_s("contour.auto_contour"),
        "contour.circles_per_op": counted("contour.circles"),
        "contour.nodes_per_op": counted("contour.nodes"),
        "contour.integrate.self_s": self_s("contour.integrate"),
        "slicefn.SlicePoly.evaluate.self_s": self_s("slicefn.SlicePoly.evaluate"),
        "slicefn.SlicePoly.evaluate.calls": calls("slicefn.SlicePoly.evaluate"),
        "calculus.apply_calculus.self_s": self_s("calculus.apply_calculus"),
        "calculus.riesz_projector.self_s": self_s("calculus.riesz_projector"),
        "identities.verify_all.self_s": self_s("identities.verify_all"),
        "cli.run.self_s": self_s("cli.run"),
        "cli.output_bytes_per_op": (tracer.counts["cli.output_bytes"] / ops, "bytes"),
        "trace.overhead_ratio": (traced.busy_s / untraced_busy_s, "ratio"),
        "trace.covered_ratio": (
            (tracer.root_total_s - tracer.self_s["cli.run"]) / traced.busy_s, "ratio"),
    }


def result_line(loops, metrics) -> dict:
    """The run's result: correct unless some op failed where no known
    defect excuses it, or returned a wrong output with exit 0."""
    return {
        "correct": all(lp.wrong == 0 for lp in loops),
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------


def _work_dir(workload: str, seed: int) -> Path:
    path = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        setup_probe(args.setup_probe)
        return 0

    cli = _import_library()
    import checks
    import tracing
    import workloads

    ops = workloads.GENERATORS[args.workload](args.seed)
    warmup = workloads.warmup_ops(args.workload)
    workdir = _work_dir(args.workload, args.seed)
    try:
        configs = workloads.materialize(ops, workdir, "op")
        warmup_configs = workloads.materialize(warmup, workdir, "warmup")
        (workdir / "configs.json").write_text(json.dumps(configs))
        (workdir / "warmup.json").write_text(json.dumps(warmup_configs))
        _parse_documents(configs)
        _warm_up(cli, warmup_configs)

        check = checks.checker(args.workload)
        if args.trace == 0:
            loop = Loop(cli, ops, configs, check)
            # set-up probes are spread over the run, between ops, so they
            # see the same machine as the ops do
            setups = []

            def step(i):
                loop.step(i)
                due = len(setups) * args.seconds / SETUP_PROBES
                if len(setups) < SETUP_PROBES and loop.busy_s >= due:
                    setups.append(probe_setup(args.workload, workdir))

            run_passes(len(ops), args.seconds, step, lambda: loop.busy_s)
            while len(setups) < SETUP_PROBES:
                setups.append(probe_setup(args.workload, workdir))
            metrics = end_to_end(loop, statistics.median(setups))
            loops = [loop]
        else:
            # each op runs twice, with the library's own functions and
            # with the tracer's wrappers installed; which copy goes first
            # alternates from op to op and from pass to pass, so neither
            # copy gets the warm caches of the other
            tracer = tracing.Tracer()
            untraced = Loop(cli, ops, configs, check)
            traced = Loop(TracedCli(cli, tracer), ops, configs, check)

            def step(i):
                first_traced = (i % len(ops) + i // len(ops)) % 2 == 1
                for copy_traced in (first_traced, not first_traced):
                    if copy_traced:
                        with tracer:
                            traced.step(i)
                    else:
                        untraced.step(i)

            run_passes(len(ops), args.seconds / 2, step, lambda: untraced.busy_s)
            metrics = per_layer(tracer, traced, untraced.busy_s)
            loops = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "blas_threads": BLAS_THREADS, "latency_samples": len(loops[0].latencies),
        "tail_percentile": tail(loops[0].latencies)[1],
    }
    result = result_line(loops, metrics)
    summary.update(attempted=result["attempted"], failed=result["failed"],
                   failed_ratio=result["failed"] / result["attempted"],
                   failures=sum((lp.reasons for lp in loops), Counter()))
    print("summary " + json.dumps(summary, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
