"""Run every workload, untraced and traced, and write RESULTS.json.

    python3 perfbench/record.py --seed 0 --seconds 30

Each run is its own process (``run.py``).  The end-to-end numbers come
from the untraced runs, the per-layer numbers from the traced ones.
RESULTS.json keeps them next to the machine and software they were
measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.splitlines()
    summary = next(json.loads(line[len("summary "):]) for line in lines
                   if line.startswith("summary "))
    return summary, json.loads(lines[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed, blas_threads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "seed": seed,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=HERE / "RESULTS.json")
    parser.add_argument("--note", default="",
                        help="what else to record about the machine, e.g. who shares it")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    blas_threads = None
    for workload in (w["name"] for w in spec["workloads"]):
        summary, plain = _run(workload, args.seed, args.seconds, 0)
        _, traced = _run(workload, args.seed, args.seconds, 1)
        blas_threads = summary["blas_threads"]
        end_to_end = dict(plain["metrics"])
        end_to_end["failed_ratio"] = {"value": summary["failed_ratio"], "unit": "ratio"}
        results[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failures": summary["failures"],
            "latency_samples": summary["latency_samples"],
            "tail_percentile": summary["tail_percentile"],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
        print(f"{workload}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"tail at p{summary['tail_percentile']:.1f} of {summary['latency_samples']}")
        for name, m in end_to_end.items():
            print(f"  {name:24s} {m['value']:.6g} {m['unit']}")

    doc = {
        "environment": environment(args.seed, blas_threads),
        "note": " ".join(filter(None, (
            args.note,
            "Nothing outside the benchmark's own process was changed or traced;"
            " per-layer spans wrap library functions inside that process."))),
        "seconds": args.seconds,
        "workloads": results,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
