"""Count the Python-level calls of one ``selftest`` op.

    python3 tests/call_count.py [--seed S]

Runs ``identities.verify_all`` once per op of
``perfbench/workloads.py``'s ``selftest_ops(S)`` (default seed 501), in
process, with the package from the ``src/`` next to this directory,
after one warm-up op of the first registry seed, and prints the
cProfile calls per op, split into the draws (every step of the
registry's seeded row generator), the pointwise rows and the integral
rows, with their total.  The count is a property of the code path, not
of the machine, and repeats exactly from run to run.  The workload
generator is imported and only read.

The file is not collected by pytest.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _calls(profile) -> int:
    # from the raw entries, less the profiler's own switch: pstats keys
    # them by a label that two functions can share (a builtin's label
    # holds an address)
    return sum(entry.callcount for entry in profile.getstats()
               if entry.code != "<method 'disable' of '_lsprof.Profiler' objects>")


def count(seed: int) -> dict:
    """Calls per op, {"draws", "pointwise", "integral", "total"}, over
    the ops of selftest_ops(seed)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from sspectrum import identities
    from sspectrum.contour import DEFAULT_NODES
    from sspectrum.identities import DEFAULT_TOL

    seeds = [op.config["seed"] for op in workloads.selftest_ops(seed)]
    identities.verify_all(seeds[0])
    phases = {name: cProfile.Profile() for name in ("draws", "pointwise", "integral")}
    draws = phases["draws"]
    for registry_seed in seeds:
        # verify_all's own loop: the generator draws each row's inputs
        draws.enable()
        for evaluate in identities._seeded_rows(registry_seed, DEFAULT_NODES):
            draws.disable()
            phase = phases["pointwise" if evaluate.func is identities._evaluate_pointwise
                           else "integral"]
            phase.enable()
            evaluate(DEFAULT_TOL)
            phase.disable()
            draws.enable()
        draws.disable()
    per_op = {name: _calls(p) / len(seeds) for name, p in phases.items()}
    per_op["total"] = sum(per_op.values())
    return per_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=501,
                        help="benchmark seed of selftest_ops (default 501)")
    args = parser.parse_args(argv)
    per_op = count(args.seed)
    print(f"cProfile calls per verify_all op, selftest_ops({args.seed}):")
    for name, calls in per_op.items():
        print(f"  {name:<10} {calls:10,.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
