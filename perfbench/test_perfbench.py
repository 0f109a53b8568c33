"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sspectrum import cli  # noqa: E402


def _document_bytes(ops, directory):
    workloads.materialize(ops, directory, "op")
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = workloads.GENERATORS[workload](5)
    again = workloads.GENERATORS[workload](5)
    assert [op.config for op in first] == [op.config for op in again]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert _document_bytes(first, tmp_path / "a") == _document_bytes(again, tmp_path / "b")
    other = workloads.GENERATORS[workload](6)
    assert ([op.config for op in other] != [op.config for op in first]
            or [workloads.encode(op.docs) for op in other]
            != [workloads.encode(op.docs) for op in first])


def _run(op, tmp_path):
    config = workloads.materialize([op], tmp_path, "op")[0]
    return cli.run(cli.RunConfig(**config))


def _perturb_matrix(text, key=None):
    doc = json.loads(text)
    target = doc if key is None else doc[key]
    target[0][0][0] += 1e-3
    return json.dumps(doc)


class _FixedOutput:
    """Stands in for sspectrum.cli: run returns a prepared result."""

    RunConfig = cli.RunConfig

    def __init__(self, status, text):
        self.result = (status, text)

    def run(self, config):
        return self.result


def _loop_outcome(op, status, text, check):
    loop = bench.Loop(_FixedOutput(status, text), [op], [op.config], check)
    loop.step(0)
    return loop


def test_perturbed_apply_result_is_a_failure(tmp_path):
    op = workloads.warmup_ops("apply")[2]
    status, text = _run(op, tmp_path)
    assert checks.check_apply(op, status, text) is None
    loop = _loop_outcome(op, status, _perturb_matrix(text), checks.check_apply)
    assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, 1)


def test_perturbed_projector_result_is_a_failure(tmp_path):
    op = workloads.warmup_ops("projector")[0]
    status, text = _run(op, tmp_path)
    assert checks.check_projector(op, status, text) is None
    loop = _loop_outcome(op, status, _perturb_matrix(text, "projector"),
                         checks.check_projector)
    assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, 1)


def test_changed_selftest_bytes_are_a_failure():
    op = workloads.Op({"command": "selftest", "seed": 3})
    check = checks.SelftestCheck()
    assert check(op, 0, "[1]\n") is None
    assert check(op, 0, "[1]\n") is None
    assert check(op, 0, "[2]\n") is not None
    assert check(op, 1, "[1]\n") == "exit 1"


def test_selftest_exit_1_makes_the_run_incorrect():
    op = workloads.Op({"command": "selftest", "seed": 3})
    loop = _loop_outcome(op, 1, "", checks.SelftestCheck())
    assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, 1)
    assert bench.result_line([loop], {})["correct"] is False


class _Raises:
    """Stands in for sspectrum.cli: run raises."""

    RunConfig = cli.RunConfig

    def run(self, config):
        raise ArithmeticError("singular pencil")


def test_raised_error_makes_the_run_incorrect():
    op = workloads.warmup_ops("apply")[0]
    loop = bench.Loop(_Raises(), [op], [op.config], checks.check_apply)
    loop.step(0)
    assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, 1)
    assert loop.reasons == {"raised ArithmeticError": 1}


def test_only_a_known_defect_may_fail(tmp_path):
    ops = workloads.projector_ops(0)
    real_axis = [op for op in ops if op.may_fail]
    assert len(real_axis) == len(ops) // workloads.REAL_AXIS_PERIOD
    assert all(op.tag == "real-axis " for op in real_axis)
    op = real_axis[0]
    # failing by exit status or error is counted, and allowed
    for cli_stub in (_FixedOutput(4, ""), _Raises()):
        loop = bench.Loop(cli_stub, [op], [op.config], checks.check_projector)
        loop.step(0)
        assert (loop.failed, loop.wrong) == (1, 0)
    assert bench.result_line([loop], {})["correct"] is True
    # a wrong projector with exit 0 is never allowed
    good = workloads.warmup_ops("projector")[0]
    status, text = _run(good, tmp_path)
    good.may_fail = True
    loop = _loop_outcome(good, status, _perturb_matrix(text, "projector"),
                         checks.check_projector)
    assert (loop.failed, loop.wrong) == (1, 1)


def test_runs_stop_only_at_pass_boundaries():
    clock = iter(range(100))
    steps = []
    bench.run_passes(7, 10, steps.append, lambda: next(clock) * 3)
    # timed_s is read once per finished pass: 0, 3, 6, 9, 12
    assert steps == list(range(35))
    steps.clear()
    bench.run_passes(7, 0, steps.append, lambda: 0.0)
    assert steps == list(range(7))


def _spanned_functions():
    out = []
    for span in tracing.SPANS:
        owner = sys.modules[span.module]
        for part in span.qualname.split("."):
            owner = getattr(owner, part)
        out.append(owner)
    return out


def _bindings(functions):
    """Every (holder, name) in the library whose value is one of functions."""
    from sspectrum.slicefn import SlicePoly

    holders = [m for name, m in sys.modules.items()
               if name == "sspectrum" or name.startswith("sspectrum.")]
    return {(id(h), key): value for h in holders + [SlicePoly]
            for key, value in vars(h).items() if any(value is f for f in functions)}


def test_tracing_restores_functions_and_keeps_output():
    config = cli.RunConfig("selftest", seed=0)
    originals = _spanned_functions()
    before = _bindings(originals)
    assert len(before) > len(originals)    # imported names and aliases too
    plain = cli.run(config)
    with tracing.Tracer() as tracer:
        assert _bindings(originals) == {}
        tracer.active = True
        traced = cli.run(config)
        tracer.active = False
    assert _bindings(originals) == before
    assert traced == plain
    assert tracer.calls["cli.run"] == 1
    assert tracer.calls["slicefn.SlicePoly.evaluate"] > 0
    assert tracer.self_s["qlinalg.solve_arr.n8"] > 0


def test_checks_stay_out_of_the_trace(tmp_path):
    op = workloads.warmup_ops("apply")[6]
    config = workloads.materialize([op], tmp_path, "op")[0]
    calls = []
    for check in (checks.check_apply, lambda *args: None):
        with tracing.Tracer() as tracer:
            loop = bench.Loop(bench.TracedCli(cli, tracer), [op], [config], check)
            loop.step(0)
        assert loop.failed == 0
        calls.append(dict(tracer.calls))
    assert calls[0] == calls[1]
    assert calls[0]["qlinalg.matmul"] > 0


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    loop = bench.Loop(cli, [], [], None)
    loop.latencies, loop.busy_s, loop.attempted = [0.1] * 20, 2.0, 20
    e2e = bench.end_to_end(loop, 1.0)
    layers = bench.per_layer(tracing.Tracer(), loop, 1.0)
    for metrics, declared in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert list(metrics) == [m["name"] for m in declared]
        assert [unit for _, unit in metrics.values()] == [m["unit"] for m in declared]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_tail_has_ten_samples_beyond():
    lat = list(np.arange(100.0))
    value, pct = bench.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == 90.0
