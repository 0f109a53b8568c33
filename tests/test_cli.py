import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rel
from sspectrum import CommutingOperator, QuatMatrix, Quaternion, cli, identities
from sspectrum.calculus import CalculusKind, stem_moment
from sspectrum.cli import MAX_DEGREE, RunConfig, run
from sspectrum.contour import MAX_NODES
from sspectrum.operators import MAX_DIMENSION, save_operator
from sspectrum.errors import InputError, NumericError


def compact(doc):
    """A document as the CLI prints it."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def zero_op(tmp_path):
    return write_json(tmp_path / "zero.json", {"n": 1})


@pytest.fixture
def e1_op(tmp_path):
    return write_json(tmp_path / "e1.json", {"T1": [[1.0]]})


@pytest.fixture
def split_op(tmp_path):
    return write_json(tmp_path / "split.json", {
        "n": 2,
        "T0": [[0.0, 0.0], [0.0, 5.0]],
        "T1": [[1.0, 0.0], [0.0, 0.0]],
    })


def test_spectrum_example(e1_op):
    status, text = run(RunConfig("spectrum", operator=e1_op))
    assert status == 0
    doc = json.loads(text)
    assert doc == [{"u": 0.0, "v": 1.0, "multiplicity": 1}]


def test_apply_example(zero_op, tmp_path):
    fn = write_json(tmp_path / "q2.json",
                    {"side": "left", "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]})
    status, text = run(RunConfig("apply", operator=zero_op, function=fn,
                                 calculus="f", nodes=128))
    assert status == 0
    mat = json.loads(text)
    assert abs(mat[0][0][0] + 4.0) < 1e-10
    assert max(abs(x) for x in mat[0][0][1:]) < 1e-12


def test_projector_pass_needs_the_trace(split_op, monkeypatch):
    # a zero matrix is idempotent; its trace misses the one joint
    # eigenvalue on sphere 0, so the check fails
    monkeypatch.setattr(cli, "riesz_projector", lambda kind, T, c: QuatMatrix.zeros(T.n))
    status, text = run(RunConfig("projector", operator=split_op, cluster="0"))
    assert status == 1
    assert json.loads(text)["pass"] is False


def test_projector_command(split_op):
    status, text = run(RunConfig("projector", operator=split_op, calculus="p2",
                                 cluster="0", nodes=256))
    assert status == 0
    doc = json.loads(text)
    assert doc["pass"] is True
    P = doc["projector"]
    assert abs(P[0][0][0] - 1.0) < 1e-8
    assert abs(P[1][1][0]) < 1e-8


def test_verify_command_pointwise():
    status, text = run(RunConfig("verify", name="q_resolvent_eq", seed=7))
    assert status == 0
    doc = json.loads(text)
    assert doc["pass"] is True and doc["name"] == "q_resolvent_eq"


def test_verify_command_integral():
    status, text = run(RunConfig("verify", name="q_product_rule", seed=0, nodes=64))
    assert status == 0
    assert json.loads(text)["pass"] is True


def test_verify_integral_evaluates_only_its_row(monkeypatch):
    # every other row raises when evaluated; the report must not change
    expected = {r.name: r for r in identities.verify_all(seed=3, nodes=64)}
    evaluated = []

    def refuse(name):
        def pairs(*args, **kwargs):
            evaluated.append(name)
            raise AssertionError(f"{name} was evaluated")
        return pairs

    tables = (identities.POINTWISE_IDENTITIES, identities.INTEGRAL_IDENTITIES)
    for name in identities.INTEGRAL_IDENTITIES:
        with monkeypatch.context() as patch:
            for table in tables:
                for other, row in table.items():
                    if other != name:
                        patch.setitem(table, other, row._replace(pairs=refuse(other)))
            status, text = run(RunConfig("verify", name=name, seed=3, nodes=64))
        assert evaluated == []
        assert status == (0 if expected[name].passed else 1)
        assert text == compact(expected[name].to_dict())


def test_selftest_passes_and_roundtrips():
    status, text = run(RunConfig("selftest", seed=0, nodes=64))
    assert status == 0
    doc = json.loads(text)
    assert all(entry["pass"] for entry in doc)
    # reading the emitted document back and re-emitting reproduces the bytes
    assert compact(doc) == text


def test_selftest_csv():
    status, text = run(RunConfig("selftest", seed=0, nodes=64, out_format="csv"))
    assert status == 0
    assert text.splitlines()[0] == "name,residual,scale,pass"


def test_csv_rejected_elsewhere(e1_op):
    assert cli.main(["spectrum", "--operator", e1_op, "--format", "csv"]) == 2


def test_selftest_byte_determinism():
    cmd = [sys.executable, "-m", "sspectrum", "selftest", "--seed", "0",
           "--nodes", "64"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_exit_code_parse_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["spectrum", "--operator", missing]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


def test_exit_code_precondition(split_op, capsys):
    # commutation violation: constructor-checked invariant
    bad = write_json(
        Path(split_op).parent / "bad.json",
        {"T0": [[0.0, 1.0], [0.0, 0.0]], "T1": [[0.0, 0.0], [1.0, 0.0]]})
    assert cli.main(["spectrum", "--operator", bad]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CommutationError" and err["exit"] == 3


def test_exit_code_numeric(monkeypatch, capsys):
    def boom(config):
        raise NumericError("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "spectrum", boom)
    assert cli.main(["spectrum"]) == 4
    assert json.loads(capsys.readouterr().err)["exit"] == 4


def test_out_file(tmp_path, e1_op):
    out = tmp_path / "result.json"
    assert cli.main(["spectrum", "--operator", e1_op, "--out", str(out)]) == 0
    assert json.loads(out.read_text())[0]["v"] == 1.0


def test_float_format_is_lossless():
    values = [0.1, 1.0, -0.0, 1e-300, 123456789.123456789, 2.0 ** -52, 5e-324,
              1e16, -1e16, 1e300, math.nan, math.inf, -math.inf]
    text = cli._json(values)
    assert text == ("[0.1,1.0,-0.0,1e-300,123456789.12345679,2.220446049250313e-16,"
                    "5e-324,1e+16,-1e+16,1e+300,NaN,Infinity,-Infinity]\n")
    back = json.loads(text)
    # repr tells -0.0 from 0.0 and names every other double uniquely
    assert list(map(repr, back)) == list(map(repr, values))
    assert cli._json(back) == text
    # numpy doubles print as floats; ints, bools, None and tuples as JSON
    assert cli._json({"P": [np.float64(2.0), 1, True, None, (1.5, -0.0)]}) == \
        '{"P":[2.0,1,true,null,[1.5,-0.0]]}\n'


def test_projector_computes_spectrum_once(split_op, monkeypatch):
    from sspectrum import operators

    calls = []
    compute = operators.s_spectrum
    monkeypatch.setattr(operators, "s_spectrum",
                        lambda *args: calls.append(args) or compute(*args))
    status, _ = run(RunConfig("projector", operator=split_op, calculus="p2",
                              cluster="0", nodes=64))
    assert status == 0 and len(calls) == 1


def test_projector_on_non_normal_real_spectrum(tmp_path, capsys):
    op = write_json(tmp_path / "op.json", {"n": 2, "T0": [[1, 2], [3, 4]]})
    assert cli.main(["projector", "--operator", op, "--calculus", "p2",
                     "--cluster", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def _rotated_jordan_block(tmp_path, shift):
    """T0 = Q (2 I + shift E) Q^T at n = 12, E the upper shift and Q a
    random orthogonal matrix, T1 = T2 = T3 = 0, as an operator file."""
    n = 12
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    T0 = Q @ (2.0 * np.eye(n) + shift * np.eye(n, k=1)) @ Q.T
    z = np.zeros((n, n))
    path = str(tmp_path / "op.json")
    save_operator(CommutingOperator(T0, z, z, z), path)
    return path


@pytest.mark.parametrize("calculus", ["s", "q", "p2", "f"])
def test_projector_on_a_rotated_jordan_block(tmp_path, capsys, calculus):
    # the one eigenvalue 2 is real, so every kind applies, and the
    # projector onto the one real point (2, 0) is I
    op = _rotated_jordan_block(tmp_path, 1.0)
    assert cli.main(["projector", "--operator", op, "--calculus", calculus]) == 0
    doc = json.loads(capsys.readouterr().out)
    P = np.array(doc["projector"])
    assert doc["pass"] is True and doc["idempotency_residual"] <= 1e-12
    assert np.abs(P[..., 0] - np.eye(12)).max() <= 1e-12
    assert np.abs(P[..., 1:]).max() <= 1e-12


@pytest.mark.parametrize("calculus", ["s", "q", "p2", "f"])
def test_projector_on_an_ill_conditioned_jordan_block_is_a_numeric_error(
        tmp_path, capsys, calculus):
    # with the superdiagonal 10, the pencil's condition on the contour
    # exceeds kernels.COND_LIMIT at the first node (about 2.7e12)
    op = _rotated_jordan_block(tmp_path, 10.0)
    assert cli.main(["projector", "--operator", op, "--calculus", calculus]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "SingularMatrixError" and "condition" in error["message"]


def test_commands_on_operators_with_a_basis_do_not_import_scipy(tmp_path):
    # scipy serves only the Schur route of s_spectrum, for operators with
    # no usable eigenbasis; its import costs about as much as a command.
    # numpy.ma comes with np.unique and costs a megabyte resident; the
    # split operator's selected real point (5, 0) gets a real-centred circle
    basis = str(tmp_path / "basis.json")
    save_operator(identities.random_commuting_operator(np.random.default_rng(1), 8), basis)
    split = str(tmp_path / "split.json")
    save_operator(identities.split_spectrum_operator(), split)
    jordan = _rotated_jordan_block(tmp_path, 1.0)
    stem = write_json(tmp_path / "f.json", {"side": "left", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]})
    script = f"""
import sys
from sspectrum import cli
from sspectrum.cli import RunConfig
runs = [RunConfig("selftest", seed=0),
        RunConfig("apply", operator={basis!r}, function={stem!r}, calculus="p2"),
        RunConfig("projector", operator={basis!r}, cluster="0", calculus="s"),
        RunConfig("projector", operator={split!r}, cluster="1", calculus="s")]
print([cli.run(config)[0] for config in runs], "scipy" in sys.modules,
      "numpy.ma" in sys.modules)
cli.run(RunConfig("spectrum", operator={jordan!r}))
print("scipy" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[0, 0, 0, 0] False False", "True"]


@pytest.mark.parametrize("doc", [
    {"n": 2, "T0": [[1.0, float("nan")], [0.0, 2.0]]},
    {"n": 2, "T1": [[1.0, float("inf")], [0.0, 2.0]]},
])
def test_non_finite_operator_is_a_parse_error(tmp_path, capsys, doc):
    op = write_json(tmp_path / "op.json", doc)
    assert cli.main(["projector", "--operator", op, "--calculus", "p2",
                     "--cluster", "0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"


@pytest.mark.parametrize("circles, nodes", [
    ([{"center": 0.0}], 64),                          # no radius
    ([{"center": 0.0, "radius": 1.0}], "x"),          # non-integer nodes
    ([{"center": "abc", "radius": 1.0}], 64),          # non-numeric entry
    ([{"u": 0.0, "v": [1.0], "radius": 0.5}], 64),     # non-numeric entry
    ([{"center": 0.0, "radius": float("nan")}], 64),   # non-finite entry
    ([{"center": 0.0, "radius": 1.0, "orientation": "up"}], 64),
    (["circle"], 64),
])
def test_malformed_contour_is_a_parse_error(tmp_path, capsys, e1_op, circles, nodes):
    ct = write_json(tmp_path / "c.json", {"J": [0, 1, 0, 0], "circles": circles,
                                         "nodes": nodes})
    f = write_json(tmp_path / "f.json", {"side": "left", "coeffs": [[1, 0, 0, 0]]})
    assert cli.main(["apply", "--operator", e1_op, "--function", f,
                     "--contour", ct]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


def test_non_numeric_cluster_is_a_parse_error(split_op, capsys):
    assert cli.main(["projector", "--operator", split_op, "--cluster", "x"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


@pytest.mark.parametrize("doc", [
    {"n": "abc"},
    {"n": 0},
    {"n": True},
    {"T0": [["x", 1], [0, 1]]},
    {"T0": [[1, 2], [3]]},                     # ragged rows
    {"n": 2, "T1": [[1, 0], [0, {"a": 1}]]},
    [[0, 0], [0, 5]],                          # not an object
])
def test_malformed_operator_is_a_parse_error(tmp_path, capsys, doc):
    op = write_json(tmp_path / "op.json", doc)
    assert cli.main(["spectrum", "--operator", op]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_stem_is_a_parse_error(tmp_path, capsys, e1_op, bad):
    f = tmp_path / "f.json"
    f.write_text('{"coeffs": [[%s, 0, 0, 0], [1, 0, 0, 0]]}' % bad)
    assert cli.main(["apply", "--operator", e1_op, "--function", str(f)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


def test_negative_m_is_a_parse_error(capsys):
    assert cli.main(["verify", "--name", "p2_kernel_power_shift_left", "--m", "-1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


def test_power_shift_memory_does_not_grow_with_the_degree(tmp_path, capsys):
    """verify --m 1024 on an n = 32 operator keeps a few n x n matrices,
    not one per power of T (that would be about 100 MB)."""
    path = tmp_path / "op.json"
    save_operator(identities.random_commuting_operator(np.random.default_rng(3), 32), path)
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--name", "p2_kernel_power_shift_left",
                         "--m", "1024", "--operator", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["inputs"].endswith(" m=1024")
    assert peak < 4e6


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["projector", "verify", "selftest"])
def test_bad_tolerance_is_a_parse_error(zero_op, capsys, command, tol):
    args = {"projector": ["--operator", zero_op],
            "verify": ["--name", "q_resolvent_eq"],
            "selftest": []}[command]
    assert cli.main([command, *args, "--tol", tol]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


def _apply_on_contour(path, op, doc, calculus="s"):
    ct = write_json(path / "c.json", doc)
    f = write_json(path / "f.json", {"side": "left", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]})
    return cli.main(["apply", "--operator", op, "--function", f, "--contour", ct,
                     "--calculus", calculus])


@pytest.mark.parametrize("circles", [
    [{"center": 2.5, "radius": 4.0}, {"center": 2.5, "radius": 5.0}],   # nested
    [{"center": 2.5, "radius": 6.0},                                    # annulus
     {"center": 2.5, "radius": 5.0, "orientation": -1}],
    [{"center": 2.5, "radius": 4.0, "orientation": -1}],
    [],
])
def test_apply_needs_one_turn_about_every_spectral_point(tmp_path, capsys, split_op,
                                                         circles):
    doc = {"J": [0, 1, 0, 0], "circles": circles, "nodes": 64}
    assert _apply_on_contour(tmp_path, split_op, doc) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GeometryError" and err["exit"] == 3


def test_projector_rejects_nested_circles(tmp_path, capsys, split_op):
    ct = write_json(tmp_path / "c.json", {"J": [0, 1, 0, 0], "nodes": 64, "circles": [
        {"center": 0.0, "radius": 2.0}, {"u": 0.0, "v": 1.0, "radius": 0.5}]})
    assert cli.main(["projector", "--operator", split_op, "--contour", ct]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GeometryError" and err["exit"] == 3


@pytest.mark.parametrize("J", ["[0, NaN, 0, 0]", "[NaN, 1, 0, 0]", "[0, 1, NaN]"])
def test_nan_imaginary_unit_is_a_parse_error(tmp_path, capsys, split_op, J):
    ct = tmp_path / "c.json"
    ct.write_text('{"J": %s, "circles": [{"center": 2.5, "radius": 4.0}]}' % J)
    f = write_json(tmp_path / "f.json", {"side": "left", "coeffs": [[1, 0, 0, 0]]})
    assert cli.main(["apply", "--operator", split_op, "--function", f,
                     "--contour", str(ct)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


@pytest.mark.parametrize("circle, nodes", [
    ({"center": 2.5, "radius": 4.0, "orientation": 1.7}, 64),
    ({"center": 2.5, "radius": 4.0, "orientation": 1.0}, 64),
    ({"center": 2.5, "radius": 4.0, "orientation": True}, 64),
    ({"center": 2.5, "radius": 4.0}, 8.9),
    ({"center": 2.5, "radius": 4.0}, 64.0),
])
def test_integer_contour_fields_must_be_json_integers(tmp_path, capsys, split_op,
                                                      circle, nodes):
    doc = {"J": [0, 1, 0, 0], "circles": [circle], "nodes": nodes}
    assert _apply_on_contour(tmp_path, split_op, doc) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


def test_out_into_a_directory_is_a_parse_error(tmp_path, capsys, e1_op):
    assert cli.main(["spectrum", "--operator", e1_op, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "InputError" and err["exit"] == 2
    assert captured.out == ""


# a non-normal operator with the real point (0.5, 0) and the sphere (-1, 1.2)
_FIXED_T0 = np.array([[0.5, 1.0], [0.0, -1.0]])
_FIXED_OP = CommutingOperator(_FIXED_T0, np.zeros((2, 2)),
                              0.4 * np.eye(2) - 0.8 * _FIXED_T0, np.zeros((2, 2)))
_orientation = st.sampled_from([1, 1, -1])


def _circles(center, radius):
    return st.builds(lambda c, r, o: {"center": c, "radius": r, "orientation": o},
                     center, radius, _orientation)


def _disk_pairs(u, v, radius):
    return st.builds(lambda u, v, r, o: {"u": u, "v": v, "radius": r, "orientation": o},
                     u, v, radius, _orientation)


# circles around the whole spectrum, around either point, and anywhere;
# every circle of the first three kinds clears the spectrum by r / 4
_component = st.one_of(
    _circles(st.floats(-0.5, 0.0), st.floats(2.2, 4.0)),
    _circles(st.floats(0.3, 0.7), st.floats(0.4, 0.8)),
    _disk_pairs(st.floats(-1.2, -0.8), st.floats(1.0, 1.4), st.floats(0.5, 0.9)),
    _circles(st.floats(-2.0, 2.0), st.floats(0.1, 4.0)),
    _disk_pairs(st.floats(-2.0, 0.0), st.floats(0.5, 2.0), st.floats(0.05, 1.5)),
)
_contour_doc = st.fixed_dictionaries({
    "J": st.sampled_from([[0, 1, 0, 0], [0, 0, 0.6, 0.8], [0, 0, 0, 1], [0, 0.8, 0, 0.6],
                          [0, 0, 1, 0], [0, 0.6, 0.8, 0],
                          [0, math.nan, 0, 0], [math.nan, 0, 1, 0]]),
    "circles": st.lists(_component, min_size=1, max_size=3),
    "nodes": st.sampled_from([192, 256, 320, 384, 448, 512, 100.5]),
})


def _clears_spectrum_by_a_quarter_radius(doc, T):
    """Every circle of the document, each conjugate of a disk pair too,
    lies at least a quarter of its radius from every spectral point."""
    for item in doc["circles"]:
        centres = ([(item["center"], 0.0)] if "center" in item
                   else [(item["u"], item["v"]), (item["u"], -item["v"])])
        r = item["radius"]
        if any(abs(math.hypot(sp.u - cu, sp.v - cv) - r) < r / 4
               for (cu, cv) in centres for sp in T.spheres):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(_contour_doc, st.sampled_from(["s", "q", "p2", "f"]), st.integers(0, 4))
@example({"J": [0, 0, 1, 0], "nodes": 256, "circles": [{"center": -0.25, "radius": 3.0}]},
         "p2", 4)
@example({"J": [0, 1, 0, 0], "nodes": 192, "circles": [
    {"center": 0.5, "radius": 0.6}, {"u": -1.0, "v": 1.2, "radius": 0.7}]}, "f", 3)
def test_apply_on_any_contour_document_is_right_or_refused(doc, calculus, m):
    """Every contour document either exits 2, 3 or 4 with a JSON error, or
    exits 0, and then, when its circles clear the spectrum by a quarter
    of their radius, with the closed-form value."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp)
        op = write_json(path / "op.json", {"T0": _FIXED_T0.tolist(),
                                           "T2": _FIXED_OP.T2.tolist()})
        ct = write_json(path / "c.json", doc)
        f = write_json(path / "f.json", {"side": "left",
                                         "coeffs": [[0, 0, 0, 0]] * m + [[1, 0, 0, 0]]})
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["apply", "--operator", op, "--function", f,
                             "--contour", ct, "--calculus", calculus])
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert json.loads(err.getvalue())["exit"] == code
    elif _clears_spectrum_by_a_quarter_radius(doc, _FIXED_OP):
        val = QuatMatrix(np.array(json.loads(out.getvalue())))
        ref = stem_moment(CalculusKind(calculus), _FIXED_OP, m)
        assert rel(val, ref) < 1e-8


_BIG = "1" + "0" * 400   # an integer literal that no float holds
_OK_OP = '{"n": 2, "T0": [[0, 0], [0, 5]], "T1": [[1, 0], [0, 0]]}'
_OK_STEM = '{"side": "left", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]}'
_OK_CONTOUR = '{"J": [0, 1, 0, 0], "circles": [{"center": 2.5, "radius": 4.0}]}'


@pytest.mark.parametrize("which, text", [
    pytest.param("operator", b'{"n": 2, "T0": "\xff\xfe"}', id="operator-not-utf8"),
    pytest.param("function", b'{"side": "left", "coeffs": [[1, 0, 0, 0]], "x": "\xc3"}',
                 id="function-not-utf8"),
    pytest.param("operator", b"[" * 100_000 + b"]" * 100_000, id="operator-deep"),
    pytest.param("function", b"[" * 100_000 + b"]" * 100_000, id="function-deep"),
    pytest.param("contour", b"[" * 100_000 + b"]" * 100_000, id="contour-deep"),
    pytest.param("operator", ('{"n": 1, "T0": [[%s]]}' % _BIG).encode(), id="operator-big-entry"),
    pytest.param("operator", ('{"n": %s}' % _BIG).encode(), id="operator-big-n"),
    pytest.param("operator", b'{"n": 1000000000000000000000000000000}', id="operator-huge-n"),
    pytest.param("function", ('{"side": "left", "coeffs": [[%s, 0, 0, 0]]}' % _BIG).encode(),
                 id="function-big-coefficient"),
    pytest.param("contour", ('{"J": [0, 1, 0, 0], "circles": [{"center": %s, "radius": 4.0}]}'
                             % _BIG).encode(), id="contour-big-center"),
    pytest.param("contour", ('{"J": [0, %s, 0, 0], "circles": [{"center": 2.5, "radius": 4.0}]}'
                             % _BIG).encode(), id="contour-big-J"),
    pytest.param("contour", b'{"J": "0100", "circles": [{"center": 2.5, "radius": 4.0}]}',
                 id="contour-string-J"),
    pytest.param("function", b'{"side": "left", "coeffs": ["1000", "0100"]}',
                 id="function-string-coefficients"),
    pytest.param("operator", b'{"n": 2, "T0": [["0", "0"], ["0", "5"]]}',
                 id="operator-string-entries"),
    pytest.param("function", b'{"side": "left", "coeffs": [[true, false, false, false]]}',
                 id="function-bool-coefficient"),
    pytest.param("contour",
                 b'{"J": [0, 1, 0, 0], "circles": [{"center": "2.5", "radius": "4.0"}]}',
                 id="contour-string-circle"),
    pytest.param("operator", b'{"n": null, "T0": [[0, 0], [0, 5]]}', id="operator-null-n"),
    pytest.param("operator", b'{"n": %d}' % (MAX_DIMENSION + 1), id="operator-n-above-bound"),
    pytest.param("function", b'{"side": "up", "coeffs": [[1, 0, 0, 0]]}', id="function-side-up"),
    pytest.param("function", b'{"side": 5, "coeffs": [[1, 0, 0, 0]]}', id="function-side-5"),
])
def test_unreadable_documents_are_parse_errors(tmp_path, capsys, which, text):
    docs = {"operator": _OK_OP, "function": _OK_STEM, "contour": _OK_CONTOUR}
    paths = {}
    for name, body in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(text if name == which else body.encode())
    assert cli.main(["apply", "--operator", str(paths["operator"]),
                     "--function", str(paths["function"]),
                     "--contour", str(paths["contour"])]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "InputError" and err["exit"] == 2
    assert captured.out == ""


def test_verify_refuses_a_spectrum_too_large_to_sample(tmp_path, capsys):
    # the resolvent points are drawn from a box three times the spectrum's
    # reach; at 1e308 that box overflows the float range
    op = write_json(tmp_path / "op.json", {"n": 2, "T0": [[1e308, 0], [0, 5]],
                                           "T1": [[1, 0], [0, 0]]})
    assert cli.main(["verify", "--name", "p2_kernel_power_shift_left",
                     "--operator", op]) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "NumericError"
    assert captured.out == ""


@pytest.mark.parametrize("exists", [True, False])
def test_verify_refuses_an_operator_on_an_integral_row(split_op, exists, capsys):
    # an integral row draws its own operator and contours, so a file
    # given to it would go unread; it is refused, valid or missing
    op = split_op if exists else split_op + ".missing"
    assert cli.main(["verify", "--name", "p2_product_rule_left",
                     "--operator", op, "--seed", "0"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert json.loads(lines[0])["message"] == (
        "--operator refused: verify --name p2_product_rule_left does not read them")
    assert captured.out == ""


def test_verify_refuses_the_flags_a_row_does_not_read(monkeypatch, split_op, capsys):
    # --operator reaches the pointwise rows, --m the two power shifts and
    # --nodes the integral rows; any other of the three is refused before
    # the row runs, one message naming them all
    assert cli.main(["verify", "--name", "q_resolvent_eq", "--seed", "1",
                     "--nodes", "64", "--m", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["message"] == (
        "--nodes, --m refused: verify --name q_resolvent_eq does not read them")
    ran = []
    report = identities.IdentityReport("stub", "", 0.0, 1.0, 1e-8, True)
    monkeypatch.setattr(identities, "verify_pointwise",
                        lambda name, *args, **opts: ran.append(name) or report)
    monkeypatch.setattr(identities, "verify_seeded",
                        lambda name, *args: ran.append(name) or report)
    power = ("p2_kernel_power_shift_left", "p2_kernel_power_shift_right")
    for name in identities.registry_names():
        pointwise = name in identities.POINTWISE_IDENTITIES
        reads = {"operator": pointwise, "nodes": not pointwise, "m": name in power}
        for field, value in (("operator", split_op), ("nodes", 64), ("m", 2)):
            config = RunConfig("verify", name=name, **{field: value})
            ran.clear()
            if reads[field]:
                assert run(config)[0] == 0 and ran == [name], (name, field)
            else:
                with pytest.raises(InputError, match=f"^--{field} refused: verify "
                                   f"--name {name} does not read them$"):
                    run(config)
                assert ran == []


def test_a_projector_whose_contour_overflows_is_a_numeric_error(tmp_path, capsys):
    # the smallest circle around the two selected spheres, whose u lie
    # 2e307 apart at v = 1.5e308, squares distances beyond the float range
    op = write_json(tmp_path / "op.json", {"T0": [[1e307, 0, 0], [0, -1e307, 0], [0, 0, 3e307]],
                                           "T1": [[1.5e308, 0, 0], [0, 1.5e308, 0], [0, 0, 0]]})
    assert cli.main(["projector", "--operator", op, "--cluster", "0,1",
                     "--calculus", "s"]) == 4
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "NumericError"
    assert captured.out == ""


def _split_scaled(tmp_path, r):
    return write_json(tmp_path / "op.json", {"n": 2, "T0": [[0.0, 0.0], [0.0, 5.0 * r]],
                                             "T1": [[r, 0.0], [0.0, 0.0]]})


@pytest.mark.parametrize("coeffs, scale", [
    pytest.param([[1e308, 0, 0, 0], [1e308, 0, 0, 0]], 1.0, id="coefficients-1e308"),
    pytest.param([[0, 0, 0, 0], [1, 0, 0, 0]], 1e150, id="operator-1e150"),
])
def test_overflow_is_a_numeric_error(tmp_path, capsys, coeffs, scale):
    op = _split_scaled(tmp_path, scale)
    f = write_json(tmp_path / "f.json", {"side": "left", "coeffs": coeffs})
    assert cli.main(["apply", "--operator", op, "--function", f]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "NumericError"


def test_a_pencil_of_no_finite_condition_is_named_singular(tmp_path, capsys):
    # every entry of the pencil is a product of two numbers near 1e-200,
    # which underflows to zero: no inverse, and a NaN condition
    op = write_json(tmp_path / "op.json", {"T0": [[1e-200, 0.0], [0.0, -1e-200]],
                                           "T1": [[1e-200, 0.0], [0.0, 0.0]]})
    f = write_json(tmp_path / "f.json", {"side": "left", "coeffs": [[1, 0, 0, 0], [0, 1, 0, 0]]})
    assert cli.main(["apply", "--calculus", "s", "--operator", op, "--function", f]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "SingularMatrixError"
    assert error["message"] == ("pencil at node 0 is numerically singular: "
                                "its condition is not finite")
    assert "nan" not in error["message"]


def test_spectrum_beyond_the_float_range_is_a_numeric_error(tmp_path, capsys):
    op = write_json(tmp_path / "op.json", {"T0": [[1e308, 1e308], [1e308, 1e308]]})
    assert cli.main(["spectrum", "--operator", op]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "EigenvalueError"


@pytest.mark.parametrize("calculus", ["s", "q", "p2", "f"])
def test_apply_on_a_large_split_operator_matches_stem_moment(tmp_path, capsys, calculus):
    # the split operator times 1e6: its four roots once merged into one
    # real point (2.5e6, 0) of multiplicity 4
    op = _split_scaled(tmp_path, 1e6)
    f = write_json(tmp_path / "f.json", {"side": "left",
                                         "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]})
    assert cli.main(["apply", "--operator", op, "--function", f,
                     "--calculus", calculus]) == 0
    val = QuatMatrix(np.array(json.loads(capsys.readouterr().out)))
    T = identities.split_spectrum_operator()
    T = CommutingOperator(*(C * 1e6 for C in T.components))
    kind = CalculusKind(calculus)
    ref = stem_moment(kind, T, 1) + stem_moment(kind, T, 2).rmul(Quaternion(0, 0, 1, 0))
    assert rel(val, ref) < 1e-8


@pytest.mark.parametrize("calculus", ["s", "q", "p2", "f"])
def test_split_operator_is_served_at_every_scale(tmp_path, capsys, calculus):
    # the split operator times 2^k: the winding rule's clearance scales
    # with the contour, so no scale is refused for being small
    f = write_json(tmp_path / "f.json", {"side": "left",
                                         "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]})
    kind = CalculusKind(calculus)
    for k in range(-60, 61, 4):
        op = _split_scaled(tmp_path, 2.0 ** k)
        assert cli.main(["apply", "--operator", op, "--function", f,
                         "--calculus", calculus]) == 0, k
        val = QuatMatrix(np.array(json.loads(capsys.readouterr().out)))
        T = CommutingOperator(*(C * 2.0 ** k for C in
                                identities.split_spectrum_operator().components))
        ref = stem_moment(kind, T, 2)
        assert (val - ref).norm() <= 1e-8 * ref.norm(), k
        assert cli.main(["projector", "--operator", op, "--cluster", "0",
                         "--calculus", calculus]) == 0, k
        capsys.readouterr()


# ---------------------------------------------------------------------------
# every input, mutated: documents and flags

# the RunConfig fields each command reads, restated from the README;
# command and out are read for every command
_READS = {
    "spectrum": ("operator",),
    "apply": ("operator", "function", "calculus", "contour", "nodes"),
    "projector": ("operator", "calculus", "contour", "cluster", "nodes", "tol"),
    "verify": ("name", "operator", "seed", "tol", "nodes", "m", "out_format"),
    "selftest": ("seed", "tol", "nodes", "out_format"),
}
# a valid value other than the default for each of those fields; a
# document field holds the name of its document in _VALID_DOCS
_NON_DEFAULT = {"operator": "operator", "function": "function", "contour": "contour",
                "calculus": "q", "cluster": "0", "nodes": 64, "tol": 1e-6, "seed": 1,
                "out_format": "csv", "name": "q_resolvent_eq", "m": 2}
_UNREAD = [(command, field) for command, reads in _READS.items()
           for field in _NON_DEFAULT if field not in reads]
# the verify fields each row of test_any_input_exits_with_a_documented_code
# does not read
_ROW_UNREAD = {"verify --name=p2_kernel_power_shift_left": ("nodes",),
               "verify --name=q_resolvent_eq": ("nodes", "m")}


def _option(field):
    return "--format" if field == "out_format" else f"--{field}"


_VALID_DOCS = {
    "operator": {"n": 2, "T0": [[0, 0], [0, 5]], "T1": [[1, 0], [0, 0]]},
    "function": {"side": "left", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]},
    "contour": {"J": [0, 1, 0, 0], "nodes": 64,
                "circles": [{"center": 2.5, "radius": 4.0, "orientation": 1}]},
}
_DEEP = 1
for _ in range(100):
    _DEEP = [_DEEP]
# values no field accepts: the wrong JSON type, non-finite, beyond the
# float range, nested past any array or ragged
_REFUSED = [None, True, False, "5", "", "x", {}, {"a": 1}, math.nan, math.inf,
            -math.inf, 10 ** 400, _DEEP, [1, [2]]]
# values some field accepts
_ODD = [[], [[1]], 1.5, -3, 0, 1e308, -1e308]


def _paths(doc, prefix=()):
    """The path of every value in a JSON document, the root included."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw):
    """The valid documents with at most one of them changed in one place:
    a value replaced or removed.  Returns the documents, the name of the
    changed one (None if none) and whether the change put in a value
    that no field accepts."""
    docs = copy.deepcopy(_VALID_DOCS)
    target = draw(st.sampled_from([None, *docs]))
    if target is None:
        return docs, None, False
    path = draw(st.sampled_from(list(_paths(docs[target]))))
    value = draw(st.sampled_from(_REFUSED + _ODD))
    refused = any(value is v for v in _REFUSED)   # by identity: 0 == False
    if path == ():
        docs[target] = value
        return docs, target, refused
    parent = docs[target]
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
        return docs, target, False
    parent[path[-1]] = value
    return docs, target, refused


def _flag(name, values, refused=()):
    """No flag, or --name=value with a value drawn from values or from
    refused; the second item says whether the value is one that must
    exit 2."""
    options = [st.just(([], False)), values.map(lambda v: ([f"--{name}={v}"], False))]
    if refused:
        options.append(st.sampled_from(refused).map(lambda v: ([f"--{name}={v}"], True)))
    return st.one_of(*options)


# refused values: argparse's (not a number, not a choice) and run's
# (beyond a bound, non-finite, negative)
_FLAGS = {
    "cluster": _flag("cluster", st.one_of(st.text("01,-x ", max_size=5), st.just("9" * 400))),
    "nodes": _flag("nodes", st.sampled_from([8, 33, 64]),
                   [-1, 0, 7, MAX_NODES + 1, 10 ** 12, "abc", "1.5", ""]),
    "tol": _flag("tol", st.sampled_from(["0", "1e-300", "1e-8", "1"]),
                 ["nan", "inf", "-inf", "-1", "abc", ""]),
    "m": _flag("m", st.integers(0, 6), [-3, -1, MAX_DEGREE + 1, 10 ** 9, "x", "2.5"]),
    "calculus": _flag("calculus", st.sampled_from(["s", "q", "p2", "f"]), ["x", "", "S"]),
    "contour": st.sampled_from([["--contour", "auto"], ["--contour", "FILE"], []]).map(
        lambda group: (group, False)),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["apply", "projector", "spectrum",
                        "verify --name=p2_kernel_power_shift_left",
                        "verify --name=q_resolvent_eq"]),
       _mutated(), st.data())
def test_any_input_exits_with_a_documented_code(command, mutation, data):
    """Mutated documents and the flags a command reads exit 0 or 1 with a
    document on stdout, or 2, 3 or 4 with one JSON error on stderr, never
    a traceback; a refused flag value, a flag the command does not read,
    and a document that the command reads and that holds a value no
    field accepts, exit 2."""
    docs, target, refused = mutation
    reads = [field for field in _READS[command.split()[0]]
             if field not in _ROW_UNREAD.get(command, ())]
    flags = data.draw(st.tuples(*(draw for field, draw in _FLAGS.items() if field in reads)))
    unread = data.draw(st.none() | st.sampled_from(
        [field for field in _NON_DEFAULT if field not in reads]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        argv = command.split() + ["--operator", paths["operator"]]
        if "function" in reads:
            argv += ["--function", paths["function"]]
        for group, _ in flags:
            argv += [paths["contour"] if a == "FILE" else a for a in group]
        if unread is not None:
            value = _NON_DEFAULT[unread]
            argv.append(f"{_option(unread)}={paths.get(value, value)}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        json.loads(out.getvalue())
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["exit"] == code
        assert out.getvalue() == ""
    if any(flag_refused for _, flag_refused in flags):
        assert code == 2, argv
    elif unread is not None:
        assert code == 2, argv
        assert f"{_option(unread)} refused" in json.loads(err.getvalue())["message"]
    read = {"operator": True, "function": command == "apply",
            "contour": paths["contour"] in argv and command in ("apply", "projector")}
    if refused and read[target]:
        assert code == 2, (target, docs[target])


@pytest.mark.parametrize("entry, m", [(1e30, 8), (1e60, 5)])
def test_overflowing_power_shift_fails(tmp_path, capsys, entry, m):
    # s^m overflows, so the pair's relative residual is NaN: the worst pair
    op = write_json(tmp_path / "op.json", {"n": 1, "T0": [[entry]]})
    assert cli.main(["verify", "--name", "p2_kernel_power_shift_left", "--m", str(m),
                     "--operator", op]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert math.isnan(doc["residual"] / doc["scale"])


@pytest.mark.parametrize("argv", [
    ["apply", "--calculus", "x"],
    ["projector", "--tol", "abc"],
    ["apply", "--nodes", "abc"],
    ["verify", "--m", "2.5"],
    ["selftest", "--format", "xml"],
    ["selftest", "--no-such-flag"],
    ["no-such-command"],
    [],
])
def test_refused_flags_print_a_json_parse_error(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InputError" and json.loads(lines[0])["exit"] == 2
    assert captured.out == ""


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["apply", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sspectrum apply")


def test_run_refuses_an_unknown_calculus(zero_op, tmp_path):
    fn = write_json(tmp_path / "f.json", {"side": "left", "coeffs": [[1, 0, 0, 0]]})
    with pytest.raises(InputError, match="unknown calculus 'x'"):
        run(RunConfig("apply", operator=zero_op, function=fn, calculus="x"))


@pytest.mark.parametrize("config, match", [
    (RunConfig("nope"), "unknown command 'nope'"),
    (RunConfig("selftest", out_format="xml"), "unknown format 'xml'"),
])
def test_run_refuses_an_unknown_command_or_format(config, match):
    # run() is called without the parser, whose choices guard both
    with pytest.raises(InputError, match=match):
        run(config)


def test_run_config_holds_every_default():
    # the parser leaves an absent flag out, so RunConfig's default applies
    assert vars(cli._build_parser().parse_args(["selftest"])) == {"command": "selftest"}
    assert RunConfig("selftest").tol == identities.DEFAULT_TOL


@pytest.mark.parametrize("command", ["spectrum", "apply", "projector", "verify", "selftest"])
@pytest.mark.parametrize("flag, value", [("--nodes", MAX_NODES + 1),
                                         ("--nodes", 10 ** 12),
                                         ("--nodes", 7),
                                         ("--nodes", 0),
                                         ("--m", MAX_DEGREE + 1)])
def test_flags_beyond_their_bound_exit_before_the_command(monkeypatch, capsys, split_op,
                                                          command, flag, value):
    def refuse(config):
        raise AssertionError(f"{command} ran")

    monkeypatch.setitem(cli._COMMANDS, command, refuse)
    assert cli.main([command, "--operator", split_op, "--name", "q_product_rule",
                     flag, str(value)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


def test_m_at_its_bound_is_accepted(capsys):
    assert cli.main(["verify", "--name", "p2_kernel_power_shift_left",
                     "--m", str(MAX_DEGREE)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_contour_nodes_beyond_the_bound_are_a_parse_error(tmp_path, capsys, split_op):
    doc = {"J": [0, 1, 0, 0], "circles": [{"center": 2.5, "radius": 4.0}],
           "nodes": MAX_NODES + 1}
    assert _apply_on_contour(tmp_path, split_op, doc) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and err["exit"] == 2


def _stem_file(tmp_path):
    return write_json(tmp_path / "f.json", {"side": "left", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]})


def _contour_file(tmp_path, nodes=256, name="c.json"):
    return write_json(tmp_path / name, {"J": [0, 1, 0, 0], "nodes": nodes,
                                            "circles": [{"center": 2.5, "radius": 4.0}]})


@pytest.mark.parametrize("flag, exists", [("--operator", True), ("--operator", False),
                                          ("--function", True), ("--function", False),
                                          ("--contour", True), ("--contour", False),
                                          ("--cluster", True)])
def test_selftest_refuses_a_document_flag(tmp_path, split_op, capsys, flag, exists):
    # selftest draws its own operators, stems and contours, so a file
    # given to it would go unread; it is refused, valid or missing
    value = {"--operator": split_op, "--function": _stem_file(tmp_path),
             "--contour": _contour_file(tmp_path), "--cluster": "0,1"}[flag]
    if not exists:
        value += ".missing"
    assert cli.main(["selftest", "--seed", "0", flag, value]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "InputError" and err["exit"] == 2
    assert flag in err["message"] and "selftest does not read them" in err["message"]
    assert captured.out == ""
    with pytest.raises(InputError, match="selftest does not read them"):
        run(RunConfig("selftest", **{flag[2:]: value}))


# the fields that let each command run, so that a refusal is the flag's
_REQUIRED = {"spectrum": ("operator",), "apply": ("operator", "function"),
             "projector": ("operator",), "verify": ("name",), "selftest": ()}


def _fields(tmp_path, names):
    """{field: the _NON_DEFAULT value} for names, documents written under tmp_path."""
    out = {}
    for field in names:
        value = _NON_DEFAULT[field]
        if value in _VALID_DOCS:
            value = write_json(tmp_path / f"{value}.json", _VALID_DOCS[value])
        out[field] = value
    return out


@pytest.mark.parametrize("command, field", _UNREAD)
def test_a_flag_the_command_does_not_read_is_refused(tmp_path, capsys, command, field):
    given = _fields(tmp_path, _REQUIRED[command] + (field,))
    argv = [command]
    for name, value in given.items():
        argv += [_option(name), str(value)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "InputError" and err["exit"] == 2
    assert err["message"] == f"{_option(field)} refused: {command} does not read them"
    assert captured.out == ""
    with pytest.raises(InputError, match=f"^{_option(field)} refused: {command} does not"):
        run(RunConfig(command, **given))


def test_every_flag_a_command_reads_is_accepted(tmp_path, monkeypatch):
    # 23 (command, field) pairs are read and the other 32 are refused
    assert sum(map(len, _READS.values())) == 23 and len(_UNREAD) == 32
    given = _fields(tmp_path, _NON_DEFAULT)
    for command, reads in _READS.items():
        monkeypatch.setitem(cli._COMMANDS, command, lambda config: (0, []))
        config = RunConfig(command, **{field: given[field] for field in reads})
        assert run(config)[0] == 0, command


def test_two_unread_flags_are_refused_in_one_message(split_op, capsys):
    assert cli.main(["projector", "--operator", split_op, "--function", "/nonexistent.json",
                     "--seed", "3", "--cluster", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "--function, --seed refused: projector does not read them"


def test_a_flag_at_its_default_is_accepted(split_op, capsys):
    assert cli.main(["spectrum", "--operator", split_op, "--contour", "auto",
                     "--calculus", "s", "--format", "json", "--m", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2


def test_help_lists_only_the_flags_a_command_reads(capsys):
    for argv in (["spectrum", "--help"], ["apply", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
    spectrum, apply = capsys.readouterr().out.split("usage: sspectrum apply")
    assert "--operator" in spectrum and "--out" in spectrum
    assert "--function" not in spectrum and "--nodes" not in spectrum
    assert "--function" in apply and "--cluster" not in apply


@pytest.mark.parametrize("cluster", ["0", "1", "0,1"])
def test_projector_refuses_a_cluster_on_a_contour_file(tmp_path, split_op, capsys, cluster):
    # the file decides which spheres are enclosed, so a selection would go unread
    ct = _contour_file(tmp_path)
    assert cli.main(["projector", "--operator", split_op, "--contour", ct,
                     "--cluster", cluster]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert "--cluster needs --contour auto" in json.loads(lines[0])["message"]
    assert captured.out == ""
    with pytest.raises(InputError, match="contour file decides the enclosed spheres"):
        run(RunConfig("projector", operator=split_op, contour=ct, cluster=cluster))
    # the file alone, and the selection on the auto contour, still run
    assert cli.main(["projector", "--operator", split_op, "--contour", ct]) == 0
    assert cli.main(["projector", "--operator", split_op, "--contour", "auto",
                     "--cluster", cluster]) == 0
    status, _ = run(RunConfig("projector", operator=split_op, contour="auto", cluster=cluster))
    assert status == 0


@pytest.mark.parametrize("cluster", ["2", "-1", "0,2"])
def test_a_cluster_index_out_of_range_is_a_parse_error(split_op, capsys, cluster):
    assert cli.main(["projector", "--operator", split_op, f"--cluster={cluster}"]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "InputError" and "out of range" in err["message"]
    assert captured.out == ""


def test_spheres_too_close_for_a_margin_are_a_geometry_error(tmp_path, capsys):
    # the spheres 0 and 1e-323 are distinct, but a quarter of their gap
    # underflows to a margin of 0
    op = write_json(tmp_path / "op.json", {"T0": [[0.0, 0.0], [0.0, 1e-323]]})
    assert cli.main(["projector", "--operator", op, "--cluster", "0"]) == 3
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "GeometryError" and "positive margin" in err["message"]
    assert captured.out == ""


def test_nodes_flag_equals_the_contour_file_nodes(tmp_path, split_op, capsys):
    # --nodes on a contour file replaces the file's node count
    f = _stem_file(tmp_path)
    outs = []
    for argv in (["--contour", _contour_file(tmp_path, 256, "c256.json"), "--nodes", "32"],
                 ["--contour", _contour_file(tmp_path, 32, "c32.json")]):
        assert cli.main(["apply", "--operator", split_op, "--function", f] + argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_apply_without_a_function_names_the_flag(split_op, capsys):
    assert cli.main(["apply", "--operator", split_op]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and "--function" in err["message"]


def test_verify_without_a_name_is_a_parse_error(capsys):
    assert cli.main(["verify", "--seed", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and "--name" in err["message"]


def _raise_in_one_integral_row(monkeypatch):
    """Makes the first integral row's pairs raise; returns its name."""
    from sspectrum.errors import PreconditionError

    def pairs(*args):
        raise PreconditionError("synthetic refusal")

    name, row = next(iter(identities.INTEGRAL_IDENTITIES.items()))
    monkeypatch.setitem(identities.INTEGRAL_IDENTITIES, name, row._replace(pairs=pairs))
    return name


def test_a_raising_integral_row_is_reported_failed(monkeypatch):
    name = _raise_in_one_integral_row(monkeypatch)
    reports = {r.name: r for r in identities.verify_all(seed=0, nodes=64)}
    report = reports[name]
    assert report.passed is False and report.residual == math.inf
    assert report.inputs.startswith("error:") and "synthetic refusal" in report.inputs


def test_selftest_with_a_raising_integral_row_exits_1(monkeypatch, capsys):
    name = _raise_in_one_integral_row(monkeypatch)
    assert cli.main(["selftest", "--seed", "0", "--nodes", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = {entry["name"]: entry for entry in json.loads(captured.out)}
    assert doc[name]["pass"] is False and doc[name]["inputs"].startswith("error:")


def test_a_stem_coefficient_of_three_entries_is_a_parse_error(tmp_path, split_op, capsys):
    f = write_json(tmp_path / "f.json", {"coeffs": [[0, 0, 0, 0], [1, 0, 0]]})
    assert cli.main(["apply", "--operator", split_op, "--function", f]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and "4 entries" in err["message"]


def test_a_nested_contour_unit_is_a_parse_error(tmp_path, split_op, capsys):
    doc = {"J": [[0, 1, 0, 0]], "circles": [{"center": 2.5, "radius": 4.0}], "nodes": 64}
    assert _apply_on_contour(tmp_path, split_op, doc) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and "flat array" in err["message"]
