import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxvar import cli
from coxvar.cli import main
from coxvar.coxeter import gamma_rect
from coxvar.cusp import base_rect_hyp
from coxvar.geometry import QuadraticSpace
from coxvar.linalg_exact import PairMatrix
from coxvar.repvar import (AmbiguousNearThreshold, Lift, MixedBackends, OverlappingConstraint,
                           SliceDegenerate)

# the exact-path reports, byte for byte as the benchmark pins them
PINNED = Path(__file__).resolve().parent.parent / "perfbench" / "pinned"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_verify_hyp_table(capsys):
    code, out = run(capsys, "verify", "--geometry", "hyp", "--t", "1")
    assert code == 0
    assert "table_deviation" in out
    assert "FAIL" not in out


def test_verify_ads_midpoint(capsys):
    code, out = run(capsys, "verify", "--geometry", "ads", "--t", "0.5")
    assert code == 0
    res = float(out.splitlines()[2].split(": ")[1])
    assert res < 1e-12


def test_verify_ads_out_of_range(capsys):
    code, _ = run(capsys, "verify", "--geometry", "ads", "--t", "1")
    assert code == 2


def test_verify_hp_exact(capsys):
    code, out = run(capsys, "verify", "--geometry", "hp", "--t", "1")
    assert code == 0
    assert "relation_defect: 0" in out
    assert out == (PINNED / "verify-hp.txt").read_text()


@pytest.mark.parametrize("lam", ["5e18", "1e19", "1e155", "1e300"])
def test_verify_hp_large_lambda(capsys, lam):
    # lambda past 2**62 runs on Python ints (an AttributeError traceback at the parent)
    code, out = run(capsys, "verify", "--geometry", "hp", "--t", lam)
    assert code == 0
    assert "relation_defect: 0\n" in out


def test_verify_bad_flag(capsys):
    assert main(["verify", "--geometry", "nope"]) == 2
    assert main(["frobnicate"]) == 2


def test_trace_csv(capsys):
    code, out = run(capsys, "trace", "--geometry", "ads", "--system", "g0",
                    "--grid=-0.9:0.9:19")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[:3] == ["t", "geometry", "system"]
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 19
    assert all(r[5] == "11" for r in rows)


def test_trace_g_collapse(capsys):
    code, out = run(capsys, "trace", "--geometry", "hyp", "--system", "g", "--grid", "0")
    assert code == 0
    row = out.strip().splitlines()[-1].split(",")
    assert row[5] == "23"


def test_trace_empty_grid(capsys):
    code, out = run(capsys, "trace", "--geometry", "hyp", "--system", "g", "--grid",
                    "0:1:0")
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # comment + header only


def test_cohomology_targets(capsys):
    code, out = run(capsys, "cohomology", "--target", "r13")
    assert code == 0
    data = json.loads(out)
    assert (data["dimZ1"], data["dimB1"], data["dimH1"]) == (5, 4, 1)
    assert data["split"] is None
    assert out == (PINNED / "cohomology-r13.json").read_text()
    code, out = run(capsys, "cohomology", "--target", "so13")
    assert json.loads(out)["dimH1"] == 12
    assert out == (PINNED / "cohomology-so13.json").read_text()


@pytest.mark.parametrize("target", ["full-hyp", "full-ads", "full-hp"])
def test_cohomology_full_target(capsys, target):
    code, out = run(capsys, "cohomology", "--target", target)
    assert code == 0
    data = json.loads(out)
    assert data["dimH1"] == 13
    assert data["split"] == [12, 1]
    assert data["schema_version"] == 1
    pinned = PINNED / f"cohomology-{target}.json"  # full-hyp has no pinned file
    assert not pinned.exists() or out == pinned.read_text()


def test_cusp_base_only(capsys):
    code, out = run(capsys, "cusp", "--geometry", "ads", "--group", "cube4", "--t", "0.4")
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[1] == "cusp"


def test_cusp_hp_cube_large_lambda(capsys):
    # rho_lambda is rho_1 rescaled (an exit 2 commutation error at the parent)
    code, out = run(capsys, "cusp", "--geometry", "hp", "--group", "cube4", "--lam", "1e8")
    assert code == 0
    assert out.splitlines()[-1] == "-1,cusp,0,0"


def test_cusp_experiment(capsys, tmp_path):
    summary = tmp_path / "sum.json"
    code, out = run(capsys, "cusp", "--geometry", "hyp", "--group", "rect3",
                    "--experiment", "--trials", "25", "--seed", "9",
                    "--summary", str(summary))
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[2:]]
    assert len(rows) == 25
    data = json.loads(summary.read_text())
    assert sum(data["histogram"].values()) == 25
    assert set(data["histogram"]) <= {"cusp", "rect_split"}
    # byte-identical reruns
    code2, out2 = run(capsys, "cusp", "--geometry", "hyp", "--group", "rect3",
                      "--experiment", "--trials", "25", "--seed", "9",
                      "--summary", str(summary))
    assert out2 == out


def test_gram_census(capsys):
    code, out = run(capsys, "gram", "--geometry", "hyp", "--t", "0.5")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[2:]]
    offdiag = [r for r in rows if r[0] != r[1]]
    assert len([r for r in offdiag if r[3] == "orthogonal"]) == 80
    assert len([r for r in offdiag if r[3] == "tangent_at_infinity"]) == 36
    assert len(rows) == 22 * 23 // 2


@pytest.mark.parametrize("geometry,t,expected", [
    ("ads", "0.999999", 0),        # residual 3.5e-10
    ("ads", "0.9999999", 3),       # residual 2.8e-9, above the 1e-9 label tolerance
    ("hyp", "0.9999999999", 0),    # the hyperbolic lift stays on the variety
])
def test_gram_refuses_lift_off_the_variety(capsys, geometry, t, expected):
    code = main(["gram", "--geometry", geometry, f"--t={t}"])
    captured = capsys.readouterr()
    assert code == expected
    if expected:
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ")
        assert "label tolerance" in captured.err


def test_user_group_and_lift(capsys, tmp_path):
    racg = gamma_rect()
    base = base_rect_hyp()
    lift = Lift(QuadraticSpace.hyperbolic(3), racg.generators, np.array(base),
                {n: 1 for n in racg.generators})
    gf = tmp_path / "group.json"
    lf = tmp_path / "lift.json"
    gf.write_text(racg.to_json())
    lf.write_text(lift.to_json())
    code, out = run(capsys, "verify", "--geometry", "hyp",
                    "--group-file", str(gf), "--lift-file", str(lf))
    assert code == 0
    assert "4 generators" in out
    lf.write_text("{not json")
    assert main(["verify", "--geometry", "hyp", "--group-file", str(gf),
                 "--lift-file", str(lf)]) == 2


def test_verify_mixed_backend_lift(capsys, tmp_path):
    # one decimal vector among exact ones is bad input, not a failed verification
    racg = gamma_rect()
    exact = PairMatrix.of(np.array(base_rect_hyp(), dtype=int))
    lift = Lift(QuadraticSpace.hyperbolic(3), racg.generators, exact,
                {n: 1 for n in racg.generators})
    data = json.loads(lift.to_json())
    data["vectors"]["s1"] = ["0.0", "0.0", "1.0", "0.0"]
    gf = tmp_path / "group.json"
    lf = tmp_path / "lift.json"
    gf.write_text(racg.to_json())
    lf.write_text(json.dumps(data))
    code = main(["verify", "--geometry", "hyp", "--group-file", str(gf), "--lift-file", str(lf)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_verify_failure_exit_code(capsys, tmp_path):
    # a lift violating its own norm targets must fail verification
    racg = gamma_rect()
    base = base_rect_hyp()
    broken = [2.0 * v for v in base]  # doubles every norm
    lift = Lift(QuadraticSpace.hyperbolic(3), racg.generators, np.array(broken),
                {n: 1 for n in racg.generators})
    gf = tmp_path / "group.json"
    lf = tmp_path / "lift.json"
    gf.write_text(racg.to_json())
    lf.write_text(lift.to_json())
    code, out = run(capsys, "verify", "--geometry", "hyp",
                    "--group-file", str(gf), "--lift-file", str(lf))
    assert code == 1


def test_trace_numerical_failure_exit_code(capsys):
    # a rank tolerance inside the continuous spectrum has no gap: exit 3
    code, _ = run(capsys, "trace", "--geometry", "hyp", "--system", "g0",
                  "--grid", "0.4", "--rank-tol", "0.2")
    assert code == 3


@pytest.mark.parametrize("system", ["g", "g0"])
def test_trace_rank_cut_above_rounding_floor(capsys, system):
    # near the AdS end the gap check alone accepted a kernel of 20 (exit 0)
    code = main(["trace", "--geometry", "ads", "--system", system, "--grid", "0.9999999"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "rounding floor" in captured.err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code = main(["trace", "--geometry", "hyp", "--system", "g", "--grid", "0.5",
                 "--output", str(target)])
    assert code == 0
    assert target.read_text().strip().splitlines()[-1].split(",")[5] == "11"


def _single_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    return code, err


_GROUP = {"generators": ["a", "b"], "commuting_pairs": [[0, 1]]}
_LIFT = {"signature": [-1, 1, 1], "norm_targets": {"a": 1, "b": 1},
         "vectors": {"a": ["0", "1", "0"], "b": ["0", "0", "1"]}}


@pytest.mark.parametrize("group, lift", [
    ({**_GROUP, "commuting_pairs": [[0, 0]]}, _LIFT),              # IndexOutOfRange at the parent
    (_GROUP, {**_LIFT, "norm_targets": {"a": 1}}),                 # KeyError at the parent
    ({**_GROUP, "generators": ["x", "y"]}, _LIFT),                 # DimensionMismatch at the parent
    (_GROUP, {**_LIFT, "vectors": {**_LIFT["vectors"], "b": ["0", "0"]}}),  # one entry short
    ({**_GROUP, "generators": "ab"}, _LIFT),                        # not the names "a", "b"
    ({**_GROUP, "commuting_pairs": [[True, 0]]}, _LIFT),            # not the pair (0, 1)
    (_GROUP, {**_LIFT, "norm_targets": {"a": True, "b": 1}}),       # not the target +1
    (_GROUP, {**_LIFT, "vectors": {"a": "010", "b": "001"}}),       # not the rows of _LIFT
    (_GROUP, {**_LIFT, "signature": [-1, True, 1]}),                # not the entry +1
    (_GROUP, {**_LIFT, "norm_targets": [["a", 1], ["b", 1]],        # not JSON objects
              "vectors": [["a", ["0", "1", "0"]], ["b", ["0", "0", "1"]]]}),
    # an exact entry with a doubled sign, a trailing sign, or a '*' with no coefficient
    (_GROUP, {**_LIFT, "vectors": {**_LIFT["vectors"], "a": ["0", "--1", "0"]}}),
    (_GROUP, {**_LIFT, "vectors": {**_LIFT["vectors"], "a": ["0", "1+", "0"]}}),
    (_GROUP, {**_LIFT, "vectors": {**_LIFT["vectors"], "a": ["0", "*sqrt2", "0"]}}),
    # a decimal table with one entry that is not finite
    (_GROUP, {**_LIFT, "vectors": {"a": ["nan", "1.0", "0"], "b": ["0.0", "0.0", "1.0"]}}),
    (_GROUP, {**_LIFT, "vectors": {"a": ["inf", "1.0", "0"], "b": ["0.0", "0.0", "1.0"]}}),
    (_GROUP, {**_LIFT, "vectors": {"a": ["1e400", "1.0", "0"], "b": ["0.0", "0.0", "1.0"]}}),
], ids=["pair-0-0", "missing-norm-target", "names-differ", "ragged-row", "generators-string",
        "pair-bool", "norm-target-bool", "row-string", "signature-bool", "pairs-list",
        "entry-double-sign", "entry-trailing-sign", "entry-bare-star",
        "entry-nan", "entry-inf", "entry-overflow"])
def test_user_group_and_lift_bad_input(capsys, tmp_path, group, lift):
    gf = tmp_path / "group.json"
    lf = tmp_path / "lift.json"
    gf.write_text(json.dumps(group))
    lf.write_text(json.dumps(lift))
    code, err = _single_error(capsys, ["verify", "--geometry", "hyp", "--group-file", str(gf),
                                       "--lift-file", str(lf)])
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:")
    # the same files with the defect removed verify cleanly
    gf.write_text(json.dumps(_GROUP))
    lf.write_text(json.dumps(_LIFT))
    assert main(["verify", "--geometry", "hyp", "--group-file", str(gf),
                 "--lift-file", str(lf)]) == 0


def _pell_past(bound):
    """The first (x, y) with x^2 - 2 y^2 = 1 and x > bound."""
    x, y = 3, 2
    while x <= bound:
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    return x, y


@pytest.mark.parametrize("x, y", [(4478554083, 3166815962), _pell_past(10**400)],
                         ids=["10-digits", "past-1e400"])
def test_verify_exact_lift_is_decided_exactly(capsys, tmp_path, x, y):
    # q(a) = x^2 - 2 y^2 = 1 exactly and b(a, b) = 0, so every relation holds; the
    # float view of a rounds q(a) to 0 (10 digits) or overflows (past 1e400)
    assert x * x - 2 * y * y == 1
    gf = tmp_path / "group.json"
    lf = tmp_path / "lift.json"
    gf.write_text(json.dumps(_GROUP))
    lf.write_text(json.dumps({**_LIFT, "vectors": {"a": [f"{y}*sqrt2", str(x), "0"],
                                                   "b": ["0", "0", "1"]}}))
    code, out = run(capsys, "verify", "--geometry", "hyp", "--group-file", str(gf),
                    "--lift-file", str(lf))
    assert code == 0
    assert out.splitlines()[1:] == ["residual_max: 0", "relation_defect: 0"]


def test_cusp_lift_without_cusp_subgroup(capsys):
    # near the AdS end the cube4 family has no cusp subgroup left: bad input
    code, err = _single_error(capsys, ["cusp", "--geometry", "ads", "--group", "cube4",
                                       "--t", "0.999999999"])
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "has no cusp subgroup" in err[0]


@pytest.mark.parametrize("vectors", [
    {"a": ["1e100", "1e100", "1.0", "0.0"], "b": ["0.0", "0.0", "0.0", "1.0"]},  # m @ m overflows
    {"a": ["1e308", "0.0", "1.0", "0.0"], "b": ["0.0", "0.0", "0.0", "1.0"]},    # q(a) overflows
], ids=["1e100", "1e308"])
def test_verify_non_finite_lift(capsys, tmp_path, vectors):
    # non-finite residuals or defects fail verification without numpy warnings
    gf = tmp_path / "group.json"
    lf = tmp_path / "lift.json"
    gf.write_text(json.dumps(_GROUP))
    lf.write_text(json.dumps({"signature": [-1, 1, 1, 1], "norm_targets": {"a": 1, "b": 1},
                              "vectors": vectors}))
    code = main(["verify", "--geometry", "hyp", "--group-file", str(gf), "--lift-file", str(lf)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "FAIL square:a" in captured.out


_NAMES = st.sampled_from("abc")
_SCALARS = st.sampled_from(["0", "1", "-1", "1/2", "sqrt2", "1-sqrt2", "0.5", "-2.0", "x", "", "1/0"])


@st.composite
def _group_and_lift(draw):
    names = draw(st.lists(_NAMES, max_size=3))
    group = {"generators": names,
             "commuting_pairs": draw(st.lists(st.lists(st.integers(-1, 3), min_size=1,
                                                       max_size=3), max_size=3))}
    dim = draw(st.integers(0, 3))
    lift_names = draw(st.lists(_NAMES, max_size=3, unique=True))
    lift = {"signature": draw(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=dim,
                                       max_size=dim)),
            "norm_targets": {n: draw(st.sampled_from([1, -1, 0, "1"])) for n in
                             draw(st.lists(_NAMES, max_size=3, unique=True))},
            "vectors": {n: draw(st.lists(_SCALARS, min_size=max(dim - 1, 0), max_size=dim + 1))
                        for n in lift_names}}
    junk = st.sampled_from([[], 5, "x", {}, {"generators": 5}, {"vectors": [1]}])
    return (draw(st.one_of(st.just(group), junk)), draw(st.one_of(st.just(lift), junk)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_group_and_lift())
def test_user_group_and_lift_fuzz(files):
    # any JSON a user can write gives a documented exit code, never a traceback
    group, lift = files
    with tempfile.TemporaryDirectory() as tmp:
        gf = Path(tmp) / "group.json"
        lf = Path(tmp) / "lift.json"
        gf.write_text(json.dumps(group))
        lf.write_text(json.dumps(lift))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "--geometry", "hyp", "--group-file", str(gf),
                         "--lift-file", str(lf)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["verify", "--geometry", "hyp", "--t", "1e200"],                 # DegenerateNormal at the parent
    ["cusp", "--geometry", "hyp", "--group", "cube4", "--t", "1e200"],  # IndexError at the parent
    ["trace", "--geometry", "hyp", "--grid", "0:1e200:3"],           # exit 0, rows off the variety
])
def test_out_of_range_parameter(capsys, argv):
    code, err = _single_error(capsys, argv)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["cusp", "--geometry", "hyp", "--group", "rect3", "--experiment", "--trials", "-1"],
    ["cusp", "--geometry", "hyp", "--group", "rect3", "--experiment", "--trials", "0"],
    ["verify", "--geometry", "hp", "--t", "nan"],
    ["verify", "--geometry", "hyp", "--t", "inf"],
    ["verify", "--geometry", "hyp", "--tol", "nan"],
    ["cusp", "--geometry", "hp", "--group", "cube4", "--lam", "nan"],
    ["cusp", "--geometry", "hyp", "--group", "rect3", "--experiment", "--noise", "inf"],
    ["trace", "--geometry", "hyp", "--grid", "nan,0.5"],
    ["cusp", "--geometry", "hyp", "--group", "rect3", "--experiment", "--noise", "-1"],
    ["trace", "--geometry", "hyp", "--grid", "0:1:1000000000000"],
    ["trace", "--geometry", "hyp", "--grid", "0.5", "--rank-tol", "0"],  # kernel 0 at the parent
    ["trace", "--geometry", "hyp", "--grid", "0.5", "--rank-tol", "-1"],
    ["trace", "--geometry", "hyp", "--grid", "0.5", "--rank-tol", "1"],
    ["verify", "--geometry", "hyp", "--tol", "-1"],                  # exit 1 at the parent
    ["cusp", "--geometry", "hyp", "--group", "rect3", "--class-tol", "-1"],  # PatternViolation
])
def test_bad_arguments_rejected(capsys, argv):
    # nan/inf are refused before any computation; --trials below 1 only with --experiment
    code, err = _single_error(capsys, argv)
    assert code == 2
    assert any("error:" in line for line in err)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("geometry, group", [("hyp", "rect3"), ("ads", "cube4"), ("hp", "cube4")])
def test_linalg_error_is_numerical_failure(capfd, geometry, group):
    # perturbations of size 1e300 overflow the residual: a numerical failure
    # (exit 3), not bad input, although LinAlgError is a ValueError; capfd also
    # sees what LAPACK would print on fd 1 if it were handed the non-finite system
    code = main(["cusp", "--geometry", geometry, "--group", group, "--experiment",
                 "--trials", "3", "--noise", "1e300"])
    out, err = capfd.readouterr()
    assert code == 3
    assert err.splitlines() == [
        "numerical failure: non-finite residual nan after 0 Gauss-Newton steps"]
    assert "DLASCL" not in out


@pytest.mark.parametrize("option, code, err", [
    (["--seed", "-1"], 2, "error: expected non-negative integer"),
    (["--noise", "1e308"], 3, "numerical failure: high - low range exceeds valid bounds"),
    (["--trials", "4294967297"], 2, "error: trials must be at most 2**32, got 4294967297"),
])
def test_cusp_experiment_arguments_checked_up_front(monkeypatch, capsys, option, code, err):
    # the exit codes numpy's errors gave from the first stack of trials, before any trial runs
    def refuse(*args):
        raise AssertionError("a trial ran before the arguments were checked")

    monkeypatch.setattr(cli.cuspmod, "gauss_newton", refuse)
    code_got, err_got = _single_error(capsys, ["cusp", "--geometry", "hyp", "--group", "rect3",
                                               "--experiment", *option])
    assert (code_got, err_got) == (code, [err])
    assert capsys.readouterr().out == ""


def test_cusp_experiment_does_not_load_numpy_random(tmp_path):
    # the trial noise is drawn without numpy.random, which costs a fresh
    # process about 15 ms and 6.5 MB to load
    script = ("import json, sys; sys.path[:0] = sys.argv[1:2]; from coxvar import cli; "
              "codes = [cli.main(['cusp', '--geometry', g, '--group', k, '--experiment', "
              "'--trials', '5', '--output', sys.argv[2]]) "
              "for g, k in (('hyp', 'rect3'), ('hp', 'cube4'))]; "
              "print(json.dumps([codes, sorted(m for m in sys.modules if 'numpy.random' in m)]))")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-B", "-c", script, str(src), str(tmp_path / "out.csv")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0, 0], []]


@pytest.mark.parametrize("exc, code", [(OverlappingConstraint, 2), (AmbiguousNearThreshold, 2),
                                       (MixedBackends, 2), (SliceDegenerate, 3)])
def test_repvar_errors_exit_with_documented_code(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc("raised by the command")

    monkeypatch.setattr(cli, "cmd_gram", fail)
    assert main(["gram", "--geometry", "hyp"]) == code
    prefix = "numerical failure" if code == 3 else "error"
    assert capsys.readouterr().err == f"{prefix}: raised by the command\n"


_NUMBERS = st.sampled_from(["0", "0.5", "-0.5", "1", "-1", "0.99", "2", "1e-300", "1e200",
                            "-1e200", "5e18", "nan", "inf", "x", ""])
_GRIDS = st.one_of(
    st.lists(_NUMBERS, max_size=3).map(",".join),
    st.tuples(_NUMBERS, _NUMBERS, st.sampled_from(["-1", "0", "1", "2", "3", "x"]))
    .map(":".join),
    st.sampled_from(["1:2", "::", ",", "0:1:2:3"]))


_COMMANDS = {
    # (option, values, required): required options are always given, mostly valid
    "verify": [("--geometry", st.sampled_from(["hyp", "ads", "hp", "x"]), True),
               ("--t", _NUMBERS, False), ("--tol", _NUMBERS, False),
               ("--group-file", st.just("missing.json"), False),
               ("--lift-file", st.just("missing.json"), False)],
    "trace": [("--geometry", st.sampled_from(["hyp", "ads", "hp"]), True),
              ("--system", st.sampled_from(["g", "g0", "x"]), False),
              ("--grid", _GRIDS, True), ("--rank-tol", _NUMBERS, False)],
    "cohomology": [("--target", st.sampled_from(["r13", "r13", "full"]), True)],
    "cusp": [("--geometry", st.sampled_from(["hyp", "ads", "hp"]), True),
             ("--group", st.sampled_from(["rect3", "cube4", "x"]), True),
             ("--t", _NUMBERS, False), ("--lam", _NUMBERS, False),
             ("--experiment", st.just(None), False),
             ("--trials", st.sampled_from(["-1", "0", "1", "5", "x"]), False),
             ("--noise", _NUMBERS, False),
             ("--seed", st.sampled_from(["0", "7", "-1", "x"]), False),
             ("--class-tol", _NUMBERS, False)],
    "gram": [("--geometry", st.sampled_from(["hyp", "ads", "x"]), True), ("--t", _NUMBERS, False)],
    "nope": [],
}


@st.composite
def _argv(draw):
    """A subcommand with its required options and a random subset of the others."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for name, values, required in _COMMANDS[command]:
        if required or draw(st.booleans()):
            value = draw(values)
            argv += [name] if value is None else [name, value]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_argv_fuzz(argv):
    # every argv gives a documented exit code, never a traceback; output goes to a file
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--output", str(Path(tmp) / "out.txt")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
