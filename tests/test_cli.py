import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxvar.cli import main
from coxvar.coxeter import gamma_rect
from coxvar.cusp import base_rect_hyp
from coxvar.geometry import QuadraticSpace
from coxvar.repvar import Lift

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


def test_user_group_and_lift(capsys, tmp_path):
    racg = gamma_rect()
    base = base_rect_hyp()
    lift = Lift(QuadraticSpace.hyperbolic(3), racg.generators,
                {n: v for n, v in zip(racg.generators, base)},
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
    lift = Lift(QuadraticSpace.hyperbolic(3), racg.generators,
                dict(zip(racg.generators, base_rect_hyp())), {n: 1 for n in racg.generators})
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
    lift = Lift(QuadraticSpace.hyperbolic(3), racg.generators,
                {n: v for n, v in zip(racg.generators, broken)},
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
], ids=["pair-0-0", "missing-norm-target", "names-differ"])
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
    assert "numerical failure:" in err and "error:" not in err
    assert "DLASCL" not in out


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
