"""CLI reports compared byte for byte with the files in tests/golden/.

Every report here is deterministic (seeded experiments, fixed grids),
so any change in its bytes is a change in behaviour.  Each case also
pins its exit code and its stderr: ``<stem>.status`` holds the line
``exit <code>`` followed by everything the command wrote to stderr.
When a change is meant, regenerate the files from the repository root
with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ like any other change.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from coxvar.cli import main
from coxvar.coxeter import gamma22
from coxvar.repvar import table_lift_exact

GOLDEN = Path(__file__).resolve().parent / "golden"
# inputs of the user-lift cases: gamma22().to_json(), table_lift_exact().to_json()
# and that lift with the first coordinate of 0+ changed from 1 to 1+sqrt2
INPUTS = GOLDEN / "inputs"


def _cases():
    """(stem, argv, summary): argv without --output; summary: also write --summary."""
    for geometry in ("hyp", "ads"):
        yield f"gram-{geometry}", ["gram", "--geometry", geometry, "--t", "0.5"], False
        # the collapse: 28 coinciding pairs take the error-label path
        yield f"gram-{geometry}-t0", ["gram", "--geometry", geometry, "--t", "0"], False
    # the AdS lift near t = 1 is off the variety by more than the label tolerance
    yield "gram-ads-t0.9999999999", ["gram", "--geometry", "ads", "--t=0.9999999999"], False
    for geometry in ("hyp", "ads"):
        for system in ("g", "g0"):
            yield (f"trace-{geometry}-{system}",
                   ["trace", "--geometry", geometry, "--system", system, "--grid=-0.9:0.9:19"],
                   False)
    for geometry, t in (("hyp", "1"), ("ads", "0.5"), ("hp", "0.5")):
        yield f"verify-{geometry}", ["verify", "--geometry", geometry, "--t", t], False
    for geometry, t in (("hyp", "0.5"), ("hyp", "-0.3"), ("hyp", "0"), ("ads", "-0.3"),
                        ("ads", "0"), ("hp", "1"), ("hp", "1.5e308")):
        yield f"verify-{geometry}-t{t}", ["verify", "--geometry", geometry, f"--t={t}"], False
    for geometry in ("hyp", "ads", "hp"):
        for group in ("rect3", "cube4"):
            yield (f"cusp-{geometry}-{group}",
                   ["cusp", "--geometry", geometry, "--group", group, "--experiment",
                    "--trials", "200", "--seed", "7"], True)
        for t in ("0.4", "-0.7"):
            yield (f"cusp-{geometry}-cube4-t{t}",
                   ["cusp", "--geometry", geometry, "--group", "cube4", f"--t={t}"], True)
    yield ("cusp-hp-cube4-lam0",
           ["cusp", "--geometry", "hp", "--group", "cube4", "--lam", "0"], True)
    yield "cohomology-full-hyp", ["cohomology", "--target", "full-hyp"], False
    # exact user lifts: the residual is computed exactly, 0 on the table lift
    for stem, lift in (("verify-user-table-exact", "lift-table-exact.json"),
                       ("verify-user-table-exact-broken", "lift-table-exact-broken.json")):
        yield stem, ["verify", "--geometry", "hyp",
                     "--group-file", str(INPUTS / "gamma22.group.json"),
                     "--lift-file", str(INPUTS / lift)], False


CASES = {stem: (argv, summary) for stem, argv, summary in _cases()}


def _names(stem):
    """The file names a case may write: report, JSON summary, status."""
    ext = {"verify": "txt", "cohomology": "json"}.get(CASES[stem][0][0], "csv")
    return f"{stem}.{ext}", f"{stem}.summary.json", f"{stem}.status"


def reports(stem):
    """{file name: text} of one case: the report and JSON summary when written, and the status."""
    argv, summary = CASES[stem]
    report, summary_name, status = _names(stem)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        extra = ["--output", str(out)]
        if summary:
            extra += ["--summary", str(Path(tmp) / "summary")]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv + extra)
        files = {status: f"exit {code}\n{stderr.getvalue()}"}
        for name, path in ((report, out), (summary_name, Path(tmp) / "summary")):
            if path.exists():
                files[name] = path.read_text()
    return files


@pytest.mark.parametrize("stem", sorted(CASES))
def test_report_matches_golden(stem):
    files = reports(stem)
    for name in _names(stem):
        assert (name in files) == (GOLDEN / name).exists(), f"{name}: written iff in tests/golden"
    for name, text in files.items():
        assert text == (GOLDEN / name).read_text(), f"{name} differs from tests/golden"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_trace_reports_independent_of_blas_threads(threads):
    # the trace cases in a fresh interpreter whose OpenBLAS starts with the given count
    stems = [stem for stem in sorted(CASES) if stem.startswith("trace-")]
    script = ("import json, sys; sys.path[:0] = sys.argv[1:3]; from test_golden import reports; "
              "print(json.dumps({s: reports(s) for s in sys.argv[3:]}))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, "-B", "-c", script, str(GOLDEN.parent),
                           str(GOLDEN.parent.parent / "src"), *stems],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert len(out) == 4
    for stem, files in out.items():
        assert files == {name: (GOLDEN / name).read_text() for name in _names(stem)
                         if (GOLDEN / name).exists()}, stem


def cohomology_reports():
    """{target: the report that cohomology --target prints} for all five targets."""
    out = {}
    for target in ("r13", "so13", "full-hyp", "full-ads", "full-hp"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["cohomology", "--target", target]) == 0
        out[target] = stdout.getvalue()
    return out


def test_cohomology_reports_independent_of_blas_threads():
    # exact products below 2**53 run on float64 BLAS: one fresh interpreter per
    # OpenBLAS thread count, and the same bytes from both
    script = ("import json, sys; sys.path[:0] = sys.argv[1:3]; "
              "from test_golden import cohomology_reports; print(json.dumps(cohomology_reports()))")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-B", "-c", script, str(GOLDEN.parent),
                               str(GOLDEN.parent.parent / "src")],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["full-hyp"] == (GOLDEN / "cohomology-full-hyp.json").read_text()


def test_user_lift_in_any_row_order(tmp_path):
    # the same lift with its vectors listed in reverse: the images still go to
    # the generators they belong to, so the report is unchanged
    data = json.loads((INPUTS / "lift-table-exact.json").read_text())
    data["vectors"] = dict(reversed(list(data["vectors"].items())))
    lift = tmp_path / "lift.json"
    lift.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--geometry", "hyp", "--group-file",
                     str(INPUTS / "gamma22.group.json"), "--lift-file", str(lift)])
    assert f"exit {code}\n" == (GOLDEN / "verify-user-table-exact.status").read_text()
    assert out.getvalue() == (GOLDEN / "verify-user-table-exact.txt").read_text()


def test_user_lift_inputs_are_current():
    assert (INPUTS / "gamma22.group.json").read_text() == gamma22().to_json() + "\n"
    assert (INPUTS / "lift-table-exact.json").read_text() == table_lift_exact().to_json() + "\n"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem in CASES:
        for name, text in reports(stem).items():
            (GOLDEN / name).write_text(text)
            print(name, file=sys.stderr)
