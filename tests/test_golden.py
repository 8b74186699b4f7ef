"""CLI reports compared byte for byte with the files in tests/golden/.

Every report here is deterministic (seeded experiments, fixed grids),
so any change in its bytes is a change in behaviour.  When a change is
meant, regenerate the files from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ like any other change.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from coxvar.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cases():
    """(stem, argv, summary): argv without --output; summary: also write --summary."""
    for geometry in ("hyp", "ads"):
        yield f"gram-{geometry}", ["gram", "--geometry", geometry, "--t", "0.5"], False
    for geometry in ("hyp", "ads"):
        for system in ("g", "g0"):
            yield (f"trace-{geometry}-{system}",
                   ["trace", "--geometry", geometry, "--system", system, "--grid=-0.9:0.9:19"],
                   False)
    for geometry, t in (("hyp", "1"), ("ads", "0.5"), ("hp", "0.5")):
        yield f"verify-{geometry}", ["verify", "--geometry", geometry, "--t", t], False
    for geometry in ("hyp", "ads", "hp"):
        for group in ("rect3", "cube4"):
            yield (f"cusp-{geometry}-{group}",
                   ["cusp", "--geometry", geometry, "--group", group, "--experiment",
                    "--trials", "200", "--seed", "7"], True)


CASES = {stem: (argv, summary) for stem, argv, summary in _cases()}


def reports(stem):
    """{file name: text} of one case: the report, and its JSON summary if any."""
    argv, summary = CASES[stem]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        extra = ["--output", str(out)]
        if summary:
            extra += ["--summary", str(Path(tmp) / "summary")]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + extra)
        assert code == 0, f"{stem}: exit {code}"
        ext = "txt" if argv[0] == "verify" else "csv"
        files = {f"{stem}.{ext}": out.read_text()}
        if summary:
            files[f"{stem}.summary.json"] = (Path(tmp) / "summary").read_text()
    return files


@pytest.mark.parametrize("stem", sorted(CASES))
def test_report_matches_golden(stem):
    for name, text in reports(stem).items():
        assert text == (GOLDEN / name).read_text(), f"{name} differs from tests/golden"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem in CASES:
        for name, text in reports(stem).items():
            (GOLDEN / name).write_text(text)
            print(name, file=sys.stderr)
