"""Self-test of the benchmark: every metric is emitted and a wrong pin fails.

    python3 perfbench/selftest.py

Runs each workload once (one pass) with ``--trace 0`` and ``--trace 1``
and checks that the last output line names exactly the metrics
BENCHMARK.json lists and that no job failed.  Then it reruns each
workload with one pinned value deliberately wrong and checks that the
command exits nonzero with ``failed`` above zero.  Takes a few
minutes, most of it the exact cohomology passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One deliberately wrong pin per workload, applied before run.main().
WRONG_PINS = {
    "exact_cohomology": "workloads.PINNED_OUTPUT['r13'] = "
                        "workloads.PINNED_OUTPUT['r13'].replace('\"dimH1\": 1', '\"dimH1\": 2')",
    "variety_scan": "workloads.KERNEL_DIM = 12",
    "rigidity_trials": "workloads.EXPECTED_CLASSES[('hyp', 'cube')] = {'rect_split'}",
}


def bench(workload, trace, wrong_pin=None):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if wrong_pin is None:
        cmd = [sys.executable, str(HERE / "run.py"), *args]
    else:
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run, workloads; "
                f"{wrong_pin}; sys.exit(run.main(sys.argv[1:]))")
        cmd = [sys.executable, "-c", code, *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    problems = []
    for w in spec["workloads"]:
        if WORKLOADS[w["name"]].why != w["why"]:
            problems.append(f"{w['name']}: 'why' differs between BENCHMARK.json and workloads.py")
    for w in spec["workloads"]:
        name = w["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, proc = bench(name, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            ok = code == 0 and result and result["correct"] and result["failed"] == 0 \
                and got == want
            print(f"{'ok  ' if ok else 'FAIL'} {name} --trace {trace}: exit {code}, "
                  f"{len(got)} of {len(want)} metrics", flush=True)
            if not ok:
                problems.append(f"{name} --trace {trace}: exit {code}, metrics {sorted(got)}"
                                f"\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        code, result, proc = bench(name, 0, WRONG_PINS[name])
        ok = code != 0 and result is not None and result["failed"] > 0 and not result["correct"]
        print(f"{'ok  ' if ok else 'FAIL'} {name} with a wrong pin: exit {code}, "
              f"failed {result and result['failed']} of {result and result['attempted']}",
              flush=True)
        if not ok:
            problems.append(f"{name}: a wrong pin did not fail the run\n{proc.stdout[-2000:]}")
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
