#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and failure counting.

    python3 perfbench/selftest.py

Run from the repository root (about a minute). Every workload runs at a tiny
scale whose digests are pinned in perfbench/digests.json, and must:

1. pass a fault-free end-to-end run and a traced run, printing every metric
   of BENCHMARK.json by name with its unit and `failed_frac = 0`;
2. report a non-zero failed_frac and exit non-zero under
   `JETTY_FAULT=suite-fail@<suite id>`;
3. exit non-zero with a non-zero failed_frac against a pin file in which
   one digest was altered.

Finally the command must exit non-zero, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out" / "selftest"
SCALE = "0.01"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def run(args, env=None, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "0", "--seconds", "1"]
    proc = subprocess.run(cmd + args, capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, **(env or {})), timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    pins = json.loads((BENCH / "digests.json").read_text())
    for w in [w["name"] for w in SPEC["workloads"]]:
        common = ["--workload", w, "--scale", SCALE]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc, result = run(common + ["--trace", trace])
            expect(proc.returncode == 0 and result and result["correct"] and result["failed"] == 0,
                   f"{w} trace={trace}: fault-free run is correct")
            missing = [m["name"] for m in SPEC[key] if not re.search(
                rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b", proc.stdout, re.M)]
            expect("failed_frac = 0 " in proc.stdout and not missing,
                   f"{w} trace={trace}: prints every {key} metric and unit {missing or ''}")

        suite_id = sorted(pins[w][SCALE]["suites"])[0]
        proc, result = run(common + ["--trace", "0"], env={"JETTY_FAULT": f"suite-fail@{suite_id}"})
        expect(proc.returncode != 0 and result and result["failed"] > 0 and not result["correct"],
               f"{w}: suite-fail@{suite_id} gives a non-zero failed_frac and exit code")

        altered = json.loads(json.dumps(pins))
        digest = altered[w][SCALE]["suites"][suite_id]
        altered[w][SCALE]["suites"][suite_id] = ("0" if digest[0] != "0" else "1") + digest[1:]
        path = OUT / "altered-digests.json"
        path.write_text(json.dumps(altered))
        proc, result = run(common + ["--trace", "0", "--digests", str(path)])
        expect(proc.returncode != 0 and result and result["failed"] > 0,
               f"{w}: an altered pinned digest fails the check")

    isolated = OUT / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    isolated.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", isolated)
    shutil.copytree(BENCH, isolated / "perfbench", ignore=shutil.ignore_patterns("target"))
    proc, result = run(["--workload", SPEC["workloads"][0]["name"], "--trace", "0"],
                       env={"CARGO_TARGET_DIR": ".bench_build"}, cwd=isolated)
    expect(proc.returncode != 0 and result is None,
           "without the repository sources the command fails without a result")
    shutil.rmtree(isolated, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
