#!/usr/bin/env python3
"""Benchmark runner for the JETTY reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package with the
repository's own release profile, then:

* `--trace 0`: runs closed batches (one `perfbench batch` process each)
  until `--seconds` have passed and reports every end-to-end metric in
  BENCHMARK.json: the fastest batch for the batch times, the median for
  set-up time and memory;
* `--trace 1`: runs one `perfbench trace` pass and reports every per-layer
  metric in BENCHMARK.json, writing the recorded spans to `.bench_out/`.

Every suite digest and the rendered-output digest are checked against
`perfbench/digests.json`; a mismatch or a failed suite counts as failed
and makes the command exit 1. The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

Extra flags: `--scale X` overrides the workload's trace scale (digests
must be pinned for it), `--digests PATH` checks against another pin file,
and `--pin` records the current digests into the pin file instead of
checking them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
# Every process must end within this many seconds of the command starting.
DEADLINE_S = 170
# Untimed batches first: on a shared 2-vCPU VM the first batches after an
# idle period ran up to 3x slower than steady state.
WARMUP_S = 5
# Batch times are reported as the fastest batch of the run. The host's
# speed drifts by 15% and more within a run and slows a batch, never speeds
# it up, so the run median moved with the host (interquartile spread of ten
# run medians up to 0.36) while the fastest batch stayed put. Set-up time
# and memory stay medians.
BEST_OF = {"wall_s": (min, "fastest"), "mrefs_per_s": (max, "fastest"),
           "cpu_s": (min, "least")}


def fmt(v):
    return str(int(v)) if float(v).is_integer() else f"{v:.6g}"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def toml_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return str(v)
    return json.dumps(str(v))


def build():
    """Builds perfbench with the repository's [profile.release]; returns the binary."""
    overrides = []
    manifest = ROOT / "Cargo.toml"
    if manifest.is_file():
        profile = tomllib.loads(manifest.read_text()).get("profile", {}).get("release", {})
        for key, value in profile.items():
            if not isinstance(value, dict):
                overrides += ["--config", f"profile.release.{key}={toml_value(value)}"]
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")] + overrides
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    if result.returncode != 0:
        raise SystemExit(f"error: building perfbench failed (exit {result.returncode})")
    return target / "release" / "perfbench"


def git_rev():
    """The checkout's short git revision, or `unknown` outside a git repository."""
    proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def run_binary(binary, args, deadline, env):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("error: out of time before the next perfbench process")
    proc = subprocess.run([str(binary)] + args, capture_output=True, text=True, timeout=timeout,
                          env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: perfbench {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(result, pins):
    """Compares suite and render digests with the pins.

    Returns (attempted, failed, problems): every suite plus the rendered
    result set is one attempted output; an error or a digest mismatch fails it.
    """
    problems = []
    for suite in result["suites"]:
        if "error" in suite:
            problems.append(f"suite {suite['id']} failed: {suite['error']}")
        elif pins.get("suites", {}).get(suite["id"]) != suite["digest"]:
            problems.append(f"suite {suite['id']} digest {suite['digest']} != pinned "
                            f"{pins.get('suites', {}).get(suite['id'])}")
    if pins.get("render") != result["render_digest"]:
        problems.append(f"rendered output digest {result['render_digest']} != pinned "
                        f"{pins.get('render')}")
    return len(result["suites"]) + 1, len(problems), problems


def pin(path, workload, scale, result):
    data = json.loads(path.read_text()) if path.is_file() else {}
    data.setdefault(workload, {})[scale] = {
        "suites": {s["id"]: s["digest"] for s in result["suites"]},
        "render": result["render_digest"],
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    log(f"pinned {workload} @ scale {scale} in {path}")


def declared_metrics(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale")
    parser.add_argument("--digests", type=Path, default=BENCH / "digests.json")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = time.monotonic() + DEADLINE_S
    want = declared_metrics("per_layer" if args.trace else "end_to_end")

    binary = build()
    # The revision is resolved once here, so the measured process never
    # spawns `git` itself: doing so shifted its peak memory by about 1 MiB,
    # depending on whether the checkout is a git repository.
    env = dict(os.environ, JETTY_GIT_REV=git_rev())
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--out", str(OUT)]
    if args.scale:
        common += ["--scale", args.scale]
    warmup_end = time.monotonic() + WARMUP_S
    while time.monotonic() < warmup_end:
        run_binary(binary, ["batch"] + common, deadline, env)

    if args.trace:
        results = [run_binary(binary, ["trace", "--seed", str(args.seed)] + common, deadline,
                              env)]
        r = results[0]
        metrics = {name: r["metrics"][name] for name, _ in want}
        c = r["checks"]
        log(f"trace: untraced gen+sim {c['untraced_gen_sim_s']:.4f} s; traced gen + substrate "
            f"+ replay {c['traced_gen_substrate_replay_s']:.4f} s (overhead "
            f"{metrics['trace.overhead_frac']['value']:+.2%}); families sum "
            f"{c['family_replay_sum_s']:.4f} s of replay {c['replay_s']:.4f} s")
        log(f"trace: spans in {r['spans']}")
        extra_failed = len(r["job_mismatches"])
        extra_attempted = r["jobs"]
        problems = [f"traced job {j} differs from the runner/engine result"
                    for j in r["job_mismatches"]]
    else:
        results = []
        started = time.monotonic()
        while not results or time.monotonic() - started < args.seconds:
            results.append(run_binary(binary, ["batch"] + common, deadline, env))
        walls = [r["wall_s"] for r in results]
        samples = {
            "wall_s": walls,
            "mrefs_per_s": [r["refs"] / 1e6 / r["wall_s"] for r in results],
            "cpu_s": [r["cpu_s"] for r in results],
            "setup_s": [s for r in results for s in r["setup_s"]],
            "peak_rss_mib": [r["peak_rss_kib"] / 1024 for r in results],
        }
        metrics = {}
        for name, unit in want:
            values = samples[name]
            best, how = BEST_OF.get(name, (statistics.median, "median"))
            metrics[name] = {"value": best(values), "unit": unit}
            print(f"{name} = {fmt(metrics[name]['value'])} {unit} ({how} of {len(values)}; "
                  f"median {fmt(statistics.median(values))}, min {fmt(min(values))}, "
                  f"max {fmt(max(values))})")
        extra_attempted = extra_failed = 0
        problems = []

    facts = dict(results[0]["facts"])
    facts["rustc"] = subprocess.run(["rustc", "--version"], capture_output=True,
                                    text=True).stdout.strip()
    facts["trace_seed"] = results[0].get("trace_seed", "n/a (engine runs use calibrated seeds)")
    print("facts: " + json.dumps(facts, sort_keys=True))

    scale = f"{results[0]['facts']['scale']:g}"
    if args.pin:
        pin(args.digests, args.workload, scale, results[0])
    pins = {}
    if args.digests.is_file():
        pins = json.loads(args.digests.read_text()).get(args.workload, {}).get(scale, {})
    if not pins:
        problems.append(f"no digests pinned for {args.workload} @ scale {scale} in {args.digests}")
    attempted, failed = extra_attempted, extra_failed
    for r in results:
        a, f, p = check_outputs(r, pins)
        attempted, failed = attempted + a, failed + f
        problems += p
    for p in dict.fromkeys(problems):
        log(f"FAILED: {p}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} outputs: suites "
          f"and rendered result sets)")
    for name, unit in want:
        if args.trace:
            print(f"{name} = {fmt(metrics[name]['value'])} {metrics[name]['unit']}")
        if metrics[name]["unit"] != unit:
            problems.append(f"{name} reported in {metrics[name]['unit']}, declared {unit}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
