#!/usr/bin/env bash
# The full CI gauntlet, runnable locally. Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
# (Replay is portable scalar code on every host; the replay_oracle
# suite compares event-major bank replay with each filter driven alone.)
cargo test -q

echo "==> cargo build --examples"
cargo build --examples

echo "==> perfbench self-test (builds the benchmark, checks its digest gate and failure counting)"
python3 perfbench/selftest.py

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

# Golden stdout must be byte-identical at every check level — full
# checking is an implementation detail, never an observable one.
echo "==> golden output: jetty-repro all --scale 0.02 --threads 2 vs tests/golden/all_scale002.txt"
target/release/jetty-repro all --scale 0.02 --threads 2 | diff -u tests/golden/all_scale002.txt -

echo "==> golden output: jetty-repro all --scale 0.02 --threads 2 --check vs tests/golden/all_scale002.txt"
target/release/jetty-repro all --scale 0.02 --threads 2 --check | diff -u tests/golden/all_scale002.txt -

echo "==> golden output: jetty-repro protocols --scale 0.02 --threads 2 vs tests/golden/protocols_scale002.txt"
target/release/jetty-repro protocols --scale 0.02 --threads 2 | diff -u tests/golden/protocols_scale002.txt -

# The sweep is the only exhibit with the 8-way MESI/MSI platforms.
echo "==> golden output: jetty-repro sweep --scale 0.02 --threads 2 vs tests/golden/sweep_scale002.txt"
target/release/jetty-repro sweep --scale 0.02 --threads 2 | diff -u tests/golden/sweep_scale002.txt -

echo "==> golden output: jetty-repro sweep --scale 0.02 --threads 2 --check vs tests/golden/sweep_scale002.txt"
target/release/jetty-repro sweep --scale 0.02 --threads 2 --check | diff -u tests/golden/sweep_scale002.txt -

# The filter grid pins the exclude family from one lane to 32 (EJ and VEJ
# are one implementation), a vector and an eager hybrid, and both block
# grains, with the array accounting in the bytes column.
SWEEP_FILTERS=ej-8x2,ej-32x4,vej-8x2-2,vej-16x4-8,vej-32x4-32,hj-ij10x4x7-vej32x4-8,hj-ij9x4x7-ej16x2-eager
echo "==> golden output: jetty-repro sweep --scale 0.02 --threads 2 (filter grid) vs tests/golden/sweep_filters_scale002.txt"
target/release/jetty-repro sweep --scale 0.02 --threads 2 --axis cpus=4,8 --axis nsb=sb,nsb \
  --axis "filter=$SWEEP_FILTERS" | diff -u tests/golden/sweep_filters_scale002.txt -

# One worker runs the engine's worker loop inline on the caller's thread
# instead of under a thread scope; its output must not differ either.
echo "==> golden output (one worker): jetty-repro all --scale 0.02 --threads 1 vs tests/golden/all_scale002.txt"
target/release/jetty-repro all --scale 0.02 --threads 1 | diff -u tests/golden/all_scale002.txt -

echo "==> JSON validity: renderer output parsed by the in-tree rust parser (no shell tools)"
cargo test -q -p jetty-experiments --test renderers json_ -- --nocapture

echo "==> run store smoke: record twice, list, diff clean"
STORE_DIR=$(mktemp -d)
STORE="$STORE_DIR/ci.store"
# Pinned metadata keeps the two records byte-comparable (and matches the
# committed reference record's identity fields).
for i in 1 2; do
  JETTY_STORE_NOW=0 JETTY_GIT_REV=reference JETTY_STORE_TIMING_MS=1000 \
    target/release/jetty-repro all --scale 0.02 --threads 2 --store "$STORE" >/dev/null
done
target/release/jetty-repro runs --store "$STORE" >/dev/null
target/release/jetty-repro diff 1 2 --store "$STORE" >/dev/null

echo "==> fault matrix: cargo test -q -p jetty-experiments --test fault_injection"
cargo test -q -p jetty-experiments --test fault_injection

echo "==> fault smoke: one injected suite failure must degrade gracefully"
# Each leg kills one suite of `all` with the fault harness; the invocation
# must exit with the partial code (2), keep every surviving table
# byte-identical to the golden file, and report the failure in a final
# failures table. Leg 1 fails the 8-way suite; leg 2 fails the IJ-skip
# ablation, which the engine would otherwise fold into one simulation with
# the base and HJ-policy suites (same 4-way platform) — a faulted suite
# runs alone, so its failure must not touch its would-be fold mates. Leg 3
# panics inside the 8-way suite's worker: the release profile unwinds, so
# the engine's per-job containment must hold in the shipped binary too.
for leg in \
  "suite-fail|cpus8-scale0.02-sb-moesi-paperbank22|8-way SMP summary" \
  "suite-fail|cpus4-scale0.02-sb-moesi-ij-8x4x2+ij-8x4x4+ij-8x4x6+ij-8x4x8|Ablation: IJ index overlap" \
  "suite-panic|cpus8-scale0.02-sb-moesi-paperbank22|8-way SMP summary"; do
  FAULT_KIND=${leg%%|*}
  FAULT_REST=${leg#*|}
  FAULT_SUITE=${FAULT_REST%%|*}
  FAULT_BLOCK=${FAULT_REST#*|}
  echo "    $FAULT_KIND@$FAULT_SUITE"
  FAULT_DIR=$(mktemp -d)
  set +e
  JETTY_FAULT=$FAULT_KIND@$FAULT_SUITE \
    target/release/jetty-repro all --scale 0.02 --threads 2 >"$FAULT_DIR/partial.txt" 2>"$FAULT_DIR/stderr.txt"
  FAULT_EXIT=$?
  set -e
  [ "$FAULT_EXIT" -eq 2 ] || { echo "fault smoke: want exit 2, got $FAULT_EXIT"; cat "$FAULT_DIR/stderr.txt"; exit 1; }
  grep -q "== Failed suites" "$FAULT_DIR/partial.txt"
  grep -q "injected fault: $FAULT_KIND" "$FAULT_DIR/partial.txt"
  # Strip the failed suite's block from the golden file and the failures
  # block from the partial output: the remainder must match byte for byte.
  awk -v drop="$FAULT_BLOCK" '/^== /{keep = ($0 !~ drop)} keep' tests/golden/all_scale002.txt >"$FAULT_DIR/golden-surviving.txt"
  awk '/^== /{keep = !/Failed suites/} keep' "$FAULT_DIR/partial.txt" >"$FAULT_DIR/partial-surviving.txt"
  diff -u "$FAULT_DIR/golden-surviving.txt" "$FAULT_DIR/partial-surviving.txt"
  rm -rf "$FAULT_DIR"
done

echo "==> strict store listing: tail damage is an error under --strict"
STRICT_DIR=$(mktemp -d)
STRICT="$STRICT_DIR/strict.store"
JETTY_STORE_NOW=0 JETTY_GIT_REV=reference JETTY_STORE_TIMING_MS=1000 \
  target/release/jetty-repro table1 --store "$STRICT" >/dev/null
target/release/jetty-repro runs --strict --store "$STRICT" >/dev/null
printf 'JREC 000000ff' >>"$STRICT"
if target/release/jetty-repro runs --strict --store "$STRICT" >/dev/null 2>&1; then
  echo "runs --strict must fail on a damaged tail"; exit 1
fi
rm -rf "$STRICT_DIR"

echo "==> cross-run regression gate: fresh run vs tests/golden/reference_scale002.store"
# The committed reference pins timing_ms=1500 — a budget, not a
# measurement: a fresh release scale-0.02 run takes ~700 ms on the pinned
# host, so the 10% band fires past 1650 ms (~2.2x typical) while every
# output cell is still compared exactly.
GATE="$STORE_DIR/gate.store"
JETTY_STORE_NOW=0 JETTY_GIT_REV=reference \
  target/release/jetty-repro all --scale 0.02 --threads 2 --store "$GATE" >/dev/null
target/release/jetty-repro diff \
  "tests/golden/reference_scale002.store:1" "$GATE:latest" --timing-band 10
rm -rf "$STORE_DIR"

echo "CI green."
