#!/usr/bin/env bash
# Regenerates BENCH_baseline.json: wall-clock timings of representative
# jetty-repro invocations, so successive PRs have a perf trajectory to
# compare against. Schema 10 keeps the earlier measurements (host thread
# count, serial + parallel full reproduction, the MOESI/MESI/MSI protocol
# sweep, the declarative sweep grid and its suite-cache hit rate, the
# batched-replay and trace-generation hot paths, the SIMD kernel layer,
# the run-store surfaces) and hardens the wall-clock protocol: every
# timed command gets one untimed warm-up invocation first (page cache,
# CPU governor and branch predictors settle before the clock starts —
# schema 9's 22 s full-scale spread was almost entirely a cold first
# rep), and each entry records the median alongside the best-of-reps
# minimum and the max-min spread, so a skewed rep is visible instead of
# silently polluting the min. The previous file's full-scale value is
# preserved under "previous" so the before/after of perf work stays on
# record. Full-scale wall-clock on this host still drifts run-to-run;
# compare best-of-reps against best-of-reps measured the same day before
# reading anything into a delta (see "full_scale_note").
# Usage: scripts/bench_baseline.sh [reps]   (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${1:-5}"
BIN=target/release/jetty-repro
THREADS="$(nproc)"

# The before: whatever the current baseline file reports, carried forward.
prev_schema=$(grep -o '"schema": [0-9]*' BENCH_baseline.json 2>/dev/null | head -1 | grep -o '[0-9]*' || echo null)
prev_full=$(grep -o '"repro_all_full_scale_ms": [0-9]*' BENCH_baseline.json 2>/dev/null | head -1 | grep -o '[0-9]*$' || echo null)

cargo build --release --bin jetty-repro >/dev/null

# time_ms <args...> -> sets TM_MIN / TM_MEDIAN / TM_SPREAD (milliseconds
# across REPS, after one untimed warm-up invocation).
time_ms() {
    "$BIN" "$@" >/dev/null
    local samples=""
    for _ in $(seq "$REPS"); do
        local start end
        start=$(date +%s%N)
        "$BIN" "$@" >/dev/null
        end=$(date +%s%N)
        samples="$samples$(( (end - start) / 1000000 ))"$'\n'
    done
    local sorted
    sorted=$(printf '%s' "$samples" | sort -n)
    TM_MIN=$(echo "$sorted" | head -1)
    TM_MEDIAN=$(echo "$sorted" | sed -n "$(( (REPS + 1) / 2 ))p")
    TM_SPREAD=$(( $(echo "$sorted" | tail -1) - TM_MIN ))
}

# Everything but the parallel entries pins --threads 1 so the values stay
# comparable with the schema-1 serial trajectory on any host.
time_ms table1 fig2 table4;                          static_ms=$TM_MIN;  static_median=$TM_MEDIAN; static_spread=$TM_SPREAD
time_ms table2 table3 --scale 0.1 --threads 1;       smoke_ms=$TM_MIN;   smoke_median=$TM_MEDIAN; smoke_spread=$TM_SPREAD
time_ms fig6 --scale 0.1 --threads 1;                energy_ms=$TM_MIN;  energy_median=$TM_MEDIAN; energy_spread=$TM_SPREAD
time_ms protocols --scale 0.1 --threads 1;           protocols_ms=$TM_MIN; protocols_median=$TM_MEDIAN; protocols_spread=$TM_SPREAD
time_ms protocols --scale 0.1 --threads "$THREADS";  protocols_parallel_ms=$TM_MIN; protocols_parallel_median=$TM_MEDIAN; protocols_parallel_spread=$TM_SPREAD
time_ms sweep --scale 0.1 --threads 1;               sweep_ms=$TM_MIN;   sweep_median=$TM_MEDIAN; sweep_spread=$TM_SPREAD
time_ms sweep --scale 0.1 --threads "$THREADS";      sweep_parallel_ms=$TM_MIN; sweep_parallel_median=$TM_MEDIAN; sweep_parallel_spread=$TM_SPREAD
# The grid's suite-cache hit rate, from the [sweep] stderr summary.
sweep_hit_rate=$("$BIN" sweep --scale 0.1 --threads "$THREADS" 2>&1 >/dev/null \
    | grep -o 'hit rate [0-9.]*%' | grep -o '[0-9.]*')
time_ms all --scale 1.0 --threads 1;                 full_ms=$TM_MIN;    full_median=$TM_MEDIAN; full_spread=$TM_SPREAD
time_ms all --scale 1.0 --threads 1 --shards 2;      full_sharded_ms=$TM_MIN; full_sharded_median=$TM_MEDIAN; full_sharded_spread=$TM_SPREAD
time_ms all --scale 1.0 --threads "$THREADS";        full_parallel_ms=$TM_MIN; full_parallel_median=$TM_MEDIAN; full_parallel_spread=$TM_SPREAD

# Run-store surfaces: a recorded invocation (simulation + append), and a
# diff of two recorded runs (two scans + cell-by-cell compare).
STORE_TMP=$(mktemp -d)
STORE_FILE="$STORE_TMP/baseline.store"
time_ms all --scale 0.02 --threads 1 --store "$STORE_FILE"
store_record_ms=$TM_MIN; store_record_median=$TM_MEDIAN; store_record_spread=$TM_SPREAD
"$BIN" all --scale 0.02 --threads 1 --store "$STORE_FILE" >/dev/null
time_ms diff 1 2 --store "$STORE_FILE"
store_diff_ms=$TM_MIN; store_diff_median=$TM_MEDIAN; store_diff_spread=$TM_SPREAD
rm -rf "$STORE_TMP"

# Hot-path criterion throughputs (Melem/s; the bench prints
# "hotpath/<name> ... X.XXX Melem/s").
hotpath_out=$(cargo bench --bench hotpath 2>/dev/null | grep '^hotpath/')
hp() {
    echo "$hotpath_out" | grep "^hotpath/$1 " | awk '{print $(NF-1)}'
}
l2_probe=$(hp l2_snoop_probe)
l2_fill=$(hp l2_fill_evict)
fastmap=$(hp version_map_fastmap)
stdmap=$(hp version_map_std_hashmap)
batch_ej=$(hp batch_probe_exclude)
batch_ij=$(hp batch_probe_include)
batch_hybrid=$(hp batch_probe_hybrid)
trace_chunk=$(hp trace_fill_chunk)

# Intra-run sharding criterion throughputs (Melem/s of references): the
# serial fast path against the scoped fan-out at 2 and 4 shards. On a
# single-core host the sharded series measures pure spawn/merge overhead.
shard_out=$(cargo bench --bench shard_merge 2>/dev/null | grep '^shard_merge/')
sm() {
    local v
    v=$(echo "$shard_out" | grep "^shard_merge/$1 " | awk '{print $(NF-1)}')
    echo "${v:-null}"
}
replay_shards_1=$(sm replay_shards_1)
replay_shards_2=$(sm replay_shards_2)
replay_shards_4=$(sm replay_shards_4)

# Store criterion throughputs (append in Melem/s of cells, scan in MB/s).
store_out=$(cargo bench --bench store 2>/dev/null | grep '^store/')
store_append=$(echo "$store_out" | grep '^store/append_record ' | awk '{print $(NF-1)}')
store_scan=$(echo "$store_out" | grep '^store/scan_100_records ' | awk '{print $(NF-1)}')

cat > BENCH_baseline.json <<EOF
{
  "schema": 10,
  "tool": "scripts/bench_baseline.sh",
  "reps": $REPS,
  "threads": $THREADS,
  "metric": "wall-clock milliseconds after one untimed warm-up rep: best-of-reps (min) and median, with max-min spread, release build",
  "toolchain": "$(rustc --version)",
  "simd": "$("$BIN" table2 --scale 0.02 --threads 1 --timings 2>&1 >/dev/null | grep -o 'kernel=[a-z0-9]*' | head -1 | cut -d= -f2 || echo unknown)",
  "benchmarks": {
    "repro_static_tables_ms": $static_ms,
    "repro_static_tables_median_ms": $static_median,
    "repro_static_tables_spread_ms": $static_spread,
    "repro_table2_table3_scale0.1_ms": $smoke_ms,
    "repro_table2_table3_scale0.1_median_ms": $smoke_median,
    "repro_table2_table3_scale0.1_spread_ms": $smoke_spread,
    "repro_fig6_scale0.1_ms": $energy_ms,
    "repro_fig6_scale0.1_median_ms": $energy_median,
    "repro_fig6_scale0.1_spread_ms": $energy_spread,
    "repro_protocols_scale0.1_ms": $protocols_ms,
    "repro_protocols_scale0.1_median_ms": $protocols_median,
    "repro_protocols_scale0.1_spread_ms": $protocols_spread,
    "repro_protocols_scale0.1_parallel_ms": $protocols_parallel_ms,
    "repro_protocols_scale0.1_parallel_median_ms": $protocols_parallel_median,
    "repro_protocols_scale0.1_parallel_spread_ms": $protocols_parallel_spread,
    "repro_sweep_scale0.1_ms": $sweep_ms,
    "repro_sweep_scale0.1_median_ms": $sweep_median,
    "repro_sweep_scale0.1_spread_ms": $sweep_spread,
    "repro_sweep_scale0.1_parallel_ms": $sweep_parallel_ms,
    "repro_sweep_scale0.1_parallel_median_ms": $sweep_parallel_median,
    "repro_sweep_scale0.1_parallel_spread_ms": $sweep_parallel_spread,
    "sweep_cache_hit_rate_pct": $sweep_hit_rate,
    "repro_all_full_scale_ms": $full_ms,
    "repro_all_full_scale_median_ms": $full_median,
    "repro_all_full_scale_spread_ms": $full_spread,
    "repro_all_full_scale_shards2_ms": $full_sharded_ms,
    "repro_all_full_scale_shards2_median_ms": $full_sharded_median,
    "repro_all_full_scale_shards2_spread_ms": $full_sharded_spread,
    "repro_all_full_scale_parallel_ms": $full_parallel_ms,
    "repro_all_full_scale_parallel_median_ms": $full_parallel_median,
    "repro_all_full_scale_parallel_spread_ms": $full_parallel_spread,
    "repro_all_scale0.02_store_ms": $store_record_ms,
    "repro_all_scale0.02_store_median_ms": $store_record_median,
    "repro_all_scale0.02_store_spread_ms": $store_record_spread,
    "store_diff_ms": $store_diff_ms,
    "store_diff_median_ms": $store_diff_median,
    "store_diff_spread_ms": $store_diff_spread
  },
  "hotpath_melems_per_s": {
    "l2_snoop_probe": $l2_probe,
    "l2_fill_evict": $l2_fill,
    "version_map_fastmap": $fastmap,
    "version_map_std_hashmap": $stdmap,
    "batch_probe_exclude": $batch_ej,
    "batch_probe_include": $batch_ij,
    "batch_probe_hybrid": $batch_hybrid,
    "trace_fill_chunk": $trace_chunk
  },
  "shard_merge_melems_per_s": {
    "replay_shards_1": $replay_shards_1,
    "replay_shards_2": $replay_shards_2,
    "replay_shards_4": $replay_shards_4
  },
  "full_scale_note": "schema 10 (intra-run sharding + compacted L2 hot records) measured interleaved best-of-5 against the schema-9 binary at full scale, --threads 1: 19184 ms new vs 19058 ms old (+0.7%, parity — a second same-day session measured 20792 vs 20939 the other way; this host's run-to-run spread is 3+ s, so only the paired minima are meaningful). The compaction shows up in the microbenches instead: packing tag+valid+state into one u128 hot record per block and decoding the state nibble through a branchless 4-entry table (no reachable panic path) lets LLVM autovectorise the probe loops — same-moment A/B moved hotpath/l2_snoop_probe from ~234 to ~1350 Melem/s and l2_state from ~134 to ~1360 Melem/s at best-of-run minima. The sharded full-scale leg (repro_all_full_scale_shards2) runs on this 1-core host, where the engine's oversubscription cap clamps --shards 2 down to one slice — the multi-core sharding speedup is untestable here; shard_merge_melems_per_s records per-shard-count replay throughput for when a multi-core host regenerates this file (byte-identity at every shard count is CI-enforced either way).",
  "store": {
    "append_record_melems_per_s": $store_append,
    "scan_100_records_mb_per_s": $store_scan
  },
  "previous": {
    "schema": $prev_schema,
    "repro_all_full_scale_ms": $prev_full
  }
}
EOF

echo "Wrote BENCH_baseline.json:"
cat BENCH_baseline.json
