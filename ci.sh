#!/usr/bin/env bash
# Repo CI gate. Run from the repo root:
#
#   ./ci.sh          # full gate: build, tests, replay, bench, perf gate, lints
#   ./ci.sh quick    # fast inner loop: debug tests + one debug smoke replay
#
# Everything must pass offline — the workspace has no external
# dependencies by design (see DESIGN.md §2, "External crates").
#
# Perf gate knobs:
#   CI_PERF_TOLERANCE=25        allowed ± drift (percent) of
#                               wall_us_per_simulated_request vs the
#                               committed BENCH_baseline.json
#   CI_PERF_BASELINE=accept     re-seed BENCH_baseline.json from this
#                               run instead of gating (use after a real
#                               perf change or a hardware move, then
#                               commit the new baseline)
set -euo pipefail
cd "$(dirname "$0")"

mode=${1:-full}

# replay_gate <example> [debug] — run the example twice with
# `--quick --json` and byte-diff the outputs. The JSON arms emit only
# seed-derived facts (no wall-clock), so any diff is a determinism bug.
replay_gate() {
  local ex=$1
  local flag=--release
  [[ "${2:-}" == debug ]] && flag=""
  echo "==> deterministic replay: $ex --quick --json twice, byte-diffed"
  cargo run $flag --quiet --example "$ex" -- --quick --json > "/tmp/ci_${ex}_a.json"
  cargo run $flag --quiet --example "$ex" -- --quick --json > "/tmp/ci_${ex}_b.json"
  diff "/tmp/ci_${ex}_a.json" "/tmp/ci_${ex}_b.json"
  rm -f "/tmp/ci_${ex}_a.json" "/tmp/ci_${ex}_b.json"
}

# bench_snapshot <example> <outfile> [extra args...] — capture the
# example's `--bench` snapshot (wall-clock; machine-dependent, so it is
# recorded, not diffed).
bench_snapshot() {
  local ex=$1 out=$2
  shift 2
  echo "==> bench snapshot: $ex --bench -> $out (wall-clock; not diffed)"
  cargo run --release --quiet --example "$ex" -- --bench "$@" > "$out"
  cat "$out"
}

# json_field <file> <key> — pull one numeric field out of a
# BenchSnapshot JSON file (pretty-printed, one field per line; no jq in
# the base image, so plain awk).
json_field() {
  awk -v k="\"$2\":" '$1 == k { gsub(/,/, "", $2); print $2; exit }' "$1"
}

# unsafe_gate — the workspace's unsafe surface is one audited call: every
# library crate forbids `unsafe` except sevf-crypto, which denies it and
# allows it only on the module holding the SHA-256 x86 SHA-extension path
# (DESIGN.md §2, "External crates").
unsafe_gate() {
  echo "==> unsafe surface: forbid everywhere, one allowed module in sevf-crypto"
  local lib want bad=0
  for lib in crates/*/src/lib.rs; do
    want='#![forbid(unsafe_code)]'
    [[ "$lib" == crates/crypto/src/lib.rs ]] && want='#![deny(unsafe_code)]'
    grep -qxF "$want" "$lib" || { echo "UNSAFE GATE: $lib lacks $want"; bad=1; }
  done
  local sha2=crates/crypto/src/sha2.rs allows line
  allows=$(grep -rnE --include='*.rs' '(allow|expect)\(unsafe_code' \
             crates src tests examples benchmark/src || true)
  line=$(grep -nxF '#[allow(unsafe_code)]' "$sha2" | cut -d: -f1 || true)
  if [[ "$allows" != "$sha2:$line:#[allow(unsafe_code)]" ]] \
     || [[ $(sed -n "$((${line:-0} + 1))p" "$sha2") != "mod x86;" ]]; then
    echo "UNSAFE GATE: allow(unsafe_code) must appear once, on sevf-crypto's"
    echo "SHA-extension module (crates/crypto/src/sha2.rs, \`mod x86;\`). Found:"
    echo "${allows:-<none>}"
    bad=1
  fi
  [[ $bad == 0 ]] || exit 1
}

unsafe_gate

if [[ "$mode" == quick ]]; then
  echo "==> cargo test -q (tier-1: root package, debug)"
  cargo test -q

  echo "==> cargo test -q --workspace (debug)"
  cargo test -q --workspace

  replay_gate fleet_chaos debug

  echo "CI OK (quick)"
  exit 0
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

for ex in fleet_chaos cluster_scaling trace_explorer attestation_storm \
          partition_drill perf_sweep tenant_qos autoscale_drill; do
  replay_gate "$ex"
done

# Policy-off byte-identity gate: with `policy: None` (and, since the
# autoscaler landed, `autoscaler: None` and `workload: None`) the fleet
# and cluster services must replay the committed pre-policy outputs byte
# for byte (data/golden/ holds the `--quick --json` outputs captured
# before the policy layer landed). Any diff means a disabled layer
# perturbed the RNG streams or the dispatch order.
echo "==> policy-off golden replay: fleet_chaos + cluster_scaling vs data/golden/"
cargo run --release --quiet --example fleet_chaos -- --quick --json > /tmp/ci_golden_fleet.json
diff /tmp/ci_golden_fleet.json data/golden/fleet_chaos_quick.json
cargo run --release --quiet --example cluster_scaling -- --quick --json > /tmp/ci_golden_cluster.json
diff /tmp/ci_golden_cluster.json data/golden/cluster_scaling_quick.json
rm -f /tmp/ci_golden_fleet.json /tmp/ci_golden_cluster.json

# Benchmark correctness gate: each workload's own checks. paper-boot
# regenerates the figures and compares them with data/fig{9,10,11,12}.json
# and data/headline.json (one pass plus set-ups); the serving workloads
# check conservation, zero posture violations and identical digests across
# the traced and untraced passes. Only the verdict is gated, never a timing.
for w in paper-boot serve-attested serve-elastic; do
  secs=5
  [[ "$w" == paper-boot ]] && secs=1
  echo "==> benchmark correctness: $w (verdict only; timings not gated)"
  python3 benchmark/run.py --workload "$w" --seed 1 --seconds "$secs" --trace 0 \
    | tail -n 1 > /tmp/ci_bench_verdict.json
  cat /tmp/ci_bench_verdict.json
  python3 -c 'import json, sys
r = json.load(open(sys.argv[1]))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' /tmp/ci_bench_verdict.json \
    || { echo "BENCHMARK CHECK FAILED: $w"; exit 1; }
  rm -f /tmp/ci_bench_verdict.json
done

bench_snapshot partition_drill   BENCH_net.json      --quick
bench_snapshot attestation_storm BENCH_attplane.json --quick
bench_snapshot fleet_chaos       BENCH_chaos.json    --quick
bench_snapshot cluster_scaling   BENCH_cluster.json  --quick
bench_snapshot tenant_qos        BENCH_policy.json   --quick
bench_snapshot autoscale_drill   BENCH_autoscale.json --quick
# Full scale on purpose: the perf gate needs the 12M-job workload where
# the calendar/heap gap is meaningful; quick scale fits in cache and
# under-reports it.
bench_snapshot perf_sweep BENCH_perf.json

echo "==> appending BENCH_perf.json to BENCH_trajectory.jsonl"
tr -d '\n' < BENCH_perf.json | tr -s ' ' >> BENCH_trajectory.jsonl
echo >> BENCH_trajectory.jsonl

tol=${CI_PERF_TOLERANCE:-25}
cur=$(json_field BENCH_perf.json wall_us_per_simulated_request)
if [[ "${CI_PERF_BASELINE:-}" == accept ]]; then
  echo "==> perf gate: CI_PERF_BASELINE=accept — re-seeding BENCH_baseline.json"
  cp BENCH_perf.json BENCH_baseline.json
elif [[ ! -f BENCH_baseline.json ]]; then
  echo "==> perf gate: no BENCH_baseline.json — seeding it from this run"
  cp BENCH_perf.json BENCH_baseline.json
else
  base=$(json_field BENCH_baseline.json wall_us_per_simulated_request)
  echo "==> perf gate: wall_us_per_simulated_request $cur vs baseline $base (±${tol}%)"
  if ! awk -v cur="$cur" -v base="$base" -v tol="$tol" \
      'BEGIN { exit !(cur <= base * (1 + tol / 100) &&
                      cur >= base * (1 - tol / 100)) }'; then
    echo "PERF GATE FAILED: wall_us_per_simulated_request drifted more than"
    echo "${tol}% from the committed baseline. If the change is intentional"
    echo "(real perf work, new hardware), rerun with CI_PERF_BASELINE=accept"
    echo "and commit the refreshed BENCH_baseline.json; otherwise bisect the"
    echo "regression before merging. CI_PERF_TOLERANCE widens the band."
    exit 1
  fi
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
