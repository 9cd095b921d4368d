#!/usr/bin/env bash
# Deterministic bench baseline on a toy grid, for the CI bench-smoke job.
#
# Every bench below emits its structured rows (--json) with fixed seeds and
# fixed grid flags; the measured bit counts, min-budgets, success counts and
# packing numbers are exact integers / order-fixed floating point sums, so
# the concatenated file must be byte-comparable across machines and thread
# counts once time-like fields are stripped (bench/check_baseline.py does
# the stripping). bench_net runs inproc-only (socket availability varies by
# machine) with the virtual clock on: logical time makes retransmission /
# duplicate / corrupt / ack counts pure functions of the fault seed, so even
# the fault-grid rows are bit-exact. Wall-clock fields (*_s, seconds,
# speedup_time, frames_per_s) are stripped by the checker as usual.
#
# Usage: bench/baseline.sh [build-dir] [output.json]
set -euo pipefail

BUILD=${1:-build}
OUT=${2:-bench/BENCH_baseline.json}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

i=0
run() {
  local name=$1
  shift
  i=$((i + 1))
  printf '  [%02d] bench_%s %s\n' "$i" "$name" "$*" >&2
  "$BUILD/bench/bench_$name" "$@" --json="$TMP/$(printf '%02d' "$i")_$name.json" \
    > /dev/null
}

run counting --trials=3
run oneway_lb --side_max=1024
run sim_lb --side_max=1024
run bm_lb --pairs_max=4096
run sim_low --nmax=65536 --nmax_hub=16384 --trials=3
run sim_high --nmax=8192 --trials=2
run mu_farness --trials=5
run unrestricted --nmax=16384 --trials=2
run oblivious --n=4096 --trials=2
run exact_gap --nmax=16384 --trials=1
run realistic --nmax=16384 --trials=2
run streaming --trials=4
run subgraph --nmax=4096 --trials=2
run symmetrization --trials=10
run information --side=8 --samples=2000
run ablations --trials=2
run net --messages=200 --transports=inproc

# Service runtime (PR 8): S concurrent sessions multiplexed over one shared
# servicer under the virtual clock. The charged/payload/wire sums are
# order-fixed over deterministic per-slot specs, so the rows are bit-exact;
# throughput/latency/ratio fields are TIME_KEY-stripped.
run service --n=400 --iters=2

# Chunked generation (PR 6): same benches drawing instances through the
# chunked generator. The draws are a different (equally valid) sample stream,
# so they get their own bench names (oneway_lb_chunked, ...) and their own
# baseline rows; each run also emits a chunk_identity row asserting the
# k-chunk union hash equals the monolithic build's.
run oneway_lb --side_max=1024 --chunked --trials=20
run bm_lb --pairs_max=4096 --chunked --trials=12
run mu_farness --trials=5 --chunked

# Sharded servicer (PR 10): the same closed-loop service load against
# N in {1,2,4} poller shards. Per-session accounting is a pure function of
# the spec, so the shard_sweep rows are bit-exact after TIME_KEY stripping,
# and the shard_identity row asserts the N=1 and N=4 fleets produced
# field-for-field identical per-session outcomes (the bench exits 1 if not).
run service --n=400 --iters=2 --sweep=0 --shard_rows=1

# Kernel variants (PR 9): scalar/AVX2/bitset A/B identity rows from
# bench_kernels. Pinned to --kernel=scalar so the family benches don't
# depend on the host ISA; the kernel_identity rows themselves are
# host-independent either way — a non-AVX2 host resolves the avx2/bitset
# strategies to their scalar fallbacks, which are bit-identical by the
# dispatch contract (the bench hard-fails if they are not).
run kernels --n=2000 --trials=1 --kernel=scalar --kernel_rows=1

# Charge contention: chatty-shaped sessions charged by 1 and 4 driving
# threads into one real-clock shard. The counts (sessions, charges, charged
# and payload bits, messages, delivered frames) are pure functions of the
# session slots, which no retransmission moves; the CPU per charge and the
# sessions/s are TIME_KEY-stripped.
run service --sweep=0 --contention_rows=1

cat "$TMP"/*.json > "$OUT"
echo "wrote $(wc -l < "$OUT") rows to $OUT" >&2
