#!/usr/bin/env bash
# Serving-layer load harness: runs bench_serving at the acceptance shape
# (64 concurrent sessions, loopback TCP + UDS) and writes the annotated
# result to BENCH_serving.json at the repo root. Usage:
#   scripts/bench_serving.sh                 # reuse ./build if present
#   scripts/bench_serving.sh --rebuild      # force a fresh configure + build
#   scripts/bench_serving.sh --clients=128  # extra flags pass through
set -euo pipefail
cd "$(dirname "$0")/.."

ARGS=()
REBUILD=0
for a in "$@"; do
  if [[ "$a" == "--rebuild" ]]; then REBUILD=1; else ARGS+=("$a"); fi
done

if [[ "$REBUILD" == 1 || ! -x build/bench/bench_serving ]]; then
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build build -j "$(nproc)" --target bench_serving

echo "bench_serving.sh: 64-session load over loopback TCP + UDS..." >&2
./build/bench/bench_serving --clients=64 --queries=4 --transport=both \
  --overload --batch "${ARGS[@]+"${ARGS[@]}"}" > /tmp/pafs_serving.json

python3 - <<'PY'
import json

result = json.load(open("/tmp/pafs_serving.json"))
for name, t in result["transports"].items():
    assert t["failures"] == 0, f"{name}: {t['failures']} protocol failures"
    assert t["mismatches"] == 0, f"{name}: wrong answers under load"
bt = result["batched"]
assert bt["failures"] == 0, f"batched: {bt['failures']} protocol failures"
assert bt["mismatches"] == 0, "batched: wrong answers under load"
assert bt["batches_served"] >= bt["batches"], (
    "batched: server saw fewer wire batches than clients completed")
assert bt["qps"] > result["transports"]["tcp"]["qps"], (
    f"batched: {bt['qps']} records/s does not beat the per-query "
    f"{result['transports']['tcp']['qps']} qps on the same machine")
ov = result["overload"]
assert ov["failures"] == 0, f"overload: {ov['failures']} visible failures"
assert ov["mismatches"] == 0, "overload: wrong answers under chaos"
assert ov["reconnects"] >= 1, "overload: restart produced no reconnects"
assert ov["sessions_reaped"] >= 1, "overload: loris sockets never reaped"
rs = result["resume"]
assert rs["resumptions"] >= 3, "resume: ticket reconnects never resumed"
assert rs["queries_cancelled"] >= 1, "resume: watchdog never cancelled"
assert rs["speedup"] >= 5.0, (
    f"resume: resumed reconnect only {rs['speedup']:.1f}x faster than a "
    "full re-handshake (want >= 5x: resumption must skip the base OTs)")

out = {
    "description": "Session-multiplexed secure classification under "
                   "concurrent load (bench/bench_serving.cc). Latency "
                   "percentiles are nearest-rank over every per-query "
                   "client-side sample; open_p50_ms/open_p95_ms time "
                   "each session's open (the client constructor: the "
                   "handshake with its 128 base OTs) apart from its "
                   "queries. QPS is total completed queries "
                   "over client wall time. Queueing behind the worker "
                   "pool dominates tails when sessions >> cores. The "
                   "overload block is the resilience scenario: an "
                   "undersized server (2 workers, admission bound 4, 1s "
                   "idle reaper) under 4x oversubscribed fault-injecting "
                   "clients, killed and restarted mid-storm; RetryPolicy "
                   "must deliver every answer (failures == 0) while the "
                   "shed/reconnect/reap counters show the machinery "
                   "actually engaged. The resume block times "
                   "reconnect-and-query with and without a resumption "
                   "ticket: a resumed session restores its OT extension "
                   "state and skips the base OTs, so it must be >= 5x "
                   "faster than a full re-handshake; queries_cancelled "
                   "proves the per-query watchdog fired on a wedged "
                   "session. The batched block reruns the same "
                   "concurrent-session load through ClassifyBatch (wire "
                   "v4): each batch shares one round of wire framing, one "
                   "OT-extension matrix, and GC-pool circuits, and its "
                   "qps counts records so it reads against the per-query "
                   "transports' qps directly.",
    "result": result,
}
with open("BENCH_serving.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(json.dumps(out, indent=2))
PY
echo "bench_serving.sh: wrote BENCH_serving.json" >&2
