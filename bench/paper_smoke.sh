#!/usr/bin/env sh
# Paper-protocol timing smoke test (ROADMAP "paper-sized sweep as a routine
# artefact").
#
# Times the paper-sized protocol (bench/main.exe --paper: 32 cores, 300
# ops/thread, 10 seeds trimmed by 3, retries 1..10) twice on top of the
# sharded suite cache — once cache-cold (shards dropped first) and once
# cache-warm — verifies the two outputs are byte-identical (a cache hit must
# never change a figure), and records both wall times in BENCH_paper.json.
#
# The full 19-benchmark protocol is close to an hour of simulation on a
# single-core host, so by default the sweep is restricted to one benchmark
# (--only arrayswap, ~400 paper-sized simulations) and to the artefacts that
# are derived from the shared suite; that is enough to time the protocol's
# machinery (sweep, shard cache, figure generation) every CI run.
#   PAPER_SMOKE_ONLY=w1,w2   restrict to different benchmarks
#   PAPER_SMOKE_FULL=1       the real thing: every benchmark, every artefact
#
# The cold wall time is a soft gate: drifting more than 25% over the
# committed BENCH_paper.json produces a CI-annotation-style warning, never a
# failure (the protocol legitimately gets slower when the model grows).
# Output identity cold-vs-warm is a hard failure.
#
# Usage: sh bench/paper_smoke.sh   (from the repository root or bench/)

set -eu

cd "$(dirname "$0")/.."

# Under `dune build @ci` the rule's deps have already built the executable
# in the build context this script runs from; a nested dune there would
# rebuild the tree and can hang racing the other smoke rules' nested builds.
if [ -n "${INSIDE_DUNE:-}" ]; then
  BIN=bench/main.exe
else
  dune build bench/main.exe 2>&1
  BIN=_build/default/bench/main.exe
fi

HOST_CORES=$( (nproc || getconf _NPROCESSORS_ONLN || echo 1) 2>/dev/null | head -n 1)

PAR_JOBS=$HOST_CORES
[ "$PAR_JOBS" -gt 4 ] && PAR_JOBS=4
[ "$PAR_JOBS" -lt 1 ] && PAR_JOBS=1

ONLY="${PAPER_SMOKE_ONLY:-arrayswap}"
if [ "${PAPER_SMOKE_FULL:-0}" = "1" ]; then
  RESTRICT=""
  ARTEFACTS="all"
  SCOPE="full protocol: 19 benchmarks, all artefacts"
else
  RESTRICT="--only $ONLY"
  # The suite-driven artefacts share one sweep; ablation/sle/micro run their
  # own paper-sized side sweeps and stay out of the CI-sized timing.
  ARTEFACTS="table1 table2 fig1 fig8 fig9 fig10 fig11 fig12 fig13 headline storage"
  SCOPE="restricted to $ONLY, suite-driven artefacts"
fi

now_ms() {
  t=$(date +%s%N 2>/dev/null)
  case "$t" in
    *N) echo "$(date +%s)000" ;;
    *) echo "$((t / 1000000))" ;;
  esac
}

run_timed() { # $1 = output file; prints elapsed ms
  start=$(now_ms)
  # shellcheck disable=SC2086
  "$BIN" --paper --jobs "$PAR_JOBS" $RESTRICT $ARTEFACTS >"$1" 2>/dev/null
  end=$(now_ms)
  echo "$((end - start))"
}

OUT_COLD=$(mktemp) OUT_WARM=$(mktemp)
trap 'rm -f "$OUT_COLD" "$OUT_WARM"' EXIT

# Cache-cold: drop every shard so the first run really simulates. The other
# smoke scripts bypass the cache (--no-cache), so nothing else depends on
# the shards being there.
rm -f _cache/shard-*.bin 2>/dev/null || true

echo "[paper_smoke] cache-cold paper run ($SCOPE, --jobs $PAR_JOBS)..."
MS_COLD=$(run_timed "$OUT_COLD")
echo "[paper_smoke] cache-warm paper run..."
MS_WARM=$(run_timed "$OUT_WARM")

if ! cmp -s "$OUT_COLD" "$OUT_WARM"; then
  echo "[paper_smoke] FAIL: cache-warm run changed the artefacts" >&2
  diff "$OUT_COLD" "$OUT_WARM" >&2 || true
  exit 1
fi
echo "[paper_smoke] artefacts identical cache-cold vs cache-warm"

SPEEDUP=$(awk "BEGIN { printf \"%.2f\", $MS_COLD / ($MS_WARM == 0 ? 1 : $MS_WARM) }")

# Soft drift gate on the cold wall time, against the committed numbers.
if [ -f BENCH_paper.json ]; then
  OLD_COLD=$(sed -n 's/.*"cold_wall_ms": \([0-9][0-9]*\),.*/\1/p' BENCH_paper.json | head -n 1)
  if [ -n "$OLD_COLD" ] && [ "$OLD_COLD" -gt 0 ]; then
    awk "BEGIN {
      pct = 100.0 * ($MS_COLD - $OLD_COLD) / $OLD_COLD
      if (pct > 25 || pct < -25)
        printf \"::warning ::paper protocol cold wall time drifted %+.1f%% (%d ms -> %d ms)\n\", pct, $OLD_COLD, $MS_COLD
    }"
  fi
fi

cat >BENCH_paper.json <<EOF
{
  "protocol": "--paper (32 cores, 300 ops, 10 seeds trim 3, retries 1..10); $SCOPE",
  "host_cores": $HOST_CORES,
  "parallel_jobs": $PAR_JOBS,
  "cold_wall_ms": $MS_COLD,
  "warm_wall_ms": $MS_WARM,
  "warm_speedup": $SPEEDUP,
  "outputs_identical": true
}
EOF

echo "[paper_smoke] cold: ${MS_COLD} ms   warm: ${MS_WARM} ms   cache speedup: ${SPEEDUP}x (host has ${HOST_CORES} core(s))"
echo "[paper_smoke] wrote BENCH_paper.json"
