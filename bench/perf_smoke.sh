#!/usr/bin/env sh
# Perf smoke test for the suite runner.
#
# Runs the tiny fixed suite (bench/main.exe --smoke fig8) once sequentially
# and once on min(4, host cores) domains, verifies the two outputs are
# byte-identical (the determinism guarantee), and records both wall-clock
# times plus the engine's hot-path counters (--perf) in BENCH_suite.json so
# the perf trajectory is tracked across PRs.
#
# On a host with fewer than 2 cores there is nothing parallel to measure:
# the "parallel" run is the sequential run again and the JSON says so
# (speedup null, parallel_meaningful false) instead of reporting a bogus
# slowdown from domain overhead.
#
# The disk cache is bypassed (--no-cache) so both runs actually compute.
#
# Usage: sh bench/perf_smoke.sh   (from the repository root or bench/)

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

# Clamp the parallel run to what the host can actually parallelise.
PAR_JOBS=$HOST_CORES
[ "$PAR_JOBS" -gt 4 ] && PAR_JOBS=4
[ "$PAR_JOBS" -lt 1 ] && PAR_JOBS=1

now_ms() {
  # POSIX date has no sub-second precision; prefer %N when GNU date is there.
  t=$(date +%s%N 2>/dev/null)
  case "$t" in
    *N) echo "$(date +%s)000" ;;
    *) echo "$((t / 1000000))" ;;
  esac
}

run_timed() { # $1 = jobs, $2 = output file; prints elapsed ms
  start=$(now_ms)
  "$BIN" --smoke --no-cache --jobs "$1" fig8 >"$2" 2>/dev/null
  end=$(now_ms)
  echo "$((end - start))"
}

OUT1=$(mktemp) OUTN=$(mktemp)
trap 'rm -f "$OUT1" "$OUTN"' EXIT

echo "[perf_smoke] sequential run (--jobs 1)..."
MS1=$(run_timed 1 "$OUT1")
echo "[perf_smoke] parallel run (--jobs $PAR_JOBS)..."
MSN=$(run_timed "$PAR_JOBS" "$OUTN")

if ! cmp -s "$OUT1" "$OUTN"; then
  echo "[perf_smoke] FAIL: --jobs 1 and --jobs $PAR_JOBS outputs differ" >&2
  diff "$OUT1" "$OUTN" >&2 || true
  exit 1
fi
echo "[perf_smoke] outputs identical across job counts"

echo "[perf_smoke] hot-path counters (--perf)..."
PERF_RAW=$("$BIN" --smoke --perf 2>/dev/null | awk '/^perfctr / { print $2, $3 }')
PERF_JSON=$(printf '%s\n' "$PERF_RAW" | awk '
  { printf "%s    \"%s\": %s", sep, $1, $2; sep = ",\n" }
  END { print "" }')

# Soft drift gate: compare the fresh counters against the committed
# BENCH_suite.json before overwriting it. A counter moving more than 10%
# in either direction gets a CI-annotation-style warning line; the script
# never fails on drift (counters legitimately move when the engine changes —
# the warning just makes the move visible in the PR).
if [ -f BENCH_suite.json ]; then
  OLD_PERF=$(awk -F'"' '/^    "/ { name = $2; val = $3; gsub(/[^0-9]/, "", val);
                                   if (val != "") print name, val }' BENCH_suite.json)
  printf '%s\n' "$PERF_RAW" | awk -v old_perf="$OLD_PERF" '
    BEGIN {
      n = split(old_perf, lines, "\n")
      for (i = 1; i <= n; i++) { split(lines[i], f, " "); old[f[1]] = f[2] }
    }
    {
      name = $1; new = $2 + 0
      if (name in old && old[name] + 0 > 0) {
        o = old[name] + 0
        pct = 100.0 * (new - o) / o
        if (pct > 10 || pct < -10)
          printf "::warning ::perfctr %s drifted %+.1f%% (%d -> %d)\n", name, pct, o, new
      }
    }'
fi

if [ "$HOST_CORES" -ge 2 ]; then
  SPEEDUP=$(awk "BEGIN { printf \"%.2f\", $MS1 / ($MSN == 0 ? 1 : $MSN) }")
  MEANINGFUL=true
  SUMMARY="speedup: ${SPEEDUP}x"
else
  # One core: both runs are sequential, a "speedup" would be noise.
  SPEEDUP=null
  MEANINGFUL=false
  SUMMARY="speedup: n/a (single-core host)"
fi

cat >BENCH_suite.json <<EOF
{
  "suite": "smoke-fig8 (4 configs x 19 benchmarks, 4 cores, 40 ops, 2 seeds, retries [2,5])",
  "host_cores": $HOST_CORES,
  "parallel_jobs": $PAR_JOBS,
  "parallel_meaningful": $MEANINGFUL,
  "jobs1_wall_ms": $MS1,
  "jobsN_wall_ms": $MSN,
  "speedup_jobsN_over_jobs1": $SPEEDUP,
  "outputs_identical": true,
  "perfctr": {
$PERF_JSON  }
}
EOF

echo "[perf_smoke] jobs=1: ${MS1} ms   jobs=$PAR_JOBS: ${MSN} ms   $SUMMARY (host has ${HOST_CORES} core(s))"
echo "[perf_smoke] wrote BENCH_suite.json"
