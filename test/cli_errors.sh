#!/bin/sh
# Out-of-range numeric flags, unknown workload names and unknown arrival
# processes must be command-line errors: exit 124 (cmdliner's CLI-error
# code) with a message naming the flag, never an uncaught exception (exit
# 125), a bare exit 2 or a silently accepted run (exit 0). The boundary
# values themselves must still be accepted. An unknown suite
# artefact or size is a command-line error too; an uncreatable suite --csv
# directory is an error naming it, reported before anything is simulated;
# an accepted run --trace-out writes a whole Chrome trace document;
# `suite --size smoke all` prints every artefact's title in canonical order;
# and bench/main.exe, which only runs the gate, points anything else at
# `clear_sim suite`.
#
# Usage: sh test/cli_errors.sh path/to/clear_sim.exe path/to/bench/main.exe

set -u

bin=$1
bench=$2
fail=0

reject() {
  flag=$1
  shift
  err=$("$bin" "$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 124 ]; then
    echo "FAIL: clear_sim $*: exit $code, expected 124"
    fail=1
  elif ! printf '%s\n' "$err" | grep -q -- "'$flag'"; then
    echo "FAIL: clear_sim $*: error message does not name $flag"
    fail=1
  fi
}

accept() {
  if ! "$bin" "$@" >/dev/null 2>&1; then
    echo "FAIL: clear_sim $*: rejected a value inside the bound"
    fail=1
  fi
}

for cmd in run check openloop; do
  reject --cores "$cmd" --cores 0
  reject --cores "$cmd" --cores 65
done
reject --requests openloop --requests 0
reject --loads openloop --loads=-5
reject --loads openloop --loads 30,0
reject --keys openloop --keys 0
reject --ops run --ops=-1
reject --retries run --retries=-2
reject --retries openloop --retries=-1
reject --heat openloop --heat=-2 --process burst
reject --cap openloop --cap=-1
reject --theta openloop --theta nan
reject --theta openloop --theta=-1
reject --trace run --trace=-5
reject --fault-blind-line check --fault-blind-line=-1
for cmd in suite openloop sched; do
  reject --jobs "$cmd" --jobs 0
done
for cmd in run check analyze sched openloop suite; do
  reject -w "$cmd" -w nosuch
done
reject --process openloop --process foo

# An unwritable --trace-out file is an error naming the file, reported
# before the simulation runs: non-zero exit, but not an uncaught exception.
trace_out=/nonexistent/dir/t.json
err=$("$bin" run --trace-out "$trace_out" 2>&1 >/dev/null)
code=$?
if [ "$code" -eq 0 ] || [ "$code" -eq 125 ]; then
  echo "FAIL: clear_sim run --trace-out $trace_out: exit $code"
  fail=1
elif ! printf '%s\n' "$err" | grep -q -- "$trace_out"; then
  echo "FAIL: clear_sim run --trace-out $trace_out: error message does not name the file"
  fail=1
fi

# A writable --trace-out file receives one whole Chrome trace document.
trace_out=$(mktemp) || exit 1
"$bin" run --cores 2 --ops 5 --trace-out "$trace_out" >/dev/null 2>&1
code=$?
head=$(head -c 16 "$trace_out")
tail=$(tail -c 23 "$trace_out")
rm -f "$trace_out"
if [ "$code" -ne 0 ] || [ "$head" != '{"traceEvents":[' ] || [ "$tail" != '"displayTimeUnit":"ns"}' ]; then
  echo "FAIL: clear_sim run --trace-out: exit $code, document starts '$head', ends '$tail'"
  fail=1
fi

csv_dir=/nonexistent/x
err=$("$bin" suite --csv "$csv_dir" table1 2>&1 >/dev/null)
code=$?
if [ "$code" -eq 0 ] || [ "$code" -eq 125 ]; then
  echo "FAIL: clear_sim suite --csv $csv_dir table1: exit $code"
  fail=1
elif ! printf '%s\n' "$err" | grep -q -- "$csv_dir"; then
  echo "FAIL: clear_sim suite --csv $csv_dir table1: error message does not name the directory"
  fail=1
elif printf '%s\n' "$err" | grep -q "running full suite"; then
  echo "FAIL: clear_sim suite --csv $csv_dir table1: simulated before failing"
  fail=1
fi

# Artefacts that are not derived from the sweep never start it.
err=$("$bin" suite --size smoke table1 table2 storage 2>&1 >/dev/null)
code=$?
if [ "$code" -ne 0 ] || printf '%s\n' "$err" | grep -q "running full suite"; then
  echo "FAIL: clear_sim suite table1 table2 storage: exit $code or ran the sweep"
  fail=1
fi

# The `all` path renders every artefact once, in canonical order, with the
# Figure 8 companion right after Figure 8.
out=$("$bin" suite --size smoke --no-cache all 2>/dev/null)
code=$?
titles=$(printf '%s\n' "$out" | grep '^== .* ==$')
expected='== Table 1: Characterization of ARs (static analysis) ==
== Table 2: Baseline system configuration ==
== Figure 1: ARs that keep their footprint on the first retry (baseline) ==
== Figure 8: Normalized execution time (lower is better) ==
== Figure 8 (companion): time running aborted in discovery ==
== Figure 9: Aborts per committed transaction ==
== Figure 10: Normalized energy consumption (lower is better) ==
== Figure 11: Abort breakdown per type (aborts per commit) ==
== Figure 12: Commit breakdown per mode ==
== Figure 13: Commit breakdown per retries (excluding 0-retry commits) ==
== Headline numbers: paper vs. measured ==
== Ablation: CLEAR design choices (cycles, conversions) ==
== Extension: speculation front-ends (cycles; SLE fallback takes the region'"'"'s own lock) ==
== Storage overhead per core (paper S5: 988.5 bytes) =='
if [ "$code" -ne 0 ] || [ "$titles" != "$expected" ]; then
  echo "FAIL: clear_sim suite --size smoke --no-cache all: exit $code or titles differ:"
  printf '%s\n' "$titles"
  fail=1
fi

err=$("$bin" suite --size smoke nosuchfig 2>&1 >/dev/null)
code=$?
if [ "$code" -ne 124 ] || ! printf '%s\n' "$err" | grep -q nosuchfig; then
  echo "FAIL: clear_sim suite nosuchfig: exit $code, expected 124 naming the artefact"
  fail=1
fi

"$bin" suite --size huge table1 >/dev/null 2>&1
code=$?
if [ "$code" -ne 124 ]; then
  echo "FAIL: clear_sim suite --size huge: exit $code, expected 124"
  fail=1
fi

err=$("$bench" fig8 2>&1 >/dev/null)
code=$?
if [ "$code" -ne 2 ] || ! printf '%s\n' "$err" | grep -q "clear_sim suite"; then
  echo "FAIL: bench/main.exe fig8: exit $code, expected 2 naming clear_sim suite"
  fail=1
fi

accept run --cores 1 --ops 1 --retries 0
accept run --cores 62 --ops 1
accept run --cores 1 --ops 1 --trace 0
accept openloop --theta 0 --heat 0 --process burst --cap 0 --requests 20 --loads 30 --jobs 1

exit $fail
