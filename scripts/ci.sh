#!/bin/sh
# CI smoke: build everything (library, CLI, examples, bench harness, the
# smoke driver test/smoke), run the full test suite (once at the default
# pool width and once with SLC_JOBS=4 so the registry compile runs its
# parallel merge), run every example program and every paper artifact,
# exercise the CLI (an over-cap property line, observability, -j
# byte-identity, -j past the core count, cache, snapshot/resume, pack),
# drive the daemon over its socket with the smoke driver, then run the
# serving benchmark's selftest.
# Nothing here writes a tracked file. Run from the repository root.
set -eu

dune build @runtest
dune build bin examples bench test/smoke
SMOKE=_build/default/test/smoke/smoke.exe

# The whole suite again with the process-default pool width forced to 4
# (clamped to the core count, so this is 2 on a 2-core host): the
# ?jobs-defaulted registry compile runs its parallel merge under the
# existing pins on any host with more than one core.
echo "--- dune runtest with SLC_JOBS=4"
SLC_JOBS=4 dune runtest --force

# Examples are documentation that must keep executing.
for ex in quickstart ltl_classification buchi_decomposition \
          ctl_classification security_monitor model_checking; do
  echo "--- examples/$ex"
  dune exec "examples/$ex.exe" > /dev/null
done

# The paper's artifacts, regenerated by the bench harness: each must
# exit 0 and report the counterexamples and theorem sweeps as verified.
echo "--- bench artifacts"
art=$(dune exec bench/main.exe -- fig1 fig2 rem ctl rabin lattice-theorems gumm)
echo "$art" | grep -q \
  "^Lemma 6 (a has no decomposition under cl a = b): verified by exhaustion$"
echo "$art" | grep -q \
  "^Theorem 7 fails for every closure with cl a = s: verified (all candidate closures)$"
[ "$(echo "$art" | grep -c ': all theorems hold$')" -eq 8 ] \
  || { echo "expected 8 lattices with all theorems holding"; exit 1; }
echo "$art" | grep -Eq "^p3 +a & F !a +neither +lcl = p1$"

# CLI smoke: one subcommand of each flavour.
dune exec bin/slc.exe -- classify "a & F !a" > /dev/null
dune exec bin/slc.exe -- stats "G (a -> F !a)" > /dev/null
dune exec bin/slc.exe -- theorems > /dev/null

# Runtime-monitoring smoke: the checked-in example props/trace pair must
# produce exactly this verdict summary, with exit code 1 (violations
# found, inputs well-formed).
echo "--- slc monitor smoke"
status=0
out=$(dune exec bin/slc.exe -- monitor --props examples/monitor.props \
        --trace examples/monitor.events) || status=$?
[ "$status" -eq 1 ]
echo "$out" | grep -q \
  "summary: traces=2 events=7 props=5 monitors=3 violations=3 vacuous=2 live=1 tripped=2 retired_admissible=1"
echo "$out" | grep -q "VIOLATION G (a -> X !a) at event 4"
echo "$out" | grep -Fq 'props: 5 loaded, 3 distinct monitor(s), 2 vacuous'

# A property past the tableau's closure cap (G !w for a 10-letter word)
# is reported and skipped like a parse error: exit 2 (a malformed input),
# and the good lines' report is the one without the line.
echo "--- slc monitor over-cap line smoke"
cap=$(mktemp -d /tmp/slc-ci.XXXXXX)
{ sed -n '1,3p' examples/monitor.props
  echo "G !(a & X (a & X (a & X (a & X (a & X (a & X (a & X (a & X (a & X (a))))))))))"
  sed '1,3d' examples/monitor.props; } > "$cap/props"
status=0
dune exec bin/slc.exe -- monitor --props "$cap/props" \
  --trace examples/monitor.events > "$cap/out" 2> "$cap/err" || status=$?
[ "$status" -eq 2 ]
grep -Fxq "$cap/props:4: formula closure too large (line skipped)" "$cap/err"
status=0
dune exec bin/slc.exe -- monitor --props examples/monitor.props \
  --trace examples/monitor.events > "$cap/good" || status=$?
[ "$status" -eq 1 ]
sed -i 's/events_per_s=[0-9]*/events_per_s=X/' "$cap/out" "$cap/good"
diff "$cap/good" "$cap/out" \
  || { echo "over-cap line changed the good lines' report"; exit 1; }
rm -rf "$cap"

# Parallel byte-identity: the same monitor run at -j 1 and -j 4 must
# produce byte-for-byte identical reports (modulo the wall-clock
# events_per_s rate, which differs between any two runs). This is the
# end-to-end form of the jobs-invariance pins.
echo "--- slc -j byte-identity smoke"
j1=$(mktemp /tmp/slc-ci.XXXXXX.j1) ; j4=$(mktemp /tmp/slc-ci.XXXXXX.j4)
for j in 1 4; do
  status=0
  dune exec bin/slc.exe -- monitor -j "$j" --props examples/monitor.props \
    --trace examples/monitor.events --json > "$j1.raw" || status=$?
  [ "$status" -eq 1 ]
  sed 's/"events_per_s": [0-9.]*/"events_per_s": X/' "$j1.raw" \
    > "$([ "$j" -eq 1 ] && echo "$j1" || echo "$j4")"
done
rm -f "$j1.raw"
diff "$j1" "$j4" || { echo "monitor -j 1 vs -j 4 reports differ"; exit 1; }
rm -f "$j1" "$j4"

# A -j far past the core count, and past the runtime's 128-domain limit,
# is clamped to the core count where it enters the pool: 256 properties
# compiled at -j 200 must give the -j 1 report, not an exit 125.
echo "--- slc monitor -j 200 smoke"
wide=$(mktemp -d /tmp/slc-ci.XXXXXX)
for i in $(seq 0 255); do
  case $((i % 4)) in
    0) echo "G !a" ;;
    1) echo "G !(a & X a)" ;;
    2) echo "G !(!a & X (!a & X !a))" ;;
    3) echo "G !(a & X (!a & X a))" ;;
  esac
done > "$wide/props"
for j in 1 200; do
  status=0
  dune exec bin/slc.exe -- monitor -j "$j" --props "$wide/props" \
    --trace examples/monitor.events --json > "$wide/raw" || status=$?
  [ "$status" -eq 0 ] || [ "$status" -eq 1 ]
  sed 's/"events_per_s": [0-9.]*/"events_per_s": X/' "$wide/raw" \
    > "$wide/j$j"
done
diff "$wide/j1" "$wide/j200" \
  || { echo "monitor -j 1 vs -j 200 reports differ"; exit 1; }
rm -rf "$wide"

# Observability smoke: the same run with metrics collection on must keep
# the same exit code and verdict summary, print the engine/registry
# metric families in the Prometheus exposition, and emit well-formed
# trace-event JSONL (one JSON object per line).
echo "--- slc monitor --metrics smoke"
trace_out=$(mktemp /tmp/slc-ci.XXXXXX.trace.jsonl)
status=0
mout=$(dune exec bin/slc.exe -- monitor --props examples/monitor.props \
         --trace examples/monitor.events --metrics - \
         --trace-out "$trace_out") || status=$?
[ "$status" -eq 1 ]
echo "$mout" | grep -q \
  "summary: traces=2 events=7 props=5 monitors=3 violations=3 vacuous=2 live=1 tripped=2 retired_admissible=1"
for metric in engine_events_total engine_chunks_total \
              engine_retired_tripped_total engine_retired_admissible_total \
              engine_live_monitors engine_chunk_latency_ns_count \
              engine_minor_words_total registry_props_total \
              registry_monitors_total registry_hashcons_hits_total \
              registry_compile_ns_count ltl_translate_runs_total \
              nfa_determinize_runs_total digraph_scc_runs_total; do
  echo "$mout" | grep -q "^$metric" \
    || { echo "missing metric: $metric"; exit 1; }
done
echo "$mout" | grep -q "^engine_events_total 7$"
echo "$mout" | grep -q "^registry_hashcons_hits_total 2$"
"$SMOKE" trace-jsonl "$trace_out"
rm -f "$trace_out"

# Report-size smoke: 40k traces of 4 events each. The --json report must
# load as JSON and take under 4x the text report's wall time (best of
# 3 each): writing the report is linear in the number of traces, like
# the text rendering.
echo "--- slc monitor --json 40k-trace smoke"
"$SMOKE" report-size

# Compile-cache smoke: a cold run against an empty cache directory must
# store entries and change nothing about the report; the warm rerun must
# serve every probe from the cache (cache_hits_total = distinct sources,
# cache_misses_total = 0); and the cached reports — cold, warm, warm at
# -j 4 — must be byte-identical to the uncached report (modulo the
# wall-clock events_per_s rate). This is the end-to-end form of the
# cold = warm = uncached test pin.
echo "--- slc --cache cold/warm smoke"
cache_dir=$(mktemp -d /tmp/slc-ci-cache.XXXXXX)
nocache=$(mktemp /tmp/slc-ci.XXXXXX.nocache)
cached=$(mktemp /tmp/slc-ci.XXXXXX.cached)
run_monitor_on() { # run_monitor_on OUT TRACE [extra flags...]
  _out=$1; _trace=$2; shift 2
  status=0
  dune exec bin/slc.exe -- monitor --props examples/monitor.props \
    --trace "$_trace" --json "$@" > "$_out.raw" || status=$?
  [ "$status" -eq 1 ]
  sed 's/"events_per_s": [0-9.]*/"events_per_s": X/' "$_out.raw" > "$_out"
  rm -f "$_out.raw"
}
run_monitor() { # run_monitor OUT [extra flags...]
  _o=$1; shift
  run_monitor_on "$_o" examples/monitor.events "$@"
}
run_monitor "$nocache"
run_monitor "$cached" --cache "$cache_dir"   # cold: misses, stores
diff "$nocache" "$cached" || { echo "cold cached report differs"; exit 1; }
[ "$(ls "$cache_dir" | wc -l)" -gt 0 ] || { echo "cold run stored nothing"; exit 1; }
run_monitor "$cached" --cache "$cache_dir"   # warm: every probe hits
diff "$nocache" "$cached" || { echo "warm cached report differs"; exit 1; }
run_monitor "$cached" --cache "$cache_dir" -j 4
diff "$nocache" "$cached" || { echo "warm -j 4 cached report differs"; exit 1; }
status=0
wout=$(dune exec bin/slc.exe -- monitor --props examples/monitor.props \
         --trace examples/monitor.events --cache "$cache_dir" \
         --metrics -) || status=$?
[ "$status" -eq 1 ]
echo "$wout" | grep -q "^cache_hits_total 5$" \
  || { echo "warm run did not hit the cache"; exit 1; }
echo "$wout" | grep -q "^cache_misses_total 0$" \
  || { echo "warm run missed the cache"; exit 1; }
# SLC_CACHE is the env-default spelling of --cache.
status=0
SLC_CACHE="$cache_dir" dune exec bin/slc.exe -- monitor \
  --props examples/monitor.props --trace examples/monitor.events --json \
  > "$cached.raw" || status=$?
[ "$status" -eq 1 ]
sed 's/"events_per_s": [0-9.]*/"events_per_s": X/' "$cached.raw" > "$cached"
rm -f "$cached.raw"
diff "$nocache" "$cached" || { echo "SLC_CACHE report differs"; exit 1; }
rm -f "$nocache" "$cached"

# Session snapshot/resume smoke: feed the first half of the stream and
# snapshot, resume in a fresh process on the second half, and the final
# report must be byte-identical to the uninterrupted run (modulo the
# wall-clock events_per_s rate) — at -j 1, at -j 4, and resuming with a
# warm --cache (the registry is recompiled from the cache and must
# fingerprint identically). A corrupted snapshot must refuse to resume
# with exit 2, never a wrong-but-running session.
echo "--- slc monitor --snapshot/--resume smoke"
snap=$(mktemp /tmp/slc-ci.XXXXXX.slsession)
half1=$(mktemp /tmp/slc-ci.XXXXXX.half1)
half2=$(mktemp /tmp/slc-ci.XXXXXX.half2)
resumed=$(mktemp /tmp/slc-ci.XXXXXX.resumed)
full=$(mktemp /tmp/slc-ci.XXXXXX.full)
nlines=$(wc -l < examples/monitor.events)
mid=$((nlines / 2))
head -n "$mid" examples/monitor.events > "$half1"
tail -n +"$((mid + 1))" examples/monitor.events > "$half2"
for j in 1 4; do
  run_monitor "$full" -j "$j"
  status=0
  dune exec bin/slc.exe -- monitor -j "$j" --props examples/monitor.props \
    --trace "$half1" --snapshot "$snap" > /dev/null || status=$?
  [ "$status" -le 1 ] || { echo "snapshot run failed"; exit 1; }
  run_monitor_on "$resumed" "$half2" -j "$j" --resume "$snap"
  diff "$full" "$resumed" \
    || { echo "resumed -j $j report differs from uninterrupted"; exit 1; }
done
# Resume with a warm compile cache: recompiled-from-cache registry must
# accept the snapshot and reproduce the same report.
sess_cache_dir=$(mktemp -d /tmp/slc-ci-cache.XXXXXX)
run_monitor "$full"
status=0
dune exec bin/slc.exe -- monitor --props examples/monitor.props \
  --trace "$half1" --cache "$sess_cache_dir" --snapshot "$snap" > /dev/null \
  || status=$?
[ "$status" -le 1 ] || { echo "cached snapshot run failed"; exit 1; }
run_monitor_on "$resumed" "$half2" --resume "$snap" --cache "$sess_cache_dir"
diff "$full" "$resumed" \
  || { echo "cache-warmed resume report differs"; exit 1; }
# Periodic snapshots leave a valid final snapshot behind.
status=0
dune exec bin/slc.exe -- monitor --props examples/monitor.props \
  --trace examples/monitor.events --snapshot "$snap" --snapshot-every 2 \
  > /dev/null || status=$?
[ "$status" -eq 1 ] || { echo "--snapshot-every run failed"; exit 1; }
# A corrupted snapshot must exit 2.
printf garbage > "$snap"
status=0
dune exec bin/slc.exe -- monitor --props examples/monitor.props \
  --trace "$half2" --resume "$snap" > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "corrupt snapshot not rejected"; exit 1; }
# ... and a snapshot from a different registry must exit 2 too.
dune exec bin/slc.exe -- monitor --props examples/monitor.props \
  --trace "$half1" --snapshot "$snap" > /dev/null || true
otherprops=$(mktemp /tmp/slc-ci.XXXXXX.props)
printf 'G a\n' > "$otherprops"
status=0
dune exec bin/slc.exe -- monitor --props "$otherprops" \
  --trace "$half2" --resume "$snap" > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "foreign snapshot not rejected"; exit 1; }
rm -f "$snap" "$half1" "$half2" "$resumed" "$full" "$otherprops"
rm -rf "$sess_cache_dir"

# Pack smoke: compile the example props into one artifact, list it back.
echo "--- slc pack/unpack smoke"
pack=$(mktemp /tmp/slc-ci.XXXXXX.slpack)
dune exec bin/slc.exe -- pack --props examples/monitor.props -o "$pack" \
  | grep -q "packed 5 props (3 distinct monitors)"
dune exec bin/slc.exe -- unpack "$pack" | grep -q "alphabet: 2"
# Corruption must read as a clean CLI error, not a crash.
printf garbage > "$pack"
status=0
dune exec bin/slc.exe -- unpack "$pack" > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "corrupt pack not rejected"; exit 1; }
rm -f "$pack"
rm -rf "$cache_dir"

# Version smoke: the CLI must advertise the artifact kinds it reads.
echo "--- slc version smoke"
vout=$(dune exec bin/slc.exe -- version)
echo "$vout" | grep -q "^slc 1.0.0$"
echo "$vout" | grep -q "artifact format: sl-artifact/1"
echo "$vout" | grep -q "dfa(1), buchi(2), digraph(3), pack(4), session(5)"
echo "$vout" | grep -q "sl-monitor-report/1"
echo "$vout" | grep -q "sl-status/1"

# Serving smokes: a real `slc serve` must agree with the offline report
# across a reload, descriptor exhaustion, 1100 held connections, a slow
# reader, a snapshot/restart and a 1M-event soak, and answer /status,
# /healthz, /traces, /monitors and slc top (see test/smoke/smoke.ml).
# Holding 1100 connections needs the descriptor limit raised.
echo "--- slc serve smokes"
(ulimit -n 4096; exec "$SMOKE" serve)

# The benchmark's selftest: short runs of every workload through a real
# daemon with every verdict checked, plus corrupted streams the checker
# must reject — a served-verdict regression fails here, not at the next
# benchmark run.
echo "--- perfbench selftest"
python3 perfbench/run.py --selftest
