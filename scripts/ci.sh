#!/bin/sh
# CI smoke: build everything (library, CLI, examples, bench harness, the
# smoke driver test/smoke), run the full test suite, run every example
# program and every paper artifact, exercise the CLI (over-cap formulas,
# observability, snapshot/resume, pack), drive the daemon over its socket
# with the smoke driver, then run the serving benchmark's selftest.
# Nothing here writes a tracked file. Run from the repository root.
set -eu

dune build @runtest
dune build bin examples bench test/smoke
SMOKE=_build/default/test/smoke/smoke.exe

# The library's size, so that a change's net lines can be read off.
lib_lines=$(find lib \( -name '*.ml' -o -name '*.mli' -o -name '*.c' \) \
              -exec cat {} + | wc -l | tr -d ' ')
echo "--- lib/ holds $lib_lines lines of .ml/.mli/.c"

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

# stats classifies the way classify does, through the negation's
# automaton: this safety property (whose rank-based complement needs
# over 1.5 GB) classifies in a few MB, under an address-space limit.
echo "--- slc stats smoke under ulimit -v"
status=0
sout=$(ulimit -v 1500000
       exec _build/default/bin/slc.exe stats \
         "G !(a & X (a & X (a & X (a & X a))))") || status=$?
[ "$status" -eq 0 ] || { echo "slc stats under ulimit -v: exit $status"; exit 1; }
echo "$sout" | grep -qx "classification:  safety" \
  || { echo "slc stats under ulimit -v: wrong classification"; exit 1; }

# decompose verifies its three claims the same way, through the
# negation's automaton: this formula's 22-state automaton exhausts the
# address-space limit under the rank-based complement.
echo "--- slc decompose smoke under ulimit -v"
status=0
dout=$(ulimit -v 1500000
       exec _build/default/bin/slc.exe decompose "(a U !a) & G F a") \
  || status=$?
[ "$status" -eq 0 ] \
  || { echo "slc decompose under ulimit -v: exit $status"; exit 1; }
echo "$dout" | grep -qx "L(B) = L(B_S) ∩ L(B_L): verified" \
  || { echo "slc decompose under ulimit -v: not verified"; exit 1; }

# One-shot monitor: the empty property's certificate is the empty
# prefix, and a symbol outside the alphabet or a proposition other
# than a is refused before any output, exit 2 like malformed streaming input, never an escaped
# exception.
echo "--- slc monitor one-shot smoke"
status=0
oout=$(_build/default/bin/slc.exe monitor false) || status=$?
[ "$status" -eq 1 ] || { echo "slc monitor false: exit $status"; exit 1; }
echo "$oout" | grep -qx "shortest bad prefix: \[\]" \
  || { echo "slc monitor false: wrong certificate"; exit 1; }
oerr=$(mktemp /tmp/slc-ci.XXXXXX.err)
status=0
oout=$(_build/default/bin/slc.exe monitor "G a" 5 2> "$oerr") || status=$?
[ "$status" -eq 2 ] || { echo "slc monitor 'G a' 5: exit $status"; exit 1; }
[ -z "$oout" ] || { echo "slc monitor 'G a' 5: output before refusal"; exit 1; }
if grep -q "uncaught exception" "$oerr"; then
  echo "slc monitor 'G a' 5: uncaught exception"; exit 1
fi
grep -qx "monitor: symbol 5 outside alphabet \[0, 2)" "$oerr" \
  || { echo "slc monitor 'G a' 5: unexpected message"; exit 1; }
# A proposition other than a is refused the same way: the one-shot
# letters would read it as false.
status=0
oout=$(_build/default/bin/slc.exe monitor "b & a" 2> "$oerr") || status=$?
[ "$status" -eq 2 ] || { echo "slc monitor 'b & a': exit $status"; exit 1; }
[ -z "$oout" ] || { echo "slc monitor 'b & a': output before refusal"; exit 1; }
[ "$(wc -l < "$oerr")" -eq 1 ] && grep -q "unknown proposition b" "$oerr" \
  || { echo "slc monitor 'b & a': unexpected message"; exit 1; }
rm -f "$oerr"

# A rank-based complement past its --max-states budget is refused like
# any other bad input: exit 1 and one line on stderr, never an escaped
# Complement.Too_large.
echo "--- slc complement --max-states smoke"
cerr=$(mktemp /tmp/slc-ci.XXXXXX.err)
status=0
_build/default/bin/slc.exe complement --max-states 3 "G F a" \
  > /dev/null 2> "$cerr" || status=$?
[ "$status" -eq 1 ] \
  || { echo "slc complement --max-states 3: exit $status"; exit 1; }
[ "$(wc -l < "$cerr")" -eq 1 ] \
  || { echo "slc complement --max-states 3: not one stderr line"; exit 1; }
if grep -q "uncaught exception" "$cerr"; then
  echo "slc complement --max-states 3: uncaught exception"; exit 1
fi
rm -f "$cerr"

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
overcap="G !(a & X (a & X (a & X (a & X (a & X (a & X (a & X (a & X (a & X (a))))))))))"
{ sed -n '1,3p' examples/monitor.props
  echo "$overcap"
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
# The same formula on the command line of a one-shot subcommand is
# refused like a parse error: exit 1 and one line of message.
for cmd in classify decompose stats complement monitor; do
  status=0
  dune exec bin/slc.exe -- "$cmd" "$overcap" > "$cap/out" 2> "$cap/err" \
    || status=$?
  [ "$status" -eq 1 ] || { echo "slc $cmd over-cap: exit $status"; exit 1; }
  [ "$(cat "$cap/err")" = "formula closure too large" ] \
    || { echo "slc $cmd over-cap: unexpected message"; exit 1; }
done
# A props path that opens but cannot be read (a directory) is an input
# error: exit 2 with the path and the cause, never an escaped exception.
for cmd in monitor pack serve; do
  status=0
  case $cmd in
    monitor) set -- --trace examples/monitor.events ;;
    pack) set -- -o "$cap/x.slpack" ;;
    serve) set -- --socket "$cap/s.sock" ;;
  esac
  dune exec bin/slc.exe -- "$cmd" --props "$cap" "$@" > /dev/null \
    2> "$cap.err" || status=$?
  [ "$status" -eq 2 ] || { echo "slc $cmd --props DIR: exit $status"; exit 1; }
  grep -Fq "$cap: Is a directory" "$cap.err" \
    || { echo "slc $cmd --props DIR: unexpected message"; exit 1; }
done
rm -rf "$cap" "$cap.err"

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

# Session snapshot/resume smoke: feed the first half of the stream and
# snapshot, resume in a fresh process on the second half, and the final
# report must be byte-identical to the uninterrupted run (modulo the
# wall-clock events_per_s rate). A corrupted snapshot must refuse to
# resume with exit 2, never a wrong-but-running session.
echo "--- slc monitor --snapshot/--resume smoke"
run_monitor_on() { # run_monitor_on OUT TRACE [extra flags...]
  _out=$1; _trace=$2; shift 2
  status=0
  dune exec bin/slc.exe -- monitor --props examples/monitor.props \
    --trace "$_trace" --json "$@" > "$_out.raw" || status=$?
  [ "$status" -eq 1 ]
  sed 's/"events_per_s": [0-9.]*/"events_per_s": X/' "$_out.raw" > "$_out"
  rm -f "$_out.raw"
}
snap=$(mktemp /tmp/slc-ci.XXXXXX.slsession)
half1=$(mktemp /tmp/slc-ci.XXXXXX.half1)
half2=$(mktemp /tmp/slc-ci.XXXXXX.half2)
resumed=$(mktemp /tmp/slc-ci.XXXXXX.resumed)
full=$(mktemp /tmp/slc-ci.XXXXXX.full)
nlines=$(wc -l < examples/monitor.events)
mid=$((nlines / 2))
head -n "$mid" examples/monitor.events > "$half1"
tail -n +"$((mid + 1))" examples/monitor.events > "$half2"
run_monitor_on "$full" examples/monitor.events
status=0
dune exec bin/slc.exe -- monitor --props examples/monitor.props \
  --trace "$half1" --snapshot "$snap" > /dev/null || status=$?
[ "$status" -le 1 ] || { echo "snapshot run failed"; exit 1; }
run_monitor_on "$resumed" "$half2" --resume "$snap"
diff "$full" "$resumed" \
  || { echo "resumed report differs from uninterrupted"; exit 1; }
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

# The same snapshot/resume round trip over a fleet the engine splits
# into several product groups: G !w for every word of length 3..6
# (120 monitors), on 4000 events over 32 traces.
echo "--- slc monitor --snapshot/--resume smoke, split fleet"
wdir=$(mktemp -d /tmp/slc-ci.XXXXXX)
"$SMOKE" words120 "$wdir"
run_split() { # run_split OUT TRACE [extra flags...]
  _out=$1; _trace=$2; shift 2
  status=0
  dune exec bin/slc.exe -- monitor --props "$wdir/words.props" \
    --trace "$_trace" --json "$@" > "$_out.raw" || status=$?
  [ "$status" -eq 1 ]
  sed 's/"events_per_s": [0-9.]*/"events_per_s": X/' "$_out.raw" > "$_out"
  rm -f "$_out.raw"
}
head -n 2000 "$wdir/words.events" > "$wdir/half1"
tail -n +2001 "$wdir/words.events" > "$wdir/half2"
run_split "$wdir/full" "$wdir/words.events"
status=0
dune exec bin/slc.exe -- monitor --props "$wdir/words.props" \
  --trace "$wdir/half1" --snapshot "$wdir/snap" > /dev/null || status=$?
[ "$status" -le 1 ] || { echo "split-fleet snapshot run failed"; exit 1; }
run_split "$wdir/resumed" "$wdir/half2" --resume "$wdir/snap"
diff "$wdir/full" "$wdir/resumed" \
  || { echo "split fleet: resumed report differs from uninterrupted"; exit 1; }
rm -rf "$wdir"

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

# Version smoke: the CLI must advertise the artifact kinds it reads.
echo "--- slc version smoke"
vout=$(dune exec bin/slc.exe -- version)
echo "$vout" | grep -q "^slc 1.0.0$"
echo "$vout" | grep -q "artifact format: sl-artifact/1"
echo "$vout" | grep -qx "artifact kinds: pack(4), session(5)"
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
