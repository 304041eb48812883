#!/usr/bin/env bash
# Integration tests for the xaos command-line tool. Invoked by dune with
# the binary's path as $1; any failed assertion aborts the run.
set -eu

XAOS="$1"
WORK="$(mktemp -d)"
# a failed assertion must not leave a background server holding the
# output pipe open
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

fail() { echo "cli_test: $*" >&2; exit 1; }

expect() { # expect <description> <expected> <actual>
  if [ "$2" != "$3" ]; then
    fail "$1: expected [$2], got [$3]"
  fi
}

# --- eval over a file, paper example --------------------------------------
cat > "$WORK/fig2.xml" <<'EOF'
<X><Y><W/><Z><V/><V/><W><W/></W></Z><U/></Y><Y><Z><W/></Z><U/></Y></X>
EOF
OUT=$("$XAOS" eval '/descendant::Y[child::U]/descendant::W[ancestor::Z/child::V]' "$WORK/fig2.xml")
expect "paper solution" "W(7)@4
W(8)@5" "$OUT"

# --- eval from stdin, count ------------------------------------------------
OUT=$(echo '<a><b/><c><b/></c></a>' | "$XAOS" eval --count '//b')
expect "count from stdin" "2" "$OUT"

# --- dom engine agrees -----------------------------------------------------
OUT=$("$XAOS" eval --engine dom --count '//W[ancestor::Z]' "$WORK/fig2.xml")
expect "dom engine" "3" "$OUT"
OUT=$("$XAOS" eval --engine dom-dedup --count '//W[ancestor::Z]' "$WORK/fig2.xml")
expect "dom-dedup engine" "3" "$OUT"

# --- tuples ----------------------------------------------------------------
OUT=$(echo '<a><b/><b/></a>' | "$XAOS" eval --tuples '/$a/$b' | tail -2)
expect "tuples" "(a(1)@1, b(2)@2)
(a(1)@1, b(3)@2)" "$OUT"

# --- attribute and text extensions ----------------------------------------
OUT=$(echo '<m><i k="1">x</i><i>y</i></m>' | "$XAOS" eval --count '//i[@k]')
expect "attribute test" "1" "$OUT"
OUT=$(echo "<m><i>ab</i><i>cd</i></m>" | "$XAOS" eval --count "//i[contains(text(),'c')]")
expect "text test" "1" "$OUT"

# --- explain ---------------------------------------------------------------
OUT=$("$XAOS" explain '//listitem/ancestor::category//name' | grep -c 'x-dag')
expect "explain shows x-dag" "1" "$OUT"
OUT=$("$XAOS" explain '/parent::q' | grep -c 'unsatisfiable')
expect "explain flags unsatisfiable" "1" "$OUT"

# --- trace -------------------------------------------------------------------
OUT=$("$XAOS" trace '/descendant::Y[child::U]/descendant::W[ancestor::Z/child::V]' "$WORK/fig2.xml" | grep -c 'undo$')
expect "trace shows the undo" "1" "$OUT"

# --- exit-code taxonomy ------------------------------------------------------
# 0 ok, 1 query error, 2 I/O error, 3 ill-formed input, 4 limit tripped
code() { # code <expected> <cmd...>
  local expected="$1"; shift
  set +e
  "$@" >/dev/null 2>&1 </dev/null
  local actual=$?
  set -e
  expect "exit code of: $*" "$expected" "$actual"
}
echo '<a><b/></a>' > "$WORK/small.xml"
echo '<a><b></a>'  > "$WORK/bad.xml"
code 1 "$XAOS" eval '/a[' "$WORK/small.xml"
code 2 "$XAOS" eval '/a' "$WORK/no_such_file.xml"
code 3 "$XAOS" eval '/a' "$WORK/bad.xml"
code 4 "$XAOS" eval --max-depth 1 '/a' "$WORK/small.xml"
code 4 "$XAOS" eval --max-bytes 4 '/a' "$WORK/small.xml"
code 2 "$XAOS" filter "$WORK/no_such_subs.txt" "$WORK/small.xml"
code 3 "$XAOS" filter <(echo '//b') "$WORK/bad.xml"

# --- earliest-decision emission ---------------------------------------------
# differential: the streamed item lines must equal the deferred result set,
# on the paper example (backward axes) and on a generated XMark document
OUT_DEF=$("$XAOS" eval '/descendant::Y[child::U]/descendant::W[ancestor::Z/child::V]' "$WORK/fig2.xml")
OUT_EARLY=$("$XAOS" eval --earliest '/descendant::Y[child::U]/descendant::W[ancestor::Z/child::V]' "$WORK/fig2.xml")
expect "earliest equals deferred on the paper example" "$OUT_DEF" "$OUT_EARLY"
code 1 "$XAOS" eval --eager --earliest '//b' "$WORK/small.xml"

# --- lenient recovery --------------------------------------------------------
OUT=$("$XAOS" eval --lenient --count '//b' "$WORK/bad.xml")
expect "lenient repairs and matches" "1" "$OUT"
OUT=$("$XAOS" eval --lenient --stats '//b' "$WORK/bad.xml" 2>&1 >/dev/null | grep -c 'parse faults: 1')
expect "lenient counts faults in stats" "1" "$OUT"

# --- partial results on truncated input -------------------------------------
printf '<a><b/><b/><c>unterminated' > "$WORK/trunc.xml"
OUT=$("$XAOS" eval --partial-ok --count '//b' "$WORK/trunc.xml" 2>/dev/null)
expect "partial-ok exits 0 with certain results" "2" "$OUT"
code 3 "$XAOS" eval '//b' "$WORK/trunc.xml"

# --- generate + filter -----------------------------------------------------
"$XAOS" generate xmark --scale 0.002 -o "$WORK/xm.xml" 2>/dev/null
test -s "$WORK/xm.xml" || fail "xmark output missing"
printf '//person[@id]\n# comment\n//no_such_thing\n' > "$WORK/subs.txt"
OUT=$("$XAOS" filter "$WORK/subs.txt" "$WORK/xm.xml" | awk '{print $2}' | tr '\n' ' ')
expect "filter verdicts" "MATCH - " "$OUT"

# earliest differential on the XMark document: same items, same order
"$XAOS" eval '//listitem/ancestor::category//name' "$WORK/xm.xml" > "$WORK/xm_def.out"
"$XAOS" eval --earliest '//listitem/ancestor::category//name' "$WORK/xm.xml" > "$WORK/xm_early.out"
cmp -s "$WORK/xm_def.out" "$WORK/xm_early.out" \
  || fail "earliest and deferred differ on the xmark document"

# truncated XMark: --partial-ok reports a subset of the full result, exit 0
FULL=$("$XAOS" eval --count '//listitem/ancestor::category//name' "$WORK/xm.xml")
head -c $(( $(wc -c < "$WORK/xm.xml") / 2 )) "$WORK/xm.xml" > "$WORK/xm_trunc.xml"
code 3 "$XAOS" eval '//name' "$WORK/xm_trunc.xml"
PART=$("$XAOS" eval --partial-ok --count '//listitem/ancestor::category//name' "$WORK/xm_trunc.xml" 2>/dev/null) \
  || fail "partial-ok on truncated xmark should exit 0"
[ "$PART" -le "$FULL" ] || fail "partial count $PART exceeds full count $FULL"

# --- telemetry: --report, report validate, --metrics ------------------------
"$XAOS" eval --count --report "$WORK/run.json" \
  '//listitem/ancestor::category//name' "$WORK/xm.xml" > /dev/null
test -s "$WORK/run.json" || fail "--report wrote nothing"
OUT=$(grep -c '"schema_version": 4' "$WORK/run.json")
expect "report carries schema version" "1" "$OUT"
OUT=$(grep -c '"relevance"' "$WORK/run.json")
expect "report carries relevance section" "1" "$OUT"
OUT=$(grep -c '"snapshots"' "$WORK/run.json")
expect "report carries snapshot series" "1" "$OUT"
"$XAOS" report validate "$WORK/run.json" > /dev/null \
  || fail "report validate rejected a fresh report"
echo '{"schema_version": 999, "kind": "eval"}' > "$WORK/future.json"
code 3 "$XAOS" report validate "$WORK/future.json"
# reports older than schema v4 are no longer read
echo '{"schema_version": 3, "kind": "eval"}' > "$WORK/v3.json"
code 3 "$XAOS" report validate "$WORK/v3.json"
"$XAOS" report validate "$WORK/v3.json" 2>&1 | grep -q 'unsupported schema_version 3' \
  || fail "a v3 report is not named unsupported"
code 2 "$XAOS" report validate "$WORK/no_such_report.json"
OUT=$("$XAOS" eval --count --metrics - '//b' "$WORK/small.xml" | grep -c '^xaos_sax_events_total')
expect "metrics exposition has sax counter" "1" "$OUT"
# --report needs the streaming engine
code 1 "$XAOS" eval --engine dom --report "$WORK/r2.json" '//b' "$WORK/small.xml"
# --stats now includes wall-clock and peak heap
OUT=$("$XAOS" eval --stats '//b' "$WORK/small.xml" 2>&1 >/dev/null | grep -c 'peak heap:')
expect "--stats reports peak heap" "1" "$OUT"

# --- provenance: --trace-out, xaos why ---------------------------------------
"$XAOS" eval --count --trace-out "$WORK/trace.json" \
  '//listitem/ancestor::category//name' "$WORK/xm.xml" > /dev/null
test -s "$WORK/trace.json" || fail "--trace-out wrote nothing"
OUT=$(grep -c '"displayTimeUnit": "ms"' "$WORK/trace.json")
expect "chrome trace header" "1" "$OUT"
OUT=$(grep -c '"traceEvents"' "$WORK/trace.json")
expect "chrome trace events array" "1" "$OUT"
# --trace-out needs the streaming engine too
code 1 "$XAOS" eval --engine dom --trace-out "$WORK/t2.json" '//b' "$WORK/small.xml"
# a tiny ring still produces a loadable trace
"$XAOS" eval --count --trace-out "$WORK/trace_small.json" --trace-capacity 8 \
  '//W[ancestor::Z]' "$WORK/fig2.xml" > /dev/null
test -s "$WORK/trace_small.json" || fail "bounded-ring trace missing"

OUT=$("$XAOS" why '/descendant::Y[child::U]/descendant::W[ancestor::Z/child::V]' "$WORK/fig2.xml")
echo "$OUT" | grep -q 'W(7)@4' || fail "why misses result W(7)@4"
echo "$OUT" | grep -q 'emitted at byte' || fail "why misses emission position"
echo "$OUT" | grep -q 'created at byte' || fail "why misses creation position"
echo "$OUT" | grep -q 'propagated.*into the root structure' \
  || fail "why chain does not reach the root"
OUT=$("$XAOS" why --item 7 '//W[ancestor::Z]' "$WORK/fig2.xml" | grep -c '^W(')
expect "why --item explains one item" "1" "$OUT"

# --- snapshot interval + NDJSON metrics --------------------------------------
OUT=$("$XAOS" eval --count --metrics - --snapshot-interval 64 \
  '//b' "$WORK/small.xml" | grep -c '"retained_bytes"')
[ "$OUT" -ge 1 ] || fail "metrics streamed no NDJSON snapshot points"

# --- report diff -------------------------------------------------------------
"$XAOS" eval --count --report "$WORK/run2.json" \
  '//listitem/ancestor::category//name' "$WORK/xm.xml" > /dev/null
"$XAOS" report diff "$WORK/run.json" "$WORK/run2.json" --threshold-pct 10000 \
  > /dev/null || fail "report diff flagged a regression at threshold 10000%"
set +e
"$XAOS" report diff "$WORK/run.json" "$WORK/run2.json" --threshold-pct=-101 > /dev/null
DIFF_CODE=$?
set -e
expect "report diff exits 1 on regression" "1" "$DIFF_CODE"
code 3 "$XAOS" report diff "$WORK/no_such.json" "$WORK/run2.json"

# --- trace truncation message states the limit -------------------------------
OUT=$("$XAOS" trace --limit 1 '//b' "$WORK/small.xml" | grep -c -- '--limit is 1, default 200')
expect "trace truncation states current limit and default" "1" "$OUT"
OUT=$("$XAOS" trace --help=plain 2>/dev/null | grep -c 'default 200')
expect "trace --help documents the default limit" "1" "$OUT"

# --- subscription service: serve / subscribe / publish / stats --------------
SOCK="$WORK/service.sock"
printf '//b\n# comment\n//c\n' > "$WORK/service_subs.txt"
"$XAOS" serve --socket "$SOCK" --subscriptions "$WORK/service_subs.txt" \
  --metrics "$WORK/serve_metrics.ndjson" --snapshot-interval 0.2 \
  --attrib --slow-ms 0 --flight-sample 1 --flight-dir "$WORK/flights" \
  2> "$WORK/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || fail "service socket never appeared"

"$XAOS" subscribe --socket "$SOCK" mine '//b' > "$WORK/sub.log" 2>&1 &
SUB_PID=$!
sleep 0.3
OUT=$("$XAOS" publish --socket "$SOCK" "$WORK/small.xml")
echo "$OUT" | grep -q '"event":"processed"' || fail "publish saw no processed event"
echo "$OUT" | grep -q '"mine":1' || fail "publish outcome misses the live subscription"
# --- cost attribution over the wire: profile, slowlog, flight files ---------
OUT=$("$XAOS" profile --socket "$SOCK")
echo "$OUT" | grep -q 'top by match_s:' || fail "profile misses the cost table"
echo "$OUT" | grep -q 'mine' || fail "profile misses the live subscription"
echo "$OUT" | grep -q 'attribution disabled' \
  && fail "profile claims attribution is disabled on an --attrib server"
OUT=$("$XAOS" slowlog --socket "$SOCK" --json)
echo "$OUT" | grep -q '"doc_id"' || fail "slowlog recorded no document at --slow-ms 0"
echo "$OUT" | grep -q '"top"' || fail "slowlog record misses the per-subscription breakdown"
code 1 "$XAOS" profile --socket "$SOCK" --by nonsense
# every document samples at --flight-sample 1: a trace file with all six
# pipeline stages appears once the writer thread finishes the recording
FLIGHT=""
for _ in $(seq 1 50); do
  FLIGHT=$(ls "$WORK/flights"/flight-*.json 2>/dev/null | head -1 || true)
  [ -n "$FLIGHT" ] && break
  sleep 0.1
done
[ -n "$FLIGHT" ] || fail "no flight recording written"
grep -q '"traceEvents"' "$FLIGHT" || fail "flight file is not a chrome trace"
for stage in ingress parse dispatch match emission writer; do
  grep -q "\"$stage\"" "$FLIGHT" || fail "flight trace misses the $stage stage"
done

OUT=$("$XAOS" service-stats --socket "$SOCK")
echo "$OUT" | grep -q '"service/docs":1' || fail "service stats missed the document"
echo "$OUT" | grep -q '"service/live_subscriptions":3' \
  || fail "service stats misses the subscriptions"
code 2 "$XAOS" publish --socket "$WORK/no_such.sock" "$WORK/small.xml"

# --- observability against the live server ----------------------------------
# one-shot exposition scrape: well-formed, and the published document shows
OUT=$("$XAOS" metrics --socket "$SOCK")
echo "$OUT" | grep -q '^# TYPE xaos_service_docs_total counter' \
  || fail "metrics scrape misses the docs counter type line"
echo "$OUT" | grep -q '^xaos_service_docs_total 1$' \
  || fail "metrics scrape misses the published document"
echo "$OUT" | grep -q '^xaos_stage_parse_seconds_count [1-9]' \
  || fail "metrics scrape has an empty parse-stage histogram"
# every sample line is  name[{labels}] value  — no malformed exposition rows
BAD=$(echo "$OUT" | grep -v '^#' | grep -v '^$' \
  | grep -cv '^xaos_[a-z_]*\({[^}]*}\)\? [0-9.eE+-]*$' || true)
expect "exposition sample lines well-formed" "0" "$BAD"
code 2 "$XAOS" metrics --socket "$WORK/no_such.sock"

# stats-stream pushes periodic snapshots: two frames within the timeout
set +e
timeout 3 "$XAOS" top --socket "$SOCK" --interval 0.3 > "$WORK/top.out"
set -e
OUT=$(grep -c 'snapshot #' "$WORK/top.out")
[ "$OUT" -ge 2 ] || fail "stats-stream delivered $OUT snapshots, wanted >= 2"

# top --once renders a single frame without a TTY and exits
OUT=$("$XAOS" top --socket "$SOCK" --once)
echo "$OUT" | grep -q 'snapshot #' || fail "top --once rendered no snapshot"
echo "$OUT" | grep -q 'docs 1' || fail "top --once misses the document count"
echo "$OUT" | grep -q 'parse' || fail "top --once misses the latency table"

sleep 0.2
grep -q '"event":"match"' "$WORK/sub.log" || fail "subscriber saw no match event"
kill -INT "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
wait "$SUB_PID" 2>/dev/null || true
[ -S "$SOCK" ] && fail "socket file not removed on shutdown"
grep -q 'service stopped' "$WORK/serve.log" || fail "serve did not stop cleanly"
# the --metrics sampler streamed periodic NDJSON snapshots and a final
# exposition dump
OUT=$(grep -c '"stats"' "$WORK/serve_metrics.ndjson")
[ "$OUT" -ge 2 ] || fail "serve --metrics sampled $OUT snapshots, wanted >= 2"
grep -q '^# TYPE xaos_service_docs_total counter' "$WORK/serve_metrics.ndjson" \
  || fail "serve --metrics misses the final exposition"

# --- timed consumers without --metrics: the server turns telemetry on -------
# attribution, the slow log and flight spans all read seconds measured only
# while telemetry is on; none of them may report zero time for real work
SOCK2="$WORK/service2.sock"
printf '//listitem//keyword\n//item[ancestor::europe]//name\n//person/name\n' \
  > "$WORK/service2_subs.txt"
"$XAOS" serve --socket "$SOCK2" --subscriptions "$WORK/service2_subs.txt" \
  --attrib --slow-ms 0 --flight-sample 1 --flight-dir "$WORK/flights2" \
  2> "$WORK/serve2.log" &
SERVE2_PID=$!
for _ in $(seq 1 50); do [ -S "$SOCK2" ] && break; sleep 0.1; done
[ -S "$SOCK2" ] || fail "second service socket never appeared"
"$XAOS" publish --socket "$SOCK2" "$WORK/xm.xml" | grep -q '"event":"processed"' \
  || fail "second server processed no document"
OUT=$("$XAOS" profile --socket "$SOCK2")
echo "$OUT" | grep -Eq ' match [0-9.]*[1-9][0-9.]* ms' \
  || fail "profile without --metrics charged no match time: $OUT"
OUT=$("$XAOS" slowlog --socket "$SOCK2" --json \
  | grep -oE '"match_s":[0-9.eE+-]+' | awk -F: '$2 + 0 > 0 { n++ } END { print n + 0 }')
[ "$OUT" -ge 1 ] || fail "slowlog without --metrics has no non-zero match_s"
FLIGHT2=""
for _ in $(seq 1 50); do
  FLIGHT2=$(ls "$WORK/flights2"/flight-*.json 2>/dev/null | head -1 || true)
  [ -n "$FLIGHT2" ] && break
  sleep 0.1
done
[ -n "$FLIGHT2" ] || fail "no flight recording written without --metrics"
DUR=$(tr -d ' \n' < "$FLIGHT2" \
  | grep -oE '"name":"parse","cat":"pipeline","ph":"X","ts":[0-9.eE+-]+,"dur":[0-9.eE+-]+' \
  | grep -oE '[0-9.eE+-]+$' || true)
awk -v d="$DUR" 'BEGIN { exit !(d + 0 > 0) }' \
  || fail "flight parse span without --metrics has duration [$DUR]"
kill -INT "$SERVE2_PID"
wait "$SERVE2_PID" 2>/dev/null || true

# --- chaos soak smoke: healthy run, valid report, event log ------------------
"$XAOS" soak --docs 120 --subs 25 --socket "$WORK/soak.sock" \
  --report "$WORK/soak.json" --event-log "$WORK/soak_events.ndjson" \
  --quiet > "$WORK/soak.out" \
  || fail "soak smoke unhealthy"
grep -q 'HEALTHY' "$WORK/soak.out" || fail "soak did not report HEALTHY"
grep -q 'crashes 0' "$WORK/soak.out" || fail "soak reported crashes"
"$XAOS" report validate "$WORK/soak.json" > /dev/null \
  || fail "soak report failed validation"
grep -q '"service_latency"' "$WORK/soak.json" \
  || fail "soak report misses the latency section"
grep -q '"stage/parse"' "$WORK/soak.json" \
  || fail "soak report misses the parse-stage histogram"
grep -q '"engine/emission"' "$WORK/soak.json" \
  || fail "soak report misses the emission histogram"
# the event log streamed typed supervision records
grep -q '"reason":"budget-exceeded"' "$WORK/soak_events.ndjson" \
  || fail "event log misses a typed quarantine record"
grep -q '"reason":"backoff-elapsed"' "$WORK/soak_events.ndjson" \
  || fail "event log misses a typed readmit record"
grep -q '"reason":"queue-full"' "$WORK/soak_events.ndjson" \
  || fail "event log misses a typed shed record"
grep -q '"reason":"slow-document"' "$WORK/soak_events.ndjson" \
  || fail "event log misses a typed slow-document record"
# cost attribution ran, conserved, and landed in the v4 report
grep -q 'accounts (conserved)' "$WORK/soak.out" \
  || fail "soak summary misses the conserved attribution line"
grep -q 'flight stages' "$WORK/soak.out" \
  || fail "soak summary misses the flight stage list"
grep -q '"attribution"' "$WORK/soak.json" \
  || fail "soak report misses the attribution section"

# --- report diff tolerates optional sections absent on one side --------------
# run.json (eval, no attribution) as baseline against the soak's
# attribution-bearing report: skip with a note, exit 0
OUT=$("$XAOS" report diff "$WORK/run.json" "$WORK/soak.json" --threshold-pct 100000) \
  || fail "diff against a baseline without attribution exited nonzero"
echo "$OUT" | grep -q 'note: skipping attribution (absent in baseline)' \
  || fail "diff misses the attribution skip note"

# --- generate random is deterministic ---------------------------------------
"$XAOS" generate random --seed 5 --elements 500 -o "$WORK/r1.xml" --query-out "$WORK/q1" 2>/dev/null
"$XAOS" generate random --seed 5 --elements 500 -o "$WORK/r2.xml" --query-out "$WORK/q2" 2>/dev/null
cmp -s "$WORK/r1.xml" "$WORK/r2.xml" || fail "random docs differ across runs"
cmp -s "$WORK/q1" "$WORK/q2" || fail "random queries differ across runs"
QUERY=$(cat "$WORK/q1")
"$XAOS" eval --count "$QUERY" "$WORK/r1.xml" > /dev/null || fail "generated query fails on its document"

echo "cli_test: all assertions passed"
