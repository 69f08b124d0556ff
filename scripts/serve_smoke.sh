#!/bin/sh
# Smoke test for cmd/cfdserve, run by `make serve-smoke` and the CI job of the
# same name: start the server on fixture rules + data, exercise the API with
# curl, assert the violation counts, and check graceful shutdown on SIGTERM.
set -eu

ADDR="${CFDSERVE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/cfdserve"

fail() {
	echo "serve-smoke: FAIL: $*" >&2
	exit 1
}

go build -o "$BIN" ./cmd/cfdserve

"$BIN" -addr "$ADDR" \
	-rules cmd/cfdserve/testdata/rules.txt \
	-data cmd/cfdserve/testdata/cust.csv &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Wait for the server to come up.
i=0
until curl -fs "$BASE/v1/health" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -lt 50 ] || fail "server did not come up on $ADDR"
	sleep 0.1
done

# Rules loaded, data bulk loaded, violations present.
health="$(curl -fs "$BASE/v1/health")"
echo "$health" | grep -q '"rules": 2' || fail "expected 2 rules in $health"
echo "$health" | grep -q '"tuples": 8' || fail "expected 8 tuples in $health"

# The fixture's exact dirty set.
viols="$(curl -fs "$BASE/v1/violations")"
echo "$viols" | tr -d ' \n' | grep -q '"dirty":\[0,1,2,3,4,5,7\]' \
	|| fail "unexpected dirty set in $viols"

# POST a batch: Ann splits the (01, 01202) street group further.
post="$(curl -fs -X POST "$BASE/v1/tuples" \
	-H 'Content-Type: application/json' \
	-d '{"rows":[["01","212","9999999","Ann","5th Ave","NYC","01202"]]}')"
echo "$post" | tr -d ' \n' | grep -q '"ids":\[8\]' || fail "unexpected insert response $post"

viols="$(curl -fs "$BASE/v1/violations")"
echo "$viols" | tr -d ' \n' | grep -q '"dirty":\[0,1,2,3,4,5,7,8\]' \
	|| fail "dirty set did not grow after insert: $viols"

# Per-tuple lookup on the freshly inserted tuple.
curl -fs "$BASE/v1/tuples/8/violations" | grep -q 'STR' \
	|| fail "tuple 8 should violate the street FD"

# Graceful shutdown: SIGTERM, clean exit.
kill -TERM "$PID"
wait "$PID" || fail "server did not exit cleanly on SIGTERM"
trap - EXIT

# --- Durability leg: -state, kill, restart, byte-identical violations. ---
STATE="$(mktemp -d)"

"$BIN" -addr "$ADDR" \
	-rules cmd/cfdserve/testdata/rules.txt \
	-data cmd/cfdserve/testdata/cust.csv \
	-state "$STATE" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

i=0
until curl -fs "$BASE/v1/health" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -lt 50 ] || fail "durable server did not come up on $ADDR"
	sleep 0.1
done

# Mutate through the atomic batch route: insert two, repair one, delete one.
batch="$(curl -fs -X POST "$BASE/v1/batch" \
	-H 'Content-Type: application/json' \
	-d '{"ops":[
		{"op":"insert","values":["01","212","9999999","Ann","5th Ave","NYC","01202"]},
		{"op":"insert","values":["86","10","8888888","Wei","Main Rd.","BJ","100000"]},
		{"op":"update","id":7,"values":["01","131","2222222","Sean","3rd Str.","EDI","01202"]},
		{"op":"delete","id":9}
	]}')"
echo "$batch" | tr -d ' \n' | grep -q '"ids":\[8,9\]' || fail "unexpected batch response $batch"

# Hot-swap the rule set: keep the street FD, drop the constant city rule,
# add a fresh name->phone FD. The swap is atomic and write-ahead logged.
RULEFILE="$(mktemp)"
cat > "$RULEFILE" <<'EOF'
([CC,ZIP] -> STR, (_, _ || _))
([NM] -> PN, (_ || _))
EOF
version_before="$(curl -fs "$BASE/v1/health" | tr -d ' ' | sed -n 's/.*"rules_version":"\([^"]*\)".*/\1/p')"
swap="$(curl -fs -X PUT "$BASE/v1/rules" --data-binary @"$RULEFILE")"
echo "$swap" | tr -d ' \n' | grep -q '"swapped":true' || fail "unexpected swap response $swap"
echo "$swap" | tr -d ' \n' | grep -q '"retained":1' || fail "swap should retain the street FD: $swap"
version_after="$(curl -fs "$BASE/v1/health" | tr -d ' ' | sed -n 's/.*"rules_version":"\([^"]*\)".*/\1/p')"
[ "$version_before" != "$version_after" ] || fail "rules_version did not move on swap"

# A second mutation after the swap, so replay crosses the swap record.
curl -fs -X POST "$BASE/v1/tuples" \
	-H 'Content-Type: application/json' \
	-d '{"values":["01","908","3333333","Zoe","Tree Ave.","MH","07974"]}' >/dev/null \
	|| fail "insert after swap failed"

before="$(curl -fs "$BASE/v1/violations")"
rules_before="$(curl -fs "$BASE/v1/rules")"

# Kill hard (no graceful shutdown): recovery must come from snapshot + WAL.
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true

"$BIN" -addr "$ADDR" -state "$STATE" &
PID=$!

i=0
until curl -fs "$BASE/v1/health" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -lt 50 ] || fail "restarted server did not come up on $ADDR"
	sleep 0.1
done

after="$(curl -fs "$BASE/v1/violations")"
[ "$before" = "$after" ] || fail "restarted /v1/violations differs:
--- before ---
$before
--- after ---
$after"

# The restart came back under the swapped-in rule set, byte for byte.
rules_after="$(curl -fs "$BASE/v1/rules")"
[ "$rules_before" = "$rules_after" ] || fail "restarted /v1/rules differs:
--- before ---
$rules_before
--- after ---
$rules_after"
restart_version="$(curl -fs "$BASE/v1/health" | tr -d ' ' | sed -n 's/.*"rules_version":"\([^"]*\)".*/\1/p')"
[ "$restart_version" = "$version_after" ] || fail "rules_version regressed across restart: $restart_version != $version_after"

# Ids keep counting from where the killed process stopped.
post="$(curl -fs -X POST "$BASE/v1/tuples" \
	-H 'Content-Type: application/json' \
	-d '{"values":["01","908","1111111","Zoe","Tree Ave.","MH","07974"]}')"
echo "$post" | tr -d ' \n' | grep -q '"ids":\[11\]' || fail "id sequence lost across restart: $post"

# --- Delta leg: ?since= polling, compaction resync. ---

# A full read carries the epoch; polling ?since= that epoch returns the exact
# delta of the next mutation, not the whole report.
epoch="$(curl -fs "$BASE/v1/violations" | tr -d ' ' | sed -n 's/.*"epoch":\([0-9]*\),.*/\1/p')"
[ -n "$epoch" ] || fail "/v1/violations carries no epoch"
curl -fs -X POST "$BASE/v1/tuples" \
	-H 'Content-Type: application/json' \
	-d '{"values":["01","212","9999999","Ann","5th Ave","NYC","01202"]}' >/dev/null \
	|| fail "insert before the delta poll failed"
delta="$(curl -fs "$BASE/v1/violations?since=$epoch")"
echo "$delta" | tr -d ' \n' | grep -q "\"epoch\":$((epoch + 1))" \
	|| fail "delta epoch did not advance by one: $delta"
echo "$delta" | tr -d ' \n' | grep -q '"dirty_added":\[12\]' \
	|| fail "delta should carry the inserted tuple: $delta"

kill -TERM "$PID"
wait "$PID" || fail "durable server did not exit cleanly on SIGTERM"
trap - EXIT

# Restart with per-op compaction: the WAL tail (and with it the replayable
# delta history) folds into the snapshot after every mutation.
"$BIN" -addr "$ADDR" -state "$STATE" -compact-every 1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

i=0
until curl -fs "$BASE/v1/health" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -lt 50 ] || fail "compacting server did not come up on $ADDR"
	sleep 0.1
done

curl -fs -X DELETE "$BASE/v1/tuples/12" >/dev/null || fail "delete on the compacting server failed"
# Wait for the background compaction to fold the WAL away.
i=0
until curl -fs "$BASE/v1/health" | tr -d ' ' | grep -q '"wal_pending":0'; do
	i=$((i + 1))
	[ "$i" -lt 50 ] || fail "background compaction never drained the WAL"
	sleep 0.1
done

# Kill hard and restart: replay finds nothing to rebuild the delta ring from,
# so the old epoch must be refused with 410/compacted and the client resyncs.
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true
"$BIN" -addr "$ADDR" -state "$STATE" &
PID=$!

i=0
until curl -fs "$BASE/v1/health" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -lt 50 ] || fail "post-compaction server did not come up on $ADDR"
	sleep 0.1
done

status="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/violations?since=$epoch")"
[ "$status" = "410" ] || fail "stale since should be 410 after compaction, got $status"
curl -s "$BASE/v1/violations?since=$epoch" | tr -d ' \n' | grep -q '"code":"compacted"' \
	|| fail "410 body should carry the compacted error code"
# The resync: a full read hands back the current epoch, from which polling
# resumes with an empty delta.
epoch="$(curl -fs "$BASE/v1/violations" | tr -d ' ' | sed -n 's/.*"epoch":\([0-9]*\),.*/\1/p')"
resync="$(curl -fs "$BASE/v1/violations?since=$epoch")"
echo "$resync" | tr -d ' \n' | grep -q '"added":\[\]' \
	|| fail "resynced poll should be an empty delta: $resync"

kill -TERM "$PID"
wait "$PID" || fail "post-compaction server did not exit cleanly on SIGTERM"
trap - EXIT

# --- Observability leg: /metrics, request ids, health state, pprof. ---
DEBUG_ADDR="${CFDSERVE_DEBUG_ADDR:-127.0.0.1:18081}"

"$BIN" -addr "$ADDR" -state "$STATE" -debug-addr "$DEBUG_ADDR" -log-format json &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

i=0
until curl -fs "$BASE/v1/health" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -lt 50 ] || fail "observed server did not come up on $ADDR"
	sleep 0.1
done

# Every API response carries a request id; a well-formed client id is echoed.
curl -fsi "$BASE/v1/health" | grep -qi '^x-request-id: ' \
	|| fail "/v1/health must answer with an X-Request-Id header"
curl -fsi -H 'X-Request-Id: smoke-trace-1' "$BASE/v1/health" \
	| grep -qi '^x-request-id: smoke-trace-1' \
	|| fail "a well-formed client X-Request-Id must be echoed"

# Health reports the in-flight observability state.
health="$(curl -fs "$BASE/v1/health" | tr -d ' \n')"
echo "$health" | grep -q '"compacting":false' || fail "health must report compacting: $health"
echo "$health" | grep -q '"remine_running":false' || fail "health must report remine_running: $health"
echo "$health" | grep -q '"delta_ring":{' || fail "health must report the delta ring: $health"

# A mutation through the API, so commit and WAL series are non-zero.
curl -fs -X POST "$BASE/v1/tuples" \
	-H 'Content-Type: application/json' \
	-d '{"values":["01","212","9999999","Ann","5th Ave","NYC","01202"]}' >/dev/null \
	|| fail "insert on the observed server failed"

metrics="$(curl -fs "$BASE/metrics")"
echo "$metrics" | grep -q '^cfd_engine_commits_total{kind="insert"} 1$' \
	|| fail "insert commit counter did not move in /metrics"
echo "$metrics" | grep -q '^cfd_wal_appends_total{result="ok"} 1$' \
	|| fail "WAL append counter did not move in /metrics"
echo "$metrics" | grep -Eq '^cfd_engine_tuples [0-9]+$' \
	|| fail "engine tuple gauge missing from /metrics"
echo "$metrics" | grep -q '^cfd_engine_delta_ring_capacity ' \
	|| fail "delta ring gauge missing from /metrics"
echo "$metrics" | grep -q 'cfd_http_requests_total{route="/tuples",method="POST",code="2xx"} 1' \
	|| fail "HTTP request counter did not move in /metrics"
echo "$metrics" | grep -q '^cfd_http_request_duration_seconds_bucket' \
	|| fail "HTTP duration histogram missing from /metrics"
case "$metrics" in
*"# EOF") ;;
*) fail "/metrics must end with the OpenMetrics EOF trailer" ;;
esac

# The pprof surface answers on the debug listener only.
curl -fs "http://$DEBUG_ADDR/debug/pprof/" | grep -q 'profiles' \
	|| fail "pprof index not served on -debug-addr"
if curl -fs "$BASE/debug/pprof/" >/dev/null 2>&1; then
	fail "pprof must not leak onto the serving address"
fi

kill -TERM "$PID"
wait "$PID" || fail "observed server did not exit cleanly on SIGTERM"
trap - EXIT

echo "serve-smoke: OK"
