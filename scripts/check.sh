#!/bin/sh
# Repository gate: build, run every test suite, smoke-test the CLI,
# server and cluster surfaces, then run a short perfbench correctness pass.
# Usage: scripts/check.sh   (from the repository root)
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== dead exports =="
# Every val in a lib/**/*.mli must have a caller outside its own module.
sh scripts/dead_exports.sh

echo "== dune runtest =="
dune runtest

echo "== fuzz smoke (pinned seed, bounded counts) =="
# A deeper pass over the property/fuzz suites than the runtest default:
# the pinned seed keeps CI deterministic, the scale bound keeps it fast.
# Replay any failure with the SAGMA_PROP_SEED printed in its report
# (see TESTING.md).
SAGMA_PROP_SEED="sagma-fuzz-smoke" SAGMA_PROP_SCALE=200 \
  dune exec test/test_prop_wire.exe
SAGMA_PROP_SEED="sagma-fuzz-smoke" SAGMA_PROP_SCALE=100 \
  dune exec test/test_prop_bigint.exe
SAGMA_PROP_SEED="sagma-fuzz-smoke" \
  dune exec test/test_prop_audit.exe

echo "== security games smoke (pinned seed, reduced trials) =="
# The adversary games (TESTING.md "Security games"): honest schemes must
# stay inside the Wilson acceptance region, the leaky mutants must be
# distinguished. 32 trials (16 for sim-ind) stays above the z^2 ~= 10.8
# floor where an always-winning adversary's interval clears 1/2.
SAGMA_GAMES_SEED="sagma-games-smoke" SAGMA_GAMES_TRIALS=32 \
  SAGMA_GAMES_JSON=GAMES.json dune exec test/test_games.exe
# A lost game must fail the gate: the EXPECT_FAIL run scores a known
# leaky scheme against the honest expectation, so the suite must exit
# nonzero — this checks the failure path all the way through the shell.
if SAGMA_GAMES_EXPECT_FAIL=1 dune exec test/test_games.exe > /dev/null 2>&1; then
  echo "games negative check FAILED: a lost game exited zero" >&2
  exit 1
fi
echo "games negative check OK (lost game exits nonzero)"

echo "== validate GAMES.json =="
python3 - <<'EOF'
import json

doc = json.load(open("GAMES.json"))
assert doc["schema_version"] == 1, doc.get("schema_version")
games = {g["game"]: g for g in doc["games"]}
expected = {
    "ind-cpa-bgn": False,
    "ind-cpa-paillier": False,
    "sim-ind-4.2": False,
    "ind-cpa-bgn-leaky": True,
    "ind-cpa-paillier-leaky": True,
    "sim-ind-4.2-leaky-sse": True,
}
assert set(games) == set(expected), set(games)
for name, broken in expected.items():
    g = games[name]
    assert g["distinguished"] == broken, (name, g)
    assert 0.0 <= g["lo"] <= g["hi"] <= 1.0, g
    assert abs(g["advantage"] - abs(g["win_rate"] - 0.5)) < 1e-9, g
    if broken:
        assert g["lo"] > 0.5, (name, g["lo"])
        assert g["winning_seeds"], f"{name}: no replayable winning seeds"

print(f"GAMES.json OK: {len(games)} games, mutants distinguished, honest within bound")
EOF

echo "== observability smoke (server --metrics --audit --log-json + Stats RPC) =="
OBS_DIR=$(mktemp -d)
OBS_PORT=7499
SERVER=_build/default/bin/sagma_server.exe
CLI=_build/default/bin/sagma_cli.exe
cat > "$OBS_DIR/data.csv" <<'CSV'
salary,dept
1000,sales
2000,finance
3000,sales
4000,facility
CSV
"$SERVER" --port "$OBS_PORT" --metrics --audit --workers 4 \
  --request-timeout-ms 10000 \
  --trace-sample 1 --slow-query-ms 1 --profile \
  --log-json "$OBS_DIR/server.jsonl" > "$OBS_DIR/server.out" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$OBS_DIR"' EXIT
sleep 1
"$CLI" remote-upload --csv "$OBS_DIR/data.csv" --schema "salary:int,dept:str" \
  --group-by dept --values salary --filters dept --threshold 1 \
  --port "$OBS_PORT" --name smoke --key-file "$OBS_DIR/sagma.key"
"$CLI" remote-query --sum salary --group-by dept \
  --port "$OBS_PORT" --name smoke --key-file "$OBS_DIR/sagma.key"
# Concurrent clients against the 4-worker pool: all must succeed.
for i in 1 2 3; do
  "$CLI" remote-query --sum salary --group-by dept \
    --port "$OBS_PORT" --name smoke --key-file "$OBS_DIR/sagma.key" \
    > "$OBS_DIR/conc.$i.out" 2>&1 &
  eval "CONC_$i=\$!"
done
wait "$CONC_1" "$CONC_2" "$CONC_3"
for i in 1 2 3; do grep -q "sales" "$OBS_DIR/conc.$i.out"; done
echo "concurrent queries OK"
# The Stats RPC must answer with a parseable Prometheus exposition:
# a known counter, the +Inf-closed bucket family, and quantile gauges.
"$CLI" stats --port "$OBS_PORT" --prometheus > "$OBS_DIR/exposition.txt"
grep -q "^sagma_proto_requests_total " "$OBS_DIR/exposition.txt"
grep -q "^sagma_scheme_agg_rows_total " "$OBS_DIR/exposition.txt"
grep -q 'sagma_proto_request_ms_bucket{le="+Inf"}' "$OBS_DIR/exposition.txt"
grep -q "^sagma_proto_request_ms_p50 " "$OBS_DIR/exposition.txt"
grep -q "^sagma_proto_request_ms_p99 " "$OBS_DIR/exposition.txt"
# Server uptime and the process-level GC gauges derived
# from the Stats reply's gc section.
grep -q "^sagma_uptime_seconds " "$OBS_DIR/exposition.txt"
grep -q "^ocaml_gc_heap_words " "$OBS_DIR/exposition.txt"
grep -q "^ocaml_gc_minor_words_total " "$OBS_DIR/exposition.txt"
# A traced query's reply must carry the EXPLAIN trailer: per-phase
# timings plus the cost block derived from request-scoped counters.
"$CLI" remote-query --sum salary --group-by dept --explain \
  --port "$OBS_PORT" --name smoke --key-file "$OBS_DIR/sagma.key" \
  > "$OBS_DIR/explain.out"
grep -q "sales" "$OBS_DIR/explain.out"
grep -q -- "-- explain (server trace " "$OBS_DIR/explain.out"
grep -q "cost.agg_rows" "$OBS_DIR/explain.out"
grep -q "cost.bgn_mul" "$OBS_DIR/explain.out"
# With --profile on the server, the trailer also carries the request's
# GC differential.
grep -q "gc.minor_words" "$OBS_DIR/explain.out"
# The live dashboard's script mode: one frame against the same server.
"$CLI" top --once --port "$OBS_PORT" > "$OBS_DIR/top.out"
grep -q "req/s" "$OBS_DIR/top.out"
grep -q "pairings/s" "$OBS_DIR/top.out"
grep -q "heap" "$OBS_DIR/top.out"
grep -q "MiB" "$OBS_DIR/top.out"
echo "top --once OK"
# Export the completed-trace ring as Chrome trace-event JSON and
# validate its shape: every sampled request is an intact span tree
# with the aggregate phase and the pairing loop under it.
"$CLI" trace --port "$OBS_PORT" --out "$OBS_DIR/trace.json"
python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "no trace events exported"
xs = [e for e in events if e.get("ph") == "X"]
names = {e["name"] for e in xs}
assert "request" in names, names
assert "aggregate" in names, names
assert "pairing_loop" in names, names
roots = [e for e in xs if e["name"] == "request"]
assert all("trace_id" in e.get("args", {}) for e in roots), roots
assert all(e["dur"] >= 0 for e in xs)
print(f"trace export OK: {len(roots)} request tree(s), {len(xs)} spans")' \
  "$OBS_DIR/trace.json"
cp "$OBS_DIR/trace.json" sagma_trace.json
# Raw-frame probe: the server speaks exactly one protocol version. A
# frame at the previous or an old version gets Failed (tag 3)
# version-unsupported (code 3), a frame without the magic gets Failed
# bad-request (code 1), every reply is framed at the current version,
# and the connection keeps serving afterwards.
PROTO_VERSION=$(sed -n 's/^let version = \([0-9][0-9]*\)$/\1/p' lib/protocol/protocol.ml)
python3 - "$OBS_PORT" "$PROTO_VERSION" <<'EOF'
import socket, struct, sys

port, version = int(sys.argv[1]), int(sys.argv[2])
sock = socket.create_connection(("127.0.0.1", port), timeout=10)

def recv_exact(n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        assert chunk, "server closed the connection"
        buf += chunk
    return buf

def call(payload):
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    (n,) = struct.unpack(">I", recv_exact(4))
    reply = recv_exact(n)
    assert reply[:3] == b"SG" + bytes([version]), (payload, reply[:3])
    return reply

for payload, code in [(b"SG" + bytes([version - 1]) + b"\x00\x03", 3),
                      (b"SG\x01\x03", 3),
                      (b"XXjunk", 1)]:
    reply = call(payload)
    assert reply[3] == 3 and reply[4] == code, (payload, reply[3:5])
reply = call(b"SG" + bytes([version]) + b"\x00\x03")
assert reply[3] == 1, ("List_tables after the probes", reply[3])
sock.close()
print(f"raw-frame probe OK: one protocol version ({version})")
EOF
# The audit ran and flagged nothing.
"$CLI" stats --port "$OBS_PORT" | grep "^audit: " | grep -q " failures=0"
# The structured log is non-empty JSON lines including request events
# (now with duration_ms/bytes_out) and, with --slow-query-ms 1, at
# least one slow_query event carrying a span tree (a nested object) and
# cost block.
[ -s "$OBS_DIR/server.jsonl" ]
grep -q '"event":"request"' "$OBS_DIR/server.jsonl"
grep -q '"event":"slow_query"' "$OBS_DIR/server.jsonl"
python3 -c 'import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty log"
assert any(e["event"] == "request" and "ms" in e for e in lines), lines
reqs = [e for e in lines if e["event"] == "request"]
assert all("duration_ms" in e and "bytes_out" in e for e in reqs), reqs
slow = [e for e in lines if e["event"] == "slow_query"]
assert slow, "no slow_query events despite --slow-query-ms 1"
traced = [e for e in slow if "spans" in e]
assert any("cost_bgn_mul" in e for e in traced), slow
assert all(e["spans"]["name"] == "request" and isinstance(e["spans"]["children"], list)
           for e in traced), traced' \
  "$OBS_DIR/server.jsonl"
kill "$SERVER_PID" 2>/dev/null || true
trap 'rm -rf "$OBS_DIR"' EXIT
# SIGTERM stops the server gracefully; the --profile server then prints
# its allocation sites, and the served SUMs allocate most in the
# pairing loop.
wait "$SERVER_PID"
grep -q -- "-- top allocation sites --" "$OBS_DIR/server.out"
TOP_SITE=$(awk '/^-- top allocation sites --$/ { getline; print $1; exit }' "$OBS_DIR/server.out")
if [ "$TOP_SITE" != "pairing_loop" ]; then
  echo "top allocation site is '$TOP_SITE', want pairing_loop" >&2
  exit 1
fi
trap - EXIT
rm -rf "$OBS_DIR"
echo "observability smoke OK"

echo "== cluster smoke (2 shards + coordinator, scatter-gather, fleet health) =="
CL_DIR=$(mktemp -d)
SHARD0_PORT=7501
SHARD1_PORT=7502
COORD_PORT=7503
cat > "$CL_DIR/data.csv" <<'CSV'
salary,dept
1000,sales
2000,finance
3000,sales
4000,facility
CSV
# Two storage nodes, each owning half the row space, plus a query
# router fanning out over them. --metrics on the shards lets the
# coordinator's sampled requests pull EXPLAIN trailers back for span
# grafting; --trace-sample 1 on the coordinator traces every request.
"$SERVER" --port "$SHARD0_PORT" --shard-of 0/2 --metrics \
  > "$CL_DIR/shard0.out" 2>&1 &
SHARD0_PID=$!
"$SERVER" --port "$SHARD1_PORT" --shard-of 1/2 --metrics \
  > "$CL_DIR/shard1.out" 2>&1 &
SHARD1_PID=$!
sleep 1
"$SERVER" --port "$COORD_PORT" \
  --coordinator "127.0.0.1:$SHARD0_PORT,127.0.0.1:$SHARD1_PORT" \
  --trace-sample 1 --probe-interval-ms 200 --watchdog-interval-ms 200 \
  --log-json "$CL_DIR/coord.jsonl" > "$CL_DIR/coord.out" 2>&1 &
COORD_PID=$!
trap 'kill "$SHARD0_PID" "$SHARD1_PID" "$COORD_PID" 2>/dev/null || true; rm -rf "$CL_DIR"' EXIT
sleep 1
grep -q "shard 0/2" "$CL_DIR/shard0.out"
grep -q "coordinator over 2 shards" "$CL_DIR/coord.out"
# Upload and a remote GROUP BY, both through the coordinator: the
# shards each pair only their slice and the router ⊕-merges the
# partials — the client sees one ordinary answer.
"$CLI" remote-upload --csv "$CL_DIR/data.csv" --schema "salary:int,dept:str" \
  --group-by dept --values salary --filters dept --threshold 1 \
  --port "$COORD_PORT" --name cluster --key-file "$CL_DIR/sagma.key"
"$CLI" remote-query --sum salary --group-by dept \
  --port "$COORD_PORT" --name cluster --key-file "$CL_DIR/sagma.key" \
  > "$CL_DIR/query.out"
grep -q "sales" "$CL_DIR/query.out"
grep -q "4000" "$CL_DIR/query.out"
# The Stats topology line names each node's role.
"$CLI" stats --port "$COORD_PORT" | grep -q "^topology: coordinator over 2 shards"
"$CLI" stats --port "$SHARD0_PORT" | grep -q "^topology: shard 0/2"
# The distributed request renders as ONE stitched span tree on the
# coordinator: request -> fanout -> shard:N -> remote:<phase>, the
# remote spans grafted from each shard's EXPLAIN trailer.
"$CLI" trace --port "$COORD_PORT" --out "$CL_DIR/cluster_trace.json"
python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
names = {e["name"] for e in xs}
assert "fanout" in names, names
assert "shard:0" in names and "shard:1" in names, names
remote = [n for n in names if n.startswith("remote:")]
assert remote, f"no grafted shard spans in {names}"
print(f"cluster trace OK: stitched spans {sorted(names)}")' \
  "$CL_DIR/cluster_trace.json"
# --- fleet health: probe, kill a shard, alert, recover -------------
# With both shards up the coordinator's health report is "ok" and the
# health subcommand exits zero.
"$CLI" health --port "$COORD_PORT" > "$CL_DIR/health_ok.out"
grep -q ": ok (uptime" "$CL_DIR/health_ok.out"
grep -q "$SHARD1_PORT" "$CL_DIR/health_ok.out"
# Federated Prometheus: the coordinator serves per-shard labeled series
# next to the fleet aggregates, plus the router's liveness gauges.
"$CLI" stats --port "$COORD_PORT" --prometheus > "$CL_DIR/coord_expo.txt"
grep -q '{shard="0"}' "$CL_DIR/coord_expo.txt"
grep -q '{shard="1"}' "$CL_DIR/coord_expo.txt"
grep -q '^sagma_router_shard_up{shard="0",endpoint=' "$CL_DIR/coord_expo.txt"
# Per-shard columns in the human view, and the --json satellite fix:
# one whole report object, not just the counter map.
"$CLI" stats --port "$COORD_PORT" --cluster > "$CL_DIR/cluster_stats.out"
grep -q "shard 0" "$CL_DIR/cluster_stats.out"
grep -q "shard 1" "$CL_DIR/cluster_stats.out"
"$CLI" stats --port "$COORD_PORT" --json > "$CL_DIR/stats.json"
python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
assert "snapshot" in doc and "uptime_s" in doc and "topology" in doc, doc.keys()
assert doc["snapshot"]["counters"], "empty counter map in stats --json"
assert doc["topology"]["role"] == "coordinator", doc["topology"]' \
  "$CL_DIR/stats.json"
# SIGKILL shard 1: within a couple of probe intervals the coordinator
# must notice, flip the health status to degraded naming the dead
# shard, exit nonzero from `sagma_cli health`, and log a structured
# firing `alert` event for the shard-down rule.
kill -9 "$SHARD1_PID" 2>/dev/null || true
i=0
while "$CLI" health --port "$COORD_PORT" > "$CL_DIR/health_degraded.out" 2>&1; do
  i=$((i+1))
  [ "$i" -lt 50 ] || { echo "health never went degraded after shard kill" >&2; exit 1; }
  sleep 0.1
done
grep -q ": degraded (uptime" "$CL_DIR/health_degraded.out"
grep -q "DOWN" "$CL_DIR/health_degraded.out"
grep -q "$SHARD1_PORT" "$CL_DIR/health_degraded.out"
i=0
until grep -q '"event":"alert"' "$CL_DIR/coord.jsonl" 2>/dev/null; do
  i=$((i+1))
  [ "$i" -lt 50 ] || { echo "no alert event in coordinator log" >&2; exit 1; }
  sleep 0.1
done
grep '"event":"alert"' "$CL_DIR/coord.jsonl" | grep '"state":"firing"' \
  | grep -q '"rule":"shard-down"'
# Restart the shard: recovery probing must bring it back, resolve the
# alert, and flip the health exit status back to zero.
"$SERVER" --port "$SHARD1_PORT" --shard-of 1/2 --metrics \
  > "$CL_DIR/shard1b.out" 2>&1 &
SHARD1_PID=$!
trap 'kill "$SHARD0_PID" "$SHARD1_PID" "$COORD_PID" 2>/dev/null || true; rm -rf "$CL_DIR"' EXIT
i=0
until "$CLI" health --port "$COORD_PORT" > "$CL_DIR/health_recovered.out" 2>&1; do
  i=$((i+1))
  [ "$i" -lt 100 ] || { echo "health never recovered after shard restart" >&2; exit 1; }
  sleep 0.1
done
grep -q ": ok (uptime" "$CL_DIR/health_recovered.out"
i=0
until grep '"event":"alert"' "$CL_DIR/coord.jsonl" | grep -q '"state":"resolved"'; do
  i=$((i+1))
  [ "$i" -lt 50 ] || { echo "shard-down alert never resolved" >&2; exit 1; }
  sleep 0.1
done
echo "fleet health kill/alert/recover OK"
# SIGTERM drains the coordinator: the router's probe loop joins, its
# pools stop, then the node logs server.stop and exits 0. A drain that
# hangs is cut off by SIGKILL after 10 s and fails the exit check.
kill -TERM "$COORD_PID"
( sleep 10; kill -9 "$COORD_PID" 2>/dev/null ) &
COORD_KILLER=$!
COORD_STATUS=0
wait "$COORD_PID" || COORD_STATUS=$?
kill "$COORD_KILLER" 2>/dev/null || true
if [ "$COORD_STATUS" -ne 0 ]; then
  echo "coordinator exited with status $COORD_STATUS after SIGTERM" >&2
  exit 1
fi
STOPS=$(grep -c '"event":"server.stop"' "$CL_DIR/coord.jsonl" || true)
if [ "$STOPS" -ne 1 ]; then
  echo "coordinator log has $STOPS server.stop events, want 1" >&2
  exit 1
fi
echo "coordinator SIGTERM drain OK"
kill "$SHARD0_PID" "$SHARD1_PID" 2>/dev/null || true
trap - EXIT
rm -rf "$CL_DIR"
echo "cluster smoke OK"

echo "== perfbench correctness smoke (count-filtered + fleet-append-mix, 2 s each) =="
# Every perfbench answer is checked against the plaintext executor; the
# bench exits nonzero on any wrong answer or failed operation. Short runs:
# this is a correctness gate, not a timing comparison.
PERF_DIR=$(mktemp -d)
trap 'rm -rf "$PERF_DIR"' EXIT
bash perfbench/run.sh --workload count-filtered --workload fleet-append-mix --seconds 2 \
  --out "$PERF_DIR/perf.json"
rm -rf "$PERF_DIR"
trap - EXIT
echo "perfbench correctness smoke OK"

echo "== all checks passed =="
