#!/usr/bin/env bash
# End-to-end observability check, run by CI's observability job and usable
# locally against a Release build:
#
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
#   tools/check_observability.sh build [out-dir]
#
# 1. Runs a traced `gqd check` (frontier-parallel k-REM) and validates the
#    Chrome trace-event JSON: schema of every event, stage totals present,
#    and per-generation BFS spans summing to within 10% of the reported
#    krem.bfs wall time.
# 2. Starts `gqd serve`, exercises a trace:true eval, sends two identical
#    traced checks per setup kind (the second must reuse the first one's
#    k-assignment graph / REE monoid: no build span, a setup hit), and
#    validates the `metrics` Prometheus text exposition line-by-line
#    (scrape format).
# 3. Starts a two-worker `gqd route` cluster, validates that a traced
#    routed eval returns ONE merged span tree (router + worker spans under
#    one trace id), that router stats carry per-command quantiles and
#    tail-sampled exemplars, that SIGKILLing the serving worker yields a
#    failover with zero client-visible errors plus a trace-correlated
#    structured log event, and that --trace-out writes a merged Chrome
#    trace with one process track per participant.
#
# Artifacts (trace JSONs + metrics text) land in the output directory.

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-obs-artifacts}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
GQD="${BUILD_DIR}/tools/gqd"

if [[ ! -x "${GQD}" ]]; then
  echo "error: ${GQD} not found — build gqd_cli first" >&2
  exit 1
fi
mkdir -p "${OUT_DIR}"

GRAPH="${REPO_ROOT}/examples/data/social_network.graph"
RELATION="${REPO_ROOT}/examples/data/movie_link.pairs"
TRACE="${OUT_DIR}/check_trace.json"

echo "== traced gqd check (k-REM, 2 threads) =="
"${GQD}" check "${GRAPH}" "${RELATION}" --language rem --k 2 --threads 2 \
  --trace-out "${TRACE}"

python3 - "${TRACE}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)

events = trace["traceEvents"]
assert events, "trace has no events"
for e in events:
    # Chrome trace-event complete-event schema.
    assert isinstance(e["name"], str) and e["name"], e
    assert e["cat"] == "gqd", e
    assert e["ph"] == "X", e
    assert isinstance(e["ts"], (int, float)), e
    assert isinstance(e["dur"], (int, float)), e
    assert e["pid"] == 1, e
    assert isinstance(e["tid"], int), e
    assert isinstance(e["args"], dict), e
assert trace["displayTimeUnit"] == "ms"
assert isinstance(trace["gqdDroppedSpans"], int)
totals = trace["gqdStageTotals"]
for name, t in totals.items():
    assert t["count"] > 0 and t["total_ns"] >= 0, (name, t)

by_name = {}
for e in events:
    by_name.setdefault(e["name"], []).append(e)
for required in ("krem.bfs", "krem.bfs_generation",
                 "krem.assignment_graph_build", "krem.generate_batch"):
    assert required in by_name, f"missing span {required}: {sorted(by_name)}"

bfs = by_name["krem.bfs"][0]["dur"]
generations = sum(e["dur"] for e in by_name["krem.bfs_generation"])
ratio = generations / bfs if bfs else 0.0
print(f"krem.bfs = {bfs:.1f} us, generation spans sum = {generations:.1f} us"
      f" ({ratio:.1%})")
assert 0.9 <= ratio <= 1.0, (
    f"per-generation spans sum to {ratio:.1%} of krem.bfs wall time "
    "(acceptance bound: within 10%)")
print("trace schema OK")
EOF

echo "== gqd serve: trace:true + metrics over a socket =="
SERVE_LOG="${OUT_DIR}/serve.log"
"${GQD}" serve --port 0 --graph "${GRAPH}" > "${SERVE_LOG}" 2>/dev/null &
SERVE_PID=$!
trap 'kill "${SERVE_PID}" 2>/dev/null || true' EXIT

PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/^listening 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "${SERVE_LOG}" 2>/dev/null || true)"
  [[ -n "${PORT}" ]] && break
  sleep 0.1
done
if [[ -z "${PORT}" ]]; then
  echo "error: server did not report a port" >&2
  exit 1
fi

python3 - "${PORT}" "${OUT_DIR}/metrics.txt" "${RELATION}" <<'EOF'
import json
import re
import socket
import sys

port, metrics_path, relation_path = int(sys.argv[1]), sys.argv[2], sys.argv[3]


def call(request):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall((json.dumps(request) + "\n").encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data.decode())

# Traced eval: the inline span tree must cover admission, cache lookup,
# and the handler, nested under serve.request.
traced = call({"cmd": "eval", "graph": "social_network", "language": "rpq",
               "query": "follows+", "trace": True})
assert traced["ok"], traced
tree = traced["trace"]
assert isinstance(tree, list) and tree, traced
names = set()


def walk(nodes):
    for node in nodes:
        names.add(node["name"])
        walk(node["children"])


walk(tree)
for required in ("serve.request", "serve.admission", "serve.cache_lookup",
                 "serve.handler"):
    assert required in names, f"missing {required} in {sorted(names)}"
print("trace:true span tree OK:", ", ".join(sorted(names)))

# A second identical eval must hit the result cache.
again = call({"cmd": "eval", "graph": "social_network", "language": "rpq",
              "query": "follows+", "trace": True})
assert '"hit":1' in json.dumps(again, separators=(",", ":")), again

# Check setup reuse: the second identical traced check runs on the setup
# the first one built, so its span tree has no assignment-graph build or
# level-closure span, and the setup counters record the hit.
with open(relation_path) as f:
    relation = f.read()
for checker, k, closure_span in (("krem", 1, "krem.assignment_graph_build"),
                                 ("ree", 0, "ree.level_algorithm")):
    request = {"cmd": "check", "graph": "social_network", "checker": checker,
               "k": k, "relation": relation, "trace": True}
    trees = []
    for _ in range(2):
        response = call(request)
        assert response["ok"], response
        names.clear()
        walk(response["trace"])
        trees.append(set(names))
    assert closure_span in trees[0], (closure_span, sorted(trees[0]))
    assert closure_span not in trees[1], (closure_span, sorted(trees[1]))
    assert "serve.check_setup_reuse" in trees[1], sorted(trees[1])
    print(f"{checker}: warm check reuses the setup (no {closure_span} span)")

# Prometheus exposition: validate every line against the scrape format.
response = call({"cmd": "metrics"})
assert response["ok"], response
text = response["metrics"]
with open(metrics_path, "w") as f:
    f.write(text)
assert text.endswith("\n"), "exposition must end with a newline"
sample_re = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? '
    r'-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$')
type_re = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")
families = set()
for line in text.splitlines():
    if line.startswith("# TYPE"):
        assert type_re.match(line), f"bad TYPE line: {line!r}"
        families.add(line.split()[2])
    else:
        assert sample_re.match(line), f"bad sample line: {line!r}"
for required in ("gqd_requests_total", "gqd_request_latency_us",
                 "gqd_command_requests_total", "gqd_cache_hits_total",
                 "gqd_pool_threads", "gqd_admission_admitted_total",
                 "gqd_budget_exhausted_total",
                 "gqd_failpoint_triggered_total",
                 "gqd_plan_builds_total",
                 "gqd_plan_kernel_hits_total",
                 "gqd_check_setup_total",
                 "gqd_check_setup_bytes"):
    assert required in families, f"missing family {required}"
for kind in ("krem", "ree"):
    hit = f'gqd_check_setup_total{{kind="{kind}",result="hit"}} 1'
    assert hit in text.splitlines(), f"missing {hit!r}"
print(f"metrics exposition OK ({len(families)} families)")

call({"cmd": "shutdown"})
EOF

wait "${SERVE_PID}" || true
trap - EXIT

echo "== gqd route: merged cluster trace, stats, failover log event =="
W1_LOG="${OUT_DIR}/worker1.log"
W2_LOG="${OUT_DIR}/worker2.log"
ROUTE_LOG="${OUT_DIR}/route.log"
CLUSTER_TRACE="${OUT_DIR}/cluster_trace.json"

port_from_log() {
  local log="$1" port=""
  for _ in $(seq 1 50); do
    port="$(sed -n 's/^listening 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "${log}" 2>/dev/null || true)"
    [[ -n "${port}" ]] && break
    sleep 0.1
  done
  echo "${port}"
}

# disown keeps bash from reporting the deliberate SIGKILL mid-check.
"${GQD}" serve --port 0 > "${W1_LOG}" 2>/dev/null &
W1_PID=$!
disown "${W1_PID}"
"${GQD}" serve --port 0 > "${W2_LOG}" 2>/dev/null &
W2_PID=$!
disown "${W2_PID}"
trap 'kill "${W1_PID}" "${W2_PID}" "${ROUTE_PID:-}" 2>/dev/null || true' EXIT

W1_PORT="$(port_from_log "${W1_LOG}")"
W2_PORT="$(port_from_log "${W2_LOG}")"
if [[ -z "${W1_PORT}" || -z "${W2_PORT}" ]]; then
  echo "error: workers did not report ports" >&2
  exit 1
fi

"${GQD}" route --worker "${W1_PORT}" --worker "${W2_PORT}" --replication 2 \
  --graph "${GRAPH}" --port 0 --trace-out "${CLUSTER_TRACE}" \
  > "${ROUTE_LOG}" 2>/dev/null &
ROUTE_PID=$!
ROUTE_PORT="$(port_from_log "${ROUTE_LOG}")"
if [[ -z "${ROUTE_PORT}" ]]; then
  echo "error: router did not report a port" >&2
  exit 1
fi

python3 - "${ROUTE_PORT}" "${W1_PID}" "${W2_PID}" <<'EOF'
import json
import os
import re
import signal
import socket
import sys
import time

port = int(sys.argv[1])
worker_pids = [int(sys.argv[2]), int(sys.argv[3])]


def call(request):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall((json.dumps(request) + "\n").encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data.decode())

# A traced routed eval returns one merged cross-process span tree.
traced = call({"cmd": "eval", "graph": "social_network", "language": "rpq",
               "query": "follows+", "trace": True})
assert traced["ok"], traced
assert re.fullmatch(r"[0-9a-f]{32}", traced["trace_id"]), traced
assert traced["served_by"] in (0, 1), traced
assert traced["failovers"] == 0, traced
tree = traced["trace"]
assert isinstance(tree, list) and tree, traced

names, sources = set(), set()


def walk(nodes):
    for node in nodes:
        for key in ("name", "start_us", "dur_us", "tid", "source", "args",
                    "children"):
            assert key in node, node
        names.add(node["name"])
        sources.add(node["source"])
        walk(node["children"])


walk(tree)
for required in ("route.request", "route.replica_pick", "route.transport",
                 "serve.request", "serve.handler"):
    assert required in names, f"missing span {required}: {sorted(names)}"
assert "router" in sources, sources
assert any(s.startswith("worker ") for s in sources), sources
print("merged trace OK: router + worker spans under one trace id,",
      "sources:", ", ".join(sorted(sources)))

# Router stats: per-command latency quantiles + tail-sampled exemplars.
stats = call({"cmd": "stats"})
assert stats["ok"], stats
eval_latency = stats["cluster"]["per_command_latency_us"]["eval"]
assert eval_latency["count"] >= 1, stats
assert eval_latency["p99"] >= eval_latency["p50"], stats
exemplars = stats["exemplars"]["eval"]
assert exemplars and re.fullmatch(r"[0-9a-f]{32}",
                                  exemplars[0]["trace_id"]), stats
assert isinstance(exemplars[0]["trace"], list), stats
print("router stats OK: per-command quantiles + exemplars")

# SIGKILL the worker that served the traced request. Failover must be
# invisible to the client and logged as a structured, trace-correlated
# event.
os.kill(worker_pids[traced["served_by"]], signal.SIGKILL)
failover_trace = None
for _ in range(20):
    response = call({"cmd": "eval", "graph": "social_network",
                     "language": "rpq", "query": "follows+"})
    assert response["ok"], response  # zero client-visible errors
    if response.get("failovers", 0) >= 1:
        failover_trace = response["trace_id"]
        break
    time.sleep(0.02)
assert failover_trace, "no request failed over after the worker kill"

log = call({"cmd": "log"})
assert log["ok"], log
correlated = [e for e in log["events"]
              if e["event"] == "failover"
              and e.get("trace_id") == failover_trace]
assert correlated, (failover_trace, log["events"])
event = correlated[0]
assert event["level"] == "warn" and event["component"] == "cluster", event
assert event["cmd"] == "eval" and "to_worker" in event, event
print("failover OK: zero client errors, structured event correlated to",
      failover_trace)

call({"cmd": "shutdown"})
EOF

wait "${ROUTE_PID}" || true
kill "${W1_PID}" "${W2_PID}" 2>/dev/null || true
trap - EXIT

python3 - "${CLUSTER_TRACE}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)

events = trace["traceEvents"]
pids = {e["pid"] for e in events if e.get("ph") == "X"}
assert len(pids) >= 2, f"expected router + worker tracks, got pids {pids}"
tracks = {e["pid"]: e["args"]["name"] for e in events
          if e.get("ph") == "M" and e.get("name") == "process_name"}
assert tracks.get(1) == "router", tracks
assert any(name.startswith("worker ") for name in tracks.values()), tracks
print(f"cluster trace-out OK: {len(events)} events"
      f" across {len(pids)} process tracks")
EOF

echo "observability check passed; artifacts in ${OUT_DIR}/"
