#!/usr/bin/env bash
# Runs the definability benchmark suite and writes BENCH_results.json at the
# repo root: wall time, tuples/sec (or monoid elements/sec) and peak tuple
# counts per benchmark, plus speedups over the persisted pre-kernel baseline
# for the three standard medium workloads. CI's perf-smoke leg runs this and
# uploads the JSON as an artifact; run it locally from a Release build:
#
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
#   tools/run_benches.sh build

set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${REPO_ROOT}/BENCH_results.json"
MIN_TIME="${GQD_BENCH_MIN_TIME:-0.2}"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

BENCHES=(bench_rem_definability bench_ree_definability
         bench_ucrdpq_definability)
for bench in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/bench/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not found — build the repo first" >&2
    exit 1
  fi
  # GQD_TRACE_OUT makes the binary's static trace hook record stage spans
  # and dump a Chrome trace at exit; its gqdStageTotals block feeds the
  # per-stage wall summaries attached to BENCH_results.json below.
  GQD_TRACE_OUT="${TMP_DIR}/${bench}.trace.json" \
    "${bin}" --benchmark_format=json --benchmark_min_time="${MIN_TIME}" \
    > "${TMP_DIR}/${bench}.json"
done

# Storage: mmap vs text-parse load cost on a SIDE×SIDE grid (default 1000,
# i.e. a million nodes). Each `info --json` run is a fresh process, so its
# storage block and peak_rss_kb isolate one loading path; the python merge
# below turns the pair into the load-speedup / RSS-delta record.
GQD_BIN="${BUILD_DIR}/tools/gqd"
SIDE="${GQD_STORAGE_SIDE:-1000}"
if [[ -x "${GQD_BIN}" ]]; then
  "${GQD_BIN}" gen grid --rows "${SIDE}" --cols "${SIDE}" --seed 1 \
    --out "${TMP_DIR}/grid.gqdg" 2> /dev/null
  "${GQD_BIN}" convert graph "${TMP_DIR}/grid.gqdg" --validate > /dev/null
  "${GQD_BIN}" convert graph "${TMP_DIR}/grid.gqdg" "${TMP_DIR}/grid.graph" \
    2> /dev/null
  "${GQD_BIN}" info "${TMP_DIR}/grid.graph" --json \
    > "${TMP_DIR}/storage_text.json"
  "${GQD_BIN}" info "${TMP_DIR}/grid.gqdg" --json \
    > "${TMP_DIR}/storage_mmap.json"
else
  echo "warning: ${GQD_BIN} not found — skipping the storage benchmark" >&2
fi

# Relations: the density-adaptive layer vs the dense matrix. Two probes:
# a medium grid where every backend runs (wall + RSS per backend), and the
# million-node grid where the dense matrix is refused under the byte budget
# the sparse backend completes in. The relation is R_{a.b} (--word), so the
# rpq check terminates with a definable verdict at any scale.
if [[ -x "${GQD_BIN}" ]]; then
  REL_SIDE="${GQD_RELATION_SIDE:-100}"
  REL_BUDGET="${GQD_RELATION_BUDGET:-400000000}"
  "${GQD_BIN}" gen grid --rows "${REL_SIDE}" --cols "${REL_SIDE}" --seed 1 \
    --out "${TMP_DIR}/rel_grid.gqdg" 2> /dev/null
  "${GQD_BIN}" gen relation --graph "${TMP_DIR}/rel_grid.gqdg" \
    --out "${TMP_DIR}/rel_grid.gqdr" --word a.b 2> /dev/null
  for backend in dense sparse blocked; do
    "${GQD_BIN}" check "${TMP_DIR}/rel_grid.gqdg" "${TMP_DIR}/rel_grid.gqdr" \
      --language rpq --relation-backend "${backend}" --json \
      > "${TMP_DIR}/relation_${backend}.json"
  done
  if [[ -f "${TMP_DIR}/grid.gqdg" ]]; then
    "${GQD_BIN}" gen relation --graph "${TMP_DIR}/grid.gqdg" \
      --out "${TMP_DIR}/grid_rel.gqdr" --word a.b 2> /dev/null
    "${GQD_BIN}" check "${TMP_DIR}/grid.gqdg" "${TMP_DIR}/grid_rel.gqdr" \
      --language rpq --relation-backend sparse --max-bytes "${REL_BUDGET}" \
      --json > "${TMP_DIR}/relation_million.json" \
      || echo "warning: million-node sparse check failed" >&2
    # The same budget must refuse the dense matrix: record exit code (4)
    # and the admission estimate from the refusal message.
    set +e
    "${GQD_BIN}" check "${TMP_DIR}/grid.gqdg" "${TMP_DIR}/grid_rel.gqdr" \
      --language rpq --relation-backend dense --max-bytes "${REL_BUDGET}" \
      > /dev/null 2> "${TMP_DIR}/relation_million_dense.err"
    echo $? > "${TMP_DIR}/relation_million_dense.rc"
    set -e
  fi
fi

# Cluster serving: the same client workload against a 1-worker and a
# 4-worker fleet behind the router. Workers model a fixed service time per
# query, so fleet throughput scales with worker count even on a single-core
# host; the pin below guards the router's sharded placement + replica
# read-spreading from regressing to a single hot primary. A failed run
# (errors or verdict mismatches exit non-zero) fails the script.
if [[ -x "${GQD_BIN}" ]]; then
  for workers in 1 4; do
    "${GQD_BIN}" bench-serve --workers "${workers}" --clients 16 \
      --requests 200 --json > "${TMP_DIR}/cluster_w${workers}.json" || {
      echo "error: ${workers}-worker cluster bench failed" >&2
      exit 1
    }
  done
fi

python3 - "${TMP_DIR}" "${OUT}" "${BENCHES[@]}" <<'EOF'
import json
import sys

tmp_dir, out_path, benches = sys.argv[1], sys.argv[2], sys.argv[3:]

# Pre-kernel-rewrite wall times (ms, Release) for the standard medium
# workloads — the baseline the word-parallel successor kernels are measured
# against. Re-pin these when the workloads themselves change.
BASELINE_MS = {
    "BM_KRemDefinability_SweepN/7": 13.132,
    "BM_KRemDefinability_WithCycle": 5.891,
    "BM_ReeDefinability_SweepDensity/40": 4545.422,
}

results = []
stage_totals = {}
for bench in benches:
    with open(f"{tmp_dir}/{bench}.json") as f:
        data = json.load(f)
    # Per-stage wall totals from the tracer (exact even under ring
    # overflow), keyed by span name; ms to match wall_ms above.
    try:
        with open(f"{tmp_dir}/{bench}.trace.json") as f:
            trace = json.load(f)
        stage_totals[bench] = {
            name: {"count": t["count"], "wall_ms": t["total_ns"] / 1e6}
            for name, t in trace.get("gqdStageTotals", {}).items()
        }
        if trace.get("gqdDroppedSpans"):
            stage_totals[bench]["_dropped_spans"] = trace["gqdDroppedSpans"]
    except (OSError, ValueError):
        pass  # tracing compiled out or trace file missing
    for b in data["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            "suite": bench,
            "name": b["name"],
            "wall_ms": b["real_time"] / 1e6,
            "cpu_ms": b["cpu_time"] / 1e6,
            "iterations": b["iterations"],
        }
        for counter in ("macro_tuples", "monoid_size", "tuples_per_sec",
                        "elements_per_sec", "levels", "verdict",
                        "hom_seeds", "csp_nodes"):
            if counter in b:
                entry[counter] = b[counter]
        results.append(entry)

medium = {}
for entry in results:
    baseline = BASELINE_MS.get(entry["name"])
    if baseline is not None:
        medium[entry["name"]] = {
            "wall_ms": entry["wall_ms"],
            "baseline_ms": baseline,
            "speedup": baseline / entry["wall_ms"],
        }

# *_Plan/*_NoPlan pairs are same-workload ablations of the query-plan
# kernel dispatch; pair them into speedup records (NoPlan is the
# reference walk the planned engine runs when no dispatch table is built).
plan_dispatch = {}
by_name = {e["name"]: e for e in results}
for name, entry in by_name.items():
    if not name.endswith("_Plan"):
        continue
    generic = by_name.get(name[: -len("_Plan")] + "_NoPlan")
    if generic is None:
        continue
    plan_dispatch[name[: -len("_Plan")]] = {
        "planned_ms": entry["wall_ms"],
        "generic_ms": generic["wall_ms"],
        "speedup": generic["wall_ms"] / entry["wall_ms"],
    }

# Storage backend comparison: one process per loading path, so each
# peak_rss_kb reflects only that path's footprint.
storage = {}
try:
    with open(f"{tmp_dir}/storage_text.json") as f:
        text = json.load(f)
    with open(f"{tmp_dir}/storage_mmap.json") as f:
        mmap = json.load(f)
    def side(info):
        s = info["storage"]
        return {
            "backend": s["backend"],
            "load_ms": s["load_micros"] / 1e3,
            "source_bytes": s["source_bytes"],
            "resident_bytes": s["resident_bytes"],
            "peak_rss_kb": info["peak_rss_kb"],
        }
    storage = {
        "workload": f"grid {text['nodes']} nodes / {text['edges']} edges",
        "text": side(text),
        "mmap": side(mmap),
        "load_speedup": (text["storage"]["load_micros"]
                         / max(mmap["storage"]["load_micros"], 1)),
        "peak_rss_delta_kb": text["peak_rss_kb"] - mmap["peak_rss_kb"],
    }
except (OSError, ValueError, KeyError):
    pass  # storage leg skipped (gqd binary missing)

# Relation backends: per-backend wall/RSS on the medium grid, plus the
# million-node record (sparse admitted, dense refused). The pinned factor
# plays the role BASELINE_MS plays above: the dense matrix must cost at
# least this many times the adaptive representation's bytes, else the
# adaptive layer has regressed.
RELATION_MIN_BYTES_FACTOR = 8.0
sparse_relations = {}

def check_side(path):
    with open(path) as f:
        d = json.load(f)
    return {
        "backend": d["relation"]["backend"],
        "nnz": d["relation"]["nnz"],
        "relation_bytes": d["relation"]["bytes"],
        "wall_ms": d["wall_ms"],
        "peak_rss_kb": d["peak_rss_kb"],
        "verdicts": d["verdicts"],
    }

try:
    mid = {b: check_side(f"{tmp_dir}/relation_{b}.json")
           for b in ("dense", "sparse", "blocked")}
    bytes_factor = (mid["dense"]["relation_bytes"]
                    / max(mid["sparse"]["relation_bytes"], 1))
    sparse_relations["medium_grid"] = {
        **mid,
        "dense_vs_sparse_bytes_factor": bytes_factor,
        "dense_vs_sparse_wall_factor": (
            mid["dense"]["wall_ms"] / max(mid["sparse"]["wall_ms"], 1e-9)),
        "min_bytes_factor": RELATION_MIN_BYTES_FACTOR,
        "meets_pin": bytes_factor >= RELATION_MIN_BYTES_FACTOR,
        "verdicts_identical": len({json.dumps(s["verdicts"], sort_keys=True)
                                   for s in mid.values()}) == 1,
    }
except (OSError, ValueError, KeyError):
    pass  # relation leg skipped (gqd binary missing)

try:
    import re
    million = {"sparse": check_side(f"{tmp_dir}/relation_million.json")}
    with open(f"{tmp_dir}/relation_million_dense.rc") as f:
        million["dense_refusal_exit"] = int(f.read().strip())
    with open(f"{tmp_dir}/relation_million_dense.err") as f:
        m = re.search(r"estimated at (\d+) bytes", f.read())
    if m:
        million["dense_estimate_bytes"] = int(m.group(1))
        million["admitted_vs_refused_bytes_factor"] = (
            million["dense_estimate_bytes"]
            / max(million["sparse"]["relation_bytes"], 1))
    sparse_relations["million_grid"] = million
except (OSError, ValueError, KeyError):
    pass  # million-node leg skipped (storage leg disabled or check failed)

# Cluster scaling: 4 workers vs 1 on the identical sharded workload. Like
# RELATION_MIN_BYTES_FACTOR this is a pinned floor, not a measurement — if
# the router stops spreading reads across replicas or the bench collapses
# onto one primary, the speedup drops toward 1x and meets_pin flips.
CLUSTER_MIN_SPEEDUP = 2.5
cluster = {}
try:
    with open(f"{tmp_dir}/cluster_w1.json") as f:
        w1 = json.load(f)
    with open(f"{tmp_dir}/cluster_w4.json") as f:
        w4 = json.load(f)
    speedup = w4["throughput_rps"] / max(w1["throughput_rps"], 1e-9)
    cluster = {
        "workload": (f"{w4['clients']} clients x "
                     f"{w4['requests'] // max(w4['clients'], 1)} requests, "
                     "sharded rpq/check mix"),
        "workers_1_rps": w1["throughput_rps"],
        "workers_4_rps": w4["throughput_rps"],
        "speedup": speedup,
        "min_speedup": CLUSTER_MIN_SPEEDUP,
        "meets_pin": speedup >= CLUSTER_MIN_SPEEDUP,
        "errors": w1["errors"] + w4["errors"],
        "mismatches": w1["mismatches"] + w4["mismatches"],
        "worker_requests_4": w4["cluster"]["worker_requests"],
        "latency_p50_us_4": w4["latency_us"]["p50"],
        "latency_p99_us_4": w4["latency_us"]["p99"],
    }
except (OSError, ValueError, KeyError):
    pass  # cluster leg skipped (gqd binary missing or bench failed)

with open(out_path, "w") as f:
    json.dump(
        {
            "generated_by": "tools/run_benches.sh",
            "baseline": "pre word-parallel kernel rewrite (Release)",
            "medium_configs": medium,
            "plan_dispatch": plan_dispatch,
            "storage": storage,
            "sparse_relations": sparse_relations,
            "cluster": cluster,
            "benchmarks": results,
            "trace_stage_totals": stage_totals,
        },
        f,
        indent=2,
    )
    f.write("\n")

for name, m in sorted(medium.items()):
    print(f"{name}: {m['wall_ms']:.3f} ms "
          f"(baseline {m['baseline_ms']:.3f} ms, {m['speedup']:.2f}x)")
for name, m in sorted(plan_dispatch.items()):
    print(f"{name}: planned {m['planned_ms']:.3f} ms vs generic "
          f"{m['generic_ms']:.3f} ms ({m['speedup']:.2f}x)")
if storage:
    print(f"storage ({storage['workload']}): "
          f"text {storage['text']['load_ms']:.1f} ms vs "
          f"mmap {storage['mmap']['load_ms']:.1f} ms "
          f"({storage['load_speedup']:.1f}x), "
          f"peak RSS {storage['text']['peak_rss_kb']} kB vs "
          f"{storage['mmap']['peak_rss_kb']} kB")
if "medium_grid" in sparse_relations:
    mg = sparse_relations["medium_grid"]
    print(f"relations (medium grid): dense {mg['dense']['relation_bytes']} B "
          f"vs sparse {mg['sparse']['relation_bytes']} B "
          f"({mg['dense_vs_sparse_bytes_factor']:.1f}x, pin "
          f"{mg['min_bytes_factor']}x, "
          f"{'ok' if mg['meets_pin'] else 'REGRESSED'}), "
          f"verdicts identical: {mg['verdicts_identical']}")
if "million_grid" in sparse_relations:
    ml = sparse_relations["million_grid"]
    print(f"relations (million grid): sparse admitted "
          f"({ml['sparse']['wall_ms']:.0f} ms, "
          f"peak RSS {ml['sparse']['peak_rss_kb']} kB), dense refused "
          f"(exit {ml['dense_refusal_exit']})")
if cluster:
    print(f"cluster ({cluster['workload']}): "
          f"1 worker {cluster['workers_1_rps']:.0f} rps vs "
          f"4 workers {cluster['workers_4_rps']:.0f} rps "
          f"({cluster['speedup']:.2f}x, pin {cluster['min_speedup']}x, "
          f"{'ok' if cluster['meets_pin'] else 'REGRESSED'}), "
          f"errors {cluster['errors']}, mismatches {cluster['mismatches']}")
print(f"wrote {out_path}")
EOF
