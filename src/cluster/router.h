// The cluster routing front: a LineHandler that consistent-hashes
// requests on graph fingerprint across a fleet of `gqd serve` workers.
//
// Topology (docs/runtime.md): clients speak the ordinary newline-JSON
// protocol to a front Server hosting a Router; the Router forwards each
// request to a backend worker chosen by HashRing::Owners(fingerprint, R)
// and relays the response verbatim. Because every worker computes
// deterministic verdicts, a response is bit-identical no matter which
// replica served it — failover is invisible to clients.
//
// Placement: `load` is forwarded to a seed worker to learn the graph's
// fingerprint (GraphRegistry computes it), then replayed to the R ring
// owners and recorded in the routing table (name → fingerprint, owners,
// load line). Graph commands rotate round-robin across the R owners —
// every routed command is a pure read, so spreading across replicas is
// free capacity — and fail over through the rest of the owner list.
// Unknown graph names fall back to hashing the name itself, which keeps
// identically pre-loaded fleets routable.
//
// Failover: a transport error (worker died, possibly mid-request) records
// a health failure and retries the next replica — queries are pure, so
// re-execution is safe. A shed (Unavailable) tries the next replica
// immediately and only returns Unavailable to the client when every
// routable replica shed, with the smallest per-worker retry_after_ms
// hint. When all replicas are down the client sees Unavailable with a
// retry hint, never a hang.
//
// Health: a background loop probes every worker each probe_interval_ms
// (ping bypasses worker admission, so saturation is not death). Probe
// failures drive healthy → suspect → dead; a probe success from suspect
// or dead claims rejoining, replays the router's load log and recent eval
// log for the shards the worker owns (cache warming), then restores
// healthy. Rejoining workers take no traffic.
//
// Tracing (docs/observability.md): every routed eval/check — and any
// routed command the client sends with `"trace": true` — gets a minted
// TraceContext. Router-side spans (route.request, route.replica_pick,
// route.transport) record into a SpanCollector; each forwarded line
// carries the context as a `"trace"` traceparent string with the
// transport span as parent, so worker spans nest under the attempt that
// carried them. After the response, tail sampling decides whether to pay
// for collection: the client asked, the latency reached the command's
// rolling p99, the exemplar store has room, or --trace-out is recording.
// Collection drains the router's own spans plus each participating
// worker's (`spans` roundtrip, clock-offset aligned) and merges them into
// one cross-process tree keyed by the trace id. The slowest traces per
// command are retained as exemplars, surfaced by `stats`; every routed
// response gains `served_by` (worker index) and `failovers` (replica
// retries this request). Operational events (failovers, sheds,
// worker-state transitions, warm replays) go to the structured EventLog,
// drained by the `log` command.

#ifndef GQD_CLUSTER_ROUTER_H_
#define GQD_CLUSTER_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/worker_link.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "runtime/line_handler.h"

namespace gqd {

struct RouterOptions {
  /// Backend worker ports (127.0.0.1). Fleet membership is fixed for the
  /// router's lifetime; crashes are handled by health state, not removal.
  std::vector<std::uint16_t> worker_ports;
  /// Replication factor R: each graph is loaded on R ring owners. Clamped
  /// to the fleet size.
  std::size_t replication = 2;
  /// Pooled connections per worker (= per-worker in-flight cap).
  std::size_t pool_size = 4;
  /// Health-probe period.
  int probe_interval_ms = 50;
  /// Consecutive failures before a suspect worker is declared dead.
  int suspect_threshold = 3;
  /// Recent eval/check lines kept for cache warming on rejoin.
  std::size_t warm_log_capacity = 128;
  /// Fallback retry hint when the fleet is down and no worker supplied
  /// one.
  int retry_after_ms = 50;
  /// Tail-sampled slow-trace exemplars retained per command (0 disables
  /// the exemplar store, not tracing itself).
  std::size_t exemplar_capacity = 4;
  /// When non-empty, Stop() writes every merged trace collected over the
  /// router's lifetime to this path as one Chrome trace-event JSON file
  /// (one process track per participant). Forces collection on every
  /// traced request.
  std::string trace_out;
};

class Router : public LineHandler {
 public:
  explicit Router(const RouterOptions& options);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Starts the health loop. Workers need not be up yet — they enter
  /// through the probe/rejoin path as they come online.
  Status Start();
  /// Stops the health loop. Idempotent.
  void Stop();

  std::string HandleLine(const std::string& line, bool* shutdown) override;

  /// Point-in-time cluster counters (also exported as gqd_cluster_*).
  struct Snapshot {
    std::uint64_t requests = 0;        ///< lines routed to workers
    std::uint64_t failovers = 0;       ///< replica-to-replica retries
    std::uint64_t sheds_returned = 0;  ///< all replicas shed → client
    std::uint64_t all_down_returned = 0;
    std::uint64_t warm_replays = 0;    ///< rejoin warm cycles completed
    std::uint64_t warm_lines = 0;      ///< lines replayed while warming
    std::vector<WorkerState> worker_states;
    std::vector<std::uint64_t> worker_requests;
  };
  Snapshot GetSnapshot() const;

  WorkerState worker_state(std::size_t i) const {
    return workers_[i]->state();
  }
  std::size_t worker_count() const { return workers_.size(); }

  MetricsRegistry& metrics() { return metrics_; }

 private:
  struct RouteEntry {
    std::string fingerprint;
    std::string load_line;  ///< replayed to warm a rejoining owner
    std::vector<std::size_t> owners;
  };
  struct WarmEntry {
    std::string graph;
    std::string line;
  };
  /// One replica-failover pass over a shard's owners.
  struct AttemptOutcome {
    std::string response;  ///< the line to relay (success or error)
    bool success = false;  ///< response came from a worker, not the router
    int served_by = -1;    ///< worker index that produced the response
    std::uint64_t failovers = 0;  ///< replica retries within this request
    /// Workers that answered a traced roundtrip (may hold spans to drain).
    std::vector<std::size_t> participants;
  };
  /// A retained slow-request trace.
  struct Exemplar {
    std::string trace_id;
    std::uint64_t latency_us = 0;
    std::int64_t ts_ms = 0;  ///< wall clock at retention
    std::string tree_json;   ///< MergedSpanTreeToJson output
  };

  JsonValue HandlePing() const;
  JsonValue HandleStats();
  JsonValue HandleMetricsCmd();
  std::string HandleShutdown(const JsonValue* id);
  std::string HandleLoad(const JsonValue& request, const JsonValue* id,
                         const std::string& line);
  std::string RouteGraphCommand(const std::string& cmd,
                                const JsonValue& request, const JsonValue* id,
                                const std::string& line);
  /// The replica-failover loop. With `context`, each attempt opens a
  /// route.transport span and forwards the line rewritten to carry the
  /// context (parented under that span) instead of `line` verbatim.
  AttemptOutcome AttemptReplicas(const std::string& cmd,
                                 const JsonValue& request, const JsonValue* id,
                                 const std::string& line,
                                 const TraceContext* context);
  /// Injects served_by/failovers — plus the merged trace tree when
  /// `tree_json` is given and the response is ok — into a relayed line.
  std::string WithRoutingFields(const AttemptOutcome& out,
                                const std::string* tree_json);

  /// Post-hoc tail-sampling decision for a completed traced request.
  bool QualifiesForCollection(const std::string& cmd,
                              std::uint64_t latency_us);
  /// Drains the router's own spans plus each participant worker's
  /// (`spans` roundtrip, clock-offset aligned) into one merged span set.
  std::vector<OwnedSpan> CollectTrace(
      const TraceContext& context,
      const std::vector<std::size_t>& participants);
  void RecordExemplar(const std::string& cmd, Exemplar exemplar);
  void AppendTraceSink(const std::vector<OwnedSpan>& spans);

  /// Owners for `graph` from the routing table, or the name-hash fallback.
  std::vector<std::size_t> OwnersFor(const std::string& graph);

  void HealthLoop();
  /// Replays load lines + the recent eval log for shards `worker` owns.
  /// True when every line round-tripped.
  bool WarmWorker(WorkerLink& worker);
  void RecordEvalForWarmup(const std::string& graph, const std::string& line);
  void UpdateStateGauges();

  const RouterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<WorkerLink>> workers_;

  mutable std::mutex table_mutex_;
  std::unordered_map<std::string, RouteEntry> table_;
  std::deque<WarmEntry> warm_log_;

  /// Router-side spans for in-flight traced requests (shared across
  /// server threads; Take extracts one trace's spans by id).
  SpanCollector collector_;
  /// Tail-sampled exemplars, slowest-first per command.
  mutable std::mutex exemplar_mutex_;
  std::unordered_map<std::string, std::vector<Exemplar>> exemplars_;
  /// Spans destined for the --trace-out Chrome trace, bounded.
  static constexpr std::size_t kTraceSinkCapacity = 64 * 1024;
  mutable std::mutex sink_mutex_;
  std::vector<OwnedSpan> trace_sink_;
  /// Last observed worker states, for state-transition log events.
  std::vector<WorkerState> logged_states_;

  /// Round-robin cursor spreading reads across each shard's R owners.
  std::atomic<std::uint64_t> read_rotation_{0};

  std::atomic<bool> stopping_{false};
  std::mutex health_mutex_;
  std::condition_variable health_cv_;
  std::thread health_thread_;

  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> sheds_returned_{0};
  std::atomic<std::uint64_t> all_down_returned_{0};
  std::atomic<std::uint64_t> warm_replays_{0};
  std::atomic<std::uint64_t> warm_lines_{0};

  MetricsRegistry metrics_;
  Counter* requests_total_;
  Counter* failovers_total_;
  Counter* sheds_total_;
  Counter* all_down_total_;
  Counter* probes_ok_;
  Counter* probes_failed_;
  Counter* warm_replays_total_;
  Counter* warm_lines_total_;
  Counter* graph_loads_total_;
  Counter* replicated_loads_total_;
  Counter* traces_collected_total_;
  Histogram* request_latency_us_;

  /// Per-command latency histograms (also rendered by `metrics` as
  /// gqd_cluster_command_latency_us{command=...}); the map lets `stats`
  /// enumerate the commands seen so far for its quantile block.
  Histogram* CommandLatency(const std::string& cmd);
  mutable std::mutex command_mutex_;
  std::map<std::string, Histogram*> command_latency_;
};

}  // namespace gqd

#endif  // GQD_CLUSTER_ROUTER_H_
