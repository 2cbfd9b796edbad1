// deep-check: sequential library calls on one thread, no server, over a
// seeded instance list whose checks each take tens to hundreds of
// milliseconds: k-REM refutations and bounded searches, REE closures with
// large monoids and UCRDPQ homomorphism searches. Every instance has its
// own graph, so no per-(graph, k) set-up is ever reused. Each run measures
// whole rounds of the list, in a seed-chosen order per round.

#include <memory>

#include "analysis/plan/kernel_dispatch.h"
#include "definability/assignment_graph.h"
#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "definability/ucrdpq_definability.h"
#include "graph/sparse_relation.h"
#include "instances.h"
#include "stats.h"
#include "workloads.h"

namespace gqdbench {

namespace {

constexpr int kSetupRepeats = 25;

struct Instance {
  DeepCheckInstance spec;
  gqd::AdaptiveRelation relation;
  std::string answer;
};

/// What one check reported besides its verdict.
struct CheckCounters {
  std::string verdict;
  std::uint64_t tuples = 0;
  std::uint64_t monoid = 0;
  std::uint64_t seeds = 0;
};

CheckCounters RunCheck(const Instance& instance) {
  const DeepCheckInstance& spec = instance.spec;
  CheckCounters counters;
  if (spec.kind == "krem") {
    gqd::KRemDefinabilityOptions options;
    options.max_tuples = spec.max_tuples;
    auto result = gqd::CheckKRemDefinability(*spec.graph, instance.relation,
                                             spec.k, options);
    if (result.ok()) {
      counters.verdict =
          gqd::DefinabilityVerdictToString(result.value().verdict);
      counters.tuples = result.value().tuples_explored;
    }
  } else if (spec.kind == "ree") {
    gqd::ReeDefinabilityOptions options;
    options.max_monoid_size = spec.max_monoid_size;
    options.max_levels = spec.max_levels;
    auto result =
        gqd::CheckReeDefinability(*spec.graph, instance.relation, options);
    if (result.ok()) {
      counters.verdict =
          gqd::DefinabilityVerdictToString(result.value().verdict);
      counters.monoid = result.value().monoid_size;
    }
  } else {
    gqd::UcrdpqDefinabilityOptions options;
    options.csp.max_nodes = spec.max_csp_nodes;
    auto result =
        gqd::CheckUcrdpqDefinability(*spec.graph, instance.relation, options);
    if (result.ok()) {
      counters.verdict =
          gqd::DefinabilityVerdictToString(result.value().verdict);
      counters.seeds = result.value().seeds_tried;
    }
  }
  return counters;
}

}  // namespace

WorkloadResult RunDeepCheck(const RunOptions& options,
                            const ExpectedAnswers& expected) {
  WorkloadResult result;
  std::vector<Instance> instances;
  for (int i = 0; i < kSetupRepeats; i++) {
    instances.clear();
    Clock::time_point start = Clock::now();
    for (DeepCheckInstance& spec : MakeDeepCheckPool(PoolSeed(options.pool))) {
      Instance instance;
      instance.relation = gqd::AdaptiveRelation::FromPairs(
          spec.graph->NumNodes(), spec.pairs);
      instance.spec = std::move(spec);
      instances.push_back(std::move(instance));
    }
    result.setup_s.push_back(MsSince(start) / 1000.0);
  }
  for (Instance& instance : instances) {
    instance.answer = RequireAnswer(expected, instance.spec.id,
                                    instance.spec.input_hash);
  }
  const std::size_t n = instances.size();

  SpanRecorder recorder;
  SpanRecorder* active = nullptr;
  struct Totals {
    double ms = 0;
    std::uint64_t count = 0, tuples = 0, monoid = 0, seeds = 0;
  };
  std::map<std::string, Totals> totals;  // per checker kind, traced phase
  double setup_probe_ms = 0, krem_ms = 0;
  std::uint64_t budget_exhausted = 0, checks = 0;
  std::vector<std::size_t> order;

  auto op = [&](std::size_t /*client*/, std::size_t i) -> OpOutcome {
    if (i % n == 0) {
      order = SeededOrder(n, MixSeed(options.seed, i / n));
    }
    const Instance& instance = instances[order[i % n]];
    std::uint64_t request = i + 1;
    CheckCounters counters;
    Clock::time_point start = Clock::now();
    {
      ScopedSpan root(active, "op", 0, request);
      ScopedSpan span(active, "definability." + instance.spec.kind + "_check",
                      root.id(), request);
      counters = RunCheck(instance);
    }
    double ms = MsSince(start);
    OpOutcome outcome;
    outcome.ok = counters.verdict == instance.answer;
    outcome.mismatch = !counters.verdict.empty() && !outcome.ok;
    if (active != nullptr) {
      Totals& t = totals[instance.spec.kind];
      t.ms += ms;
      t.count++;
      t.tuples += counters.tuples;
      t.monoid += counters.monoid;
      t.seeds += counters.seeds;
      checks++;
      budget_exhausted += counters.verdict == "budget exhausted";
      if (instance.spec.kind == "krem") {
        // Per-(graph, k) set-up of this check, built alone.
        Clock::time_point probe_start = Clock::now();
        ScopedSpan span(active, "definability.setup", 0, request);
        auto ag = gqd::AssignmentGraph::Build(*instance.spec.graph,
                                              instance.spec.k);
        if (ag.ok()) {
          ScopedSpan dispatch(active, "analysis.dispatch_build", span.id(),
                              request);
          (void)gqd::KernelDispatchTable::Build(ag.value()).enabled();
        }
        setup_probe_ms += MsSince(probe_start);
        krem_ms += ms;
      }
    }
    return outcome;
  };

  if (!options.trace) {
    result.phase = RunClosedLoop(1, options.seconds, n, op);
    return result;
  }
  PhaseResult untraced = RunClosedLoop(1, options.seconds * kUntracedShare,
                                       n, op);
  result.untraced = untraced;
  active = &recorder;
  result.phase =
      RunClosedLoop(1, options.seconds * (1 - kUntracedShare), n, op);
  active = nullptr;

  std::vector<Span> spans = recorder.Take();
  DumpSpans(options, spans);
  std::map<std::string, SelfTime> self = SelfTimes(spans);
  for (const char* kind : {"krem", "ree", "ucrdpq"}) {
    std::string name = std::string("definability.") + kind + "_check";
    SetLayer(&result, name + "_ms", self[name].mean_ms(), "ms");
  }
  auto per_second = [](std::uint64_t count, double ms) {
    return ms > 0 ? static_cast<double>(count) / (ms / 1000.0) : 0;
  };
  SetLayer(&result, "definability.tuples_per_s",
           per_second(totals["krem"].tuples, totals["krem"].ms), "1/s");
  SetLayer(&result, "definability.monoid_elements_per_s",
           per_second(totals["ree"].monoid, totals["ree"].ms), "1/s");
  SetLayer(&result, "homomorphism.seeds_tried",
           totals["ucrdpq"].count > 0
               ? static_cast<double>(totals["ucrdpq"].seeds) /
                     totals["ucrdpq"].count
               : 0,
           "count");
  SetLayer(&result, "definability.budget_exhausted",
           checks > 0 ? 1000.0 * budget_exhausted / checks : 0,
           "per_1000_checks");
  SetLayer(&result, "definability.setup_ms",
           self["definability.setup"].mean_ms(), "ms");
  SetLayer(&result, "analysis.dispatch_build_ms",
           self["analysis.dispatch_build"].mean_ms(), "ms");
  SetLayer(&result, "definability.setup_share",
           krem_ms > 0 ? setup_probe_ms / krem_ms : 0, "ratio");
  result.notes.push_back("setup share base: " + std::to_string(krem_ms) +
                         " ms of k-REM check time over " +
                         std::to_string(totals["krem"].count) + " checks");
  return result;
}

}  // namespace gqdbench
