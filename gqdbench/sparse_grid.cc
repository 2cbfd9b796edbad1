// sparse-grid: sequential library calls on one thread over grids written
// to .gqdg/.gqdr containers at set-up. Each operation opens both legs'
// containers through GraphStore::OpenFile / OpenRelationContainer, builds
// the density-adaptive relation and checks the a.b word relation under a
// 400 MB byte budget: rpq on the 1000×1000 grid, then k-REM (k = 1) on the
// 300×300 grid.

#include <filesystem>

#include "definability/krem_definability.h"
#include "definability/rpq_definability.h"
#include "graph/generators.h"
#include "graph/sparse_relation.h"
#include "instances.h"
#include "stats.h"
#include "storage/container.h"
#include "storage/graph_store.h"
#include "storage/relation_store.h"
#include "workloads.h"

namespace gqdbench {

namespace {

constexpr int kSetupRepeats = 3;

struct LegFiles {
  GridLeg leg;
  std::string graph_path;
  std::string relation_path;
  std::uint64_t fingerprint = 0;
  std::string answer;
};

std::vector<LegFiles> WriteInputs(const RunOptions& options) {
  std::filesystem::create_directories(options.work_dir);
  std::vector<LegFiles> legs;
  for (const GridLeg& leg : SparseGridLegs()) {
    LegFiles files;
    files.leg = leg;
    std::string stem = options.work_dir + "/grid-" + std::to_string(leg.side);
    files.graph_path = stem + ".gqdg";
    files.relation_path = stem + "-ab.gqdr";
    gqd::GridOptions grid;
    grid.rows = leg.side;
    grid.cols = leg.side;
    grid.seed = MixSeed(options.seed, leg.side);
    gqd::GraphContainerBuilder builder;
    gqd::GenerateGrid(grid, &builder);
    if (gqd::Status written = builder.WriteToFile(files.graph_path);
        !written.ok()) {
      Die(written.ToString());
    }
    files.fingerprint = builder.fingerprint();
    if (gqd::Status written = gqd::WriteRelationContainer(
            leg.side * leg.side, GridWordPairs(leg.side), files.fingerprint,
            files.relation_path);
        !written.ok()) {
      Die(written.ToString());
    }
    legs.push_back(std::move(files));
  }
  return legs;
}

}  // namespace

WorkloadResult RunSparseGrid(const RunOptions& options,
                             const ExpectedAnswers& expected) {
  WorkloadResult result;
  std::vector<LegFiles> legs;
  for (int i = 0; i < kSetupRepeats; i++) {
    Clock::time_point start = Clock::now();
    legs = WriteInputs(options);
    result.setup_s.push_back(MsSince(start) / 1000.0);
  }
  for (LegFiles& files : legs) {
    files.answer = RequireAnswer(expected, files.leg.id,
                                 HashPairs(GridWordPairs(files.leg.side)));
  }

  SpanRecorder recorder;
  SpanRecorder* active = nullptr;
  double relation_bytes = 0;
  std::uint64_t relations = 0;

  auto run_leg = [&](const LegFiles& files, std::uint64_t request,
                     std::uint64_t parent) -> bool {
    std::optional<gqd::StoredGraph> graph;
    std::optional<gqd::StoredRelation> stored;
    {
      ScopedSpan span(active, "storage.open", parent, request);
      auto opened = gqd::GraphStore::OpenFile(files.graph_path);
      auto relation =
          gqd::OpenRelationContainer(files.relation_path, files.fingerprint);
      if (!opened.ok() || !relation.ok()) {
        return false;
      }
      graph.emplace(std::move(opened).value());
      stored.emplace(std::move(relation).value());
    }
    gqd::AdaptiveRelation relation;
    {
      ScopedSpan span(active, "graph.relation_build", parent, request);
      relation = gqd::AdaptiveRelation::FromPairs(
          graph->graph->NumNodes(), std::move(stored->pairs));
    }
    if (active != nullptr) {
      relation_bytes += static_cast<double>(relation.ByteSize());
      relations++;
    }
    gqd::ResourceBudget budget(kGridByteBudget, 0);
    gqd::KRemDefinabilityOptions check_options;
    check_options.budget = &budget;
    ScopedSpan span(active, "definability." + files.leg.checker + "_check",
                    parent, request);
    std::string verdict;
    if (files.leg.checker == "rpq") {
      auto checked =
          gqd::CheckRpqDefinability(*graph->graph, relation, check_options);
      if (checked.ok()) {
        verdict = gqd::DefinabilityVerdictToString(checked.value().verdict);
      }
    } else {
      auto checked = gqd::CheckKRemDefinability(*graph->graph, relation,
                                                files.leg.k, check_options);
      if (checked.ok()) {
        verdict = gqd::DefinabilityVerdictToString(checked.value().verdict);
      }
    }
    return verdict == files.answer;
  };

  auto op = [&](std::size_t /*client*/, std::size_t i) -> OpOutcome {
    std::uint64_t request = i + 1;
    ScopedSpan root(active, "op", 0, request);
    OpOutcome outcome;
    outcome.ok = true;
    for (const LegFiles& files : legs) {
      if (!run_leg(files, request, root.id())) {
        outcome.ok = false;
        outcome.mismatch = true;
      }
    }
    return outcome;
  };

  if (!options.trace) {
    result.phase = RunClosedLoop(1, options.seconds, 0, op);
    return result;
  }
  PhaseResult untraced =
      RunClosedLoop(1, options.seconds * kUntracedShare, 0, op);
  result.untraced = untraced;
  active = &recorder;
  result.phase =
      RunClosedLoop(1, options.seconds * (1 - kUntracedShare), 0, op);
  active = nullptr;

  std::vector<Span> spans = recorder.Take();
  DumpSpans(options, spans);
  std::map<std::string, SelfTime> self = SelfTimes(spans);
  SetLayer(&result, "storage.open_ms", self["storage.open"].mean_ms(), "ms");
  SetLayer(&result, "graph.relation_build_ms",
           self["graph.relation_build"].mean_ms(), "ms");
  SetLayer(&result, "graph.relation_bytes",
           relations > 0 ? relation_bytes / relations : 0, "bytes");
  for (const char* checker : {"rpq", "krem"}) {
    std::string name = std::string("definability.") + checker + "_check";
    SetLayer(&result, name + "_ms", self[name].mean_ms(), "ms");
  }
  return result;
}

}  // namespace gqdbench
