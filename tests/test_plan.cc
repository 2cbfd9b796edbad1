// Tests for the query-plan static analyzer: automaton
// reachability/liveness analysis, dead-transition elimination,
// kernel-dispatch classification, plan dumps, metrics, and the lint "plan"
// pass surfacing.

#include <gtest/gtest.h>

#include "analysis/pass_manager.h"
#include "analysis/plan/automaton_analysis.h"
#include "analysis/plan/kernel_dispatch.h"
#include "analysis/plan/plan_metrics.h"
#include "analysis/plan/query_plan.h"
#include "definability/assignment_graph.h"
#include "definability/krem_definability.h"
#include "eval/rem_eval.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "rem/parser.h"
#include "rem/register_automaton.h"

namespace gqd {
namespace {

RemPtr MustParse(const std::string& text) {
  auto parsed = ParseRem(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.value();
}

TEST(AutomatonAnalysis, CleanAutomatonKeepsEverything) {
  StringInterner labels;
  RegisterAutomaton ra =
      CompileRem(MustParse("$r1. a+ [r1=]"), &labels,
                 /*intern_new_labels=*/true);
  AutomatonAnalysis analysis = AnalyzeAutomaton(ra);
  EXPECT_EQ(analysis.num_states, ra.num_states);
  EXPECT_EQ(analysis.live_states, ra.num_states);
  EXPECT_EQ(analysis.kept_transitions, analysis.total_transitions);
  EXPECT_TRUE(analysis.eliminated.empty());
  std::vector<Diagnostic> diagnostics;
  AppendPlanDiagnostics(analysis, &diagnostics);
  EXPECT_TRUE(diagnostics.empty());
}

TEST(AutomatonAnalysis, OutOfAlphabetLetterProducesDeadFragment) {
  // Plan against a concrete alphabet: `zz` is not interned, so its
  // fragment compiles to states no accepting run can traverse.
  DataGraph graph = Figure1Graph();
  StringInterner labels = graph.labels();
  RegisterAutomaton ra =
      CompileRem(MustParse("$r1. (a | zz) [r1=]"), &labels,
                 /*intern_new_labels=*/false);
  AutomatonAnalysis analysis = AnalyzeAutomaton(ra);
  EXPECT_LT(analysis.live_states, analysis.num_states);
  EXPECT_LT(analysis.kept_transitions, analysis.total_transitions);
  EXPECT_FALSE(analysis.eliminated.empty());
  for (const EliminatedTransition& t : analysis.eliminated) {
    EXPECT_EQ(t.kind, EliminatedTransition::Kind::kDeadEndpoint);
  }

  std::vector<Diagnostic> diagnostics;
  AppendPlanDiagnostics(analysis, &diagnostics);
  bool saw_elimination = false;
  for (const Diagnostic& d : diagnostics) {
    if (d.code == "GQD-PLAN-001") {
      saw_elimination = true;
    }
  }
  EXPECT_TRUE(saw_elimination);
}

TEST(AutomatonAnalysis, UnsatisfiableCheckIsEliminated) {
  StringInterner labels;
  RegisterAutomaton ra =
      CompileRem(MustParse("$r1. a [r1= & r1!=]"), &labels,
                 /*intern_new_labels=*/true);
  AutomatonAnalysis analysis = AnalyzeAutomaton(ra);
  EXPECT_GT(analysis.EliminatedCount(
                EliminatedTransition::Kind::kUnsatisfiableCheck) +
                analysis.EliminatedCount(
                    EliminatedTransition::Kind::kDeadEndpoint),
            0u);
}

TEST(AutomatonAnalysis, PruneIsLanguagePreserving) {
  // The pruned machine must evaluate to the same relation as the full
  // compilation path on every query, including ones with dead fragments.
  DataGraph graph = Figure1Graph();
  const char* queries[] = {
      "$r1. a+ [r1=]",
      "$r1. (a | zz)+ [r1=]",
      "$r1. a $r2. a a[r1=] a[r2!=]",
      "(a | b)+",
  };
  for (const char* q : queries) {
    RemPtr expression = MustParse(q);
    StringInterner labels = graph.labels();
    RegisterAutomaton full =
        CompileRem(expression, &labels, /*intern_new_labels=*/false);
    RegisterAutomaton pruned = PruneAutomaton(full, AnalyzeAutomaton(full));
    EXPECT_LE(pruned.num_states, full.num_states) << q;
    BinaryRelation via_expression = EvaluateRem(graph, expression);
    auto via_pruned = EvaluateRemAutomaton(graph, pruned);
    ASSERT_TRUE(via_pruned.ok()) << q;
    EXPECT_EQ(via_expression, via_pruned.value()) << q;
  }
}

TEST(KernelDispatch, ClassifiesEveryTransition) {
  DataGraph graph = RandomDataGraph({.num_nodes = 8,
                                     .num_labels = 2,
                                     .num_data_values = 2,
                                     .edge_percent = 30,
                                     .seed = 7});
  auto ag = AssignmentGraph::Build(graph, 1);
  ASSERT_TRUE(ag.ok());
  KernelDispatchTable table = KernelDispatchTable::Build(ag.value());
  ASSERT_TRUE(table.enabled());
  // Census covers every (mask, label, pattern) triple.
  std::size_t census = 0;
  for (std::size_t cls = 0; cls < kNumKernelClasses; cls++) {
    census += table.class_counts()[cls];
  }
  EXPECT_EQ(census, table.num_store_masks() * table.num_labels() *
                        (std::size_t{1} << ag.value().k()));
  // kGeneric never appears in a built table — generic means "no table".
  EXPECT_EQ(table.class_counts()[static_cast<std::size_t>(
                TransitionKernelClass::kGeneric)],
            0u);
}

TEST(KernelDispatch, PlannedCensusAttachesToQueryPlan) {
  DataGraph graph = Figure1Graph();
  StringInterner labels = graph.labels();
  QueryPlan plan = BuildRemQueryPlan(MustParse("$r1. a+ [r1=]"), &labels,
                                     /*intern_new_labels=*/false);
  EXPECT_FALSE(plan.has_dispatch);
  auto ag = AssignmentGraph::Build(graph, plan.num_registers);
  ASSERT_TRUE(ag.ok());
  KernelDispatchTable table = KernelDispatchTable::Build(ag.value());
  AttachDispatchCensus(table, &plan);
  EXPECT_TRUE(plan.has_dispatch);
  EXPECT_TRUE(plan.dispatch_enabled);
  EXPECT_EQ(plan.dispatch_states, ag.value().num_states());
  // Non-noop kernels are listed in canonical order with nonzero costs.
  for (const QueryPlanKernelChoice& k : plan.kernels) {
    EXPECT_NE(k.cls, TransitionKernelClass::kNoOp);
    EXPECT_GT(k.cost, 0u);
  }
}

TEST(QueryPlan, DumpsAreDeterministic) {
  DataGraph graph = Figure1Graph();
  auto build = [&] {
    StringInterner labels = graph.labels();
    QueryPlan plan =
        BuildRemQueryPlan(MustParse("$r1. (a | zz)+ [r1=]"), &labels,
                          /*intern_new_labels=*/false);
    auto ag = AssignmentGraph::Build(graph, 1);
    EXPECT_TRUE(ag.ok());
    KernelDispatchTable table = KernelDispatchTable::Build(ag.value());
    AttachDispatchCensus(table, &plan);
    StringInterner names = graph.labels();
    return plan.ToText(&names) + "\n" + plan.ToJson(&names);
  };
  std::string first = build();
  std::string second = build();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("GQD-PLAN-001"), std::string::npos);
  EXPECT_NE(first.find("\"dispatch\""), std::string::npos);
  EXPECT_NE(first.find("class census"), std::string::npos);
}

TEST(PlanMetrics, BuildAndHitCountersAdvance) {
  PlanCounterSnapshot before = GetPlanCounterSnapshot();
  DataGraph graph = RandomDataGraph({.num_nodes = 6,
                                     .num_labels = 1,
                                     .num_data_values = 2,
                                     .edge_percent = 40,
                                     .seed = 3});
  BinaryRelation relation = RandomRelation(6, 25, 9);
  KRemDefinabilityOptions options;
  options.engine = KRemEngine::kPlanned;
  options.max_tuples = 20'000;
  auto r = CheckKRemDefinability(graph, relation, 1, options);
  ASSERT_TRUE(r.ok());
  PlanCounterSnapshot after = GetPlanCounterSnapshot();
  EXPECT_GT(after.builds, before.builds);
  std::uint64_t hits_before = 0;
  std::uint64_t hits_after = 0;
  for (std::size_t cls = 0; cls < kNumKernelClasses; cls++) {
    hits_before += before.kernel_hits[cls];
    hits_after += after.kernel_hits[cls];
  }
  EXPECT_GT(hits_after, hits_before);
}

TEST(PlanMetrics, RenderIntoRegistry) {
  // Force at least one build so every metric family exists.
  DataGraph graph = Figure1Graph();
  auto ag = AssignmentGraph::Build(graph, 1);
  ASSERT_TRUE(ag.ok());
  (void)KernelDispatchTable::Build(ag.value());
  MetricsRegistry registry;
  UpdatePlanMetrics(&registry);
  std::string exposition = registry.RenderPrometheus();
  EXPECT_NE(exposition.find("gqd_plan_builds_total"), std::string::npos);
  EXPECT_NE(exposition.find("gqd_plan_kernel_transitions_total"),
            std::string::npos);
  EXPECT_NE(exposition.find("gqd_plan_kernel_hits_total"),
            std::string::npos);
  EXPECT_NE(exposition.find("gqd_plan_transitions_eliminated_total"),
            std::string::npos);
}

TEST(PlanLintPass, SurfacesThroughLintRem) {
  DataGraph graph = Figure1Graph();
  AnalysisOptions options;
  options.graph = &graph;
  std::vector<Diagnostic> diagnostics =
      LintRem(MustParse("$r1. (a | zz)+ [r1=]"), options);
  bool saw_plan = false;
  for (const Diagnostic& d : diagnostics) {
    if (d.code.rfind("GQD-PLAN-", 0) == 0) {
      saw_plan = true;
    }
  }
  EXPECT_TRUE(saw_plan);
}

TEST(PlanLintPass, CleanQueryHasNoPlanFindings) {
  DataGraph graph = Figure1Graph();
  AnalysisOptions options;
  options.graph = &graph;
  std::vector<Diagnostic> diagnostics =
      LintRem(MustParse("$r1. a+ [r1=]"), options);
  for (const Diagnostic& d : diagnostics) {
    EXPECT_NE(d.code.rfind("GQD-PLAN-", 0), 0u) << d.code;
  }
}

}  // namespace
}  // namespace gqd
