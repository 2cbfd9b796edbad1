// Umbrella header: the whole gqd public API in one include.
//
//   #include "gqd.h"
//
// Fine-grained headers remain the preferred include style inside the
// library itself; this header exists for downstream convenience.

#ifndef GQD_GQD_H_
#define GQD_GQD_H_

// Common substrate.
#include "common/bitset.h"     // IWYU pragma: export
#include "common/budget.h"     // IWYU pragma: export
#include "common/cancel.h"     // IWYU pragma: export
#include "common/failpoint.h"  // IWYU pragma: export
#include "common/interner.h"   // IWYU pragma: export
#include "common/json.h"       // IWYU pragma: export
#include "common/json_util.h"  // IWYU pragma: export
#include "common/status.h"     // IWYU pragma: export

// Observability: span tracing and metrics.
#include "obs/export.h"         // IWYU pragma: export
#include "obs/log.h"            // IWYU pragma: export
#include "obs/metrics.h"        // IWYU pragma: export
#include "obs/trace.h"          // IWYU pragma: export
#include "obs/trace_context.h"  // IWYU pragma: export

// Data graphs and relations.
#include "graph/data_graph.h"     // IWYU pragma: export
#include "graph/data_path.h"      // IWYU pragma: export
#include "graph/examples.h"       // IWYU pragma: export
#include "graph/generators.h"     // IWYU pragma: export
#include "graph/relation.h"         // IWYU pragma: export
#include "graph/serialization.h"    // IWYU pragma: export
#include "graph/sparse_relation.h"  // IWYU pragma: export

// Storage: binary graph containers served zero-copy via mmap.
#include "storage/container.h"    // IWYU pragma: export
#include "storage/format.h"       // IWYU pragma: export
#include "storage/graph_store.h"  // IWYU pragma: export
#include "storage/metrics.h"         // IWYU pragma: export
#include "storage/mmap_file.h"       // IWYU pragma: export
#include "storage/relation_store.h"  // IWYU pragma: export

// Expression families.
#include "regex/ast.h"     // IWYU pragma: export
#include "regex/nfa.h"     // IWYU pragma: export
#include "regex/parser.h"  // IWYU pragma: export
#include "rem/ast.h"                 // IWYU pragma: export
#include "rem/condition.h"           // IWYU pragma: export
#include "rem/parser.h"              // IWYU pragma: export
#include "rem/register_automaton.h"  // IWYU pragma: export
#include "ree/ast.h"         // IWYU pragma: export
#include "ree/membership.h"  // IWYU pragma: export
#include "ree/parser.h"      // IWYU pragma: export

// Static analysis (query linting).
#include "analysis/condition_analysis.h"  // IWYU pragma: export
#include "analysis/diagnostic.h"          // IWYU pragma: export
#include "analysis/graph_checks.h"        // IWYU pragma: export
#include "analysis/hygiene.h"             // IWYU pragma: export
#include "analysis/lint_suite.h"          // IWYU pragma: export
#include "analysis/pass_manager.h"        // IWYU pragma: export
#include "analysis/register_dataflow.h"   // IWYU pragma: export

// Static analysis (query planning: automaton pruning + kernel dispatch).
#include "analysis/plan/automaton_analysis.h"  // IWYU pragma: export
#include "analysis/plan/kernel_class.h"        // IWYU pragma: export
#include "analysis/plan/kernel_dispatch.h"     // IWYU pragma: export
#include "analysis/plan/plan_metrics.h"        // IWYU pragma: export
#include "analysis/plan/query_plan.h"          // IWYU pragma: export

// Evaluation.
#include "eval/convert.h"       // IWYU pragma: export
#include "eval/eval_options.h"  // IWYU pragma: export
#include "eval/preflight.h" // IWYU pragma: export
#include "eval/explain.h"   // IWYU pragma: export
#include "eval/query.h"     // IWYU pragma: export
#include "eval/rem_eval.h"  // IWYU pragma: export
#include "eval/ree_eval.h"  // IWYU pragma: export
#include "eval/rpq_eval.h"  // IWYU pragma: export

// Homomorphisms and definability.
#include "homomorphism/csp.h"             // IWYU pragma: export
#include "homomorphism/data_graph_hom.h"  // IWYU pragma: export
#include "definability/assignment_graph.h"     // IWYU pragma: export
#include "definability/krem_definability.h"    // IWYU pragma: export
#include "definability/ree_definability.h"     // IWYU pragma: export
#include "definability/rpq_definability.h"     // IWYU pragma: export
#include "definability/ucrdpq_definability.h"  // IWYU pragma: export
#include "definability/verdict.h"              // IWYU pragma: export

// Lower-bound constructions.
#include "reductions/cnf.h"               // IWYU pragma: export
#include "reductions/sat_reduction.h"     // IWYU pragma: export
#include "reductions/theorem32.h"         // IWYU pragma: export
#include "reductions/tiling.h"            // IWYU pragma: export
#include "reductions/tiling_reduction.h"  // IWYU pragma: export

// Synthesis.
#include "synthesis/lint_postpass.h"  // IWYU pragma: export
#include "synthesis/simplify.h"       // IWYU pragma: export
#include "synthesis/synthesis.h"      // IWYU pragma: export

// Serving runtime (gqd serve).
#include "runtime/admission.h"       // IWYU pragma: export
#include "runtime/client.h"          // IWYU pragma: export
#include "runtime/command.h"         // IWYU pragma: export
#include "runtime/graph_registry.h"  // IWYU pragma: export
#include "runtime/line_handler.h"    // IWYU pragma: export
#include "runtime/result_cache.h"    // IWYU pragma: export
#include "runtime/server.h"          // IWYU pragma: export
#include "runtime/service.h"         // IWYU pragma: export
#include "runtime/stats.h"           // IWYU pragma: export
#include "common/thread_pool.h"      // IWYU pragma: export

// Cluster serving (gqd route).
#include "cluster/hash_ring.h"    // IWYU pragma: export
#include "cluster/router.h"       // IWYU pragma: export
#include "cluster/worker_link.h"  // IWYU pragma: export

#endif  // GQD_GQD_H_
