// The command layer shared by the CLI, serve and route.
//
// A surface parses its own input (CLI flags or request fields), admits the
// relation (storage/relation_store.h: AdmitRelation) and reports in its own
// way; in between, RunCheck decides one definability problem from a typed
// CheckRequest, and CheckAnswerToJson is the one JSON encoding of the
// answer. Query parsing, evaluation, linting and explanation are the
// PathExpression helpers of eval/query.h, eval/preflight.h and
// eval/explain.h. Serve and route answer in one response envelope
// (OkResponse, ErrorResponse; ReadResponseError reads it back for route
// and the client) and share the `log` request (LogRequest).

#ifndef GQD_RUNTIME_COMMAND_H_
#define GQD_RUNTIME_COMMAND_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/budget.h"
#include "common/cancel.h"
#include "common/json.h"
#include "common/status.h"
#include "definability/verdict.h"
#include "graph/data_graph.h"
#include "graph/sparse_relation.h"
#include "runtime/check_setups.h"
#include "runtime/stats.h"

namespace gqd {

/// The definability problems: RPQ, k-REM (Thm 22), REE (Thm 32) and
/// UCRDPQ (Thm 35).
enum class Checker { kRpq, kKRem, kRee, kUcrdpq };

/// The serve checker names: rpq, krem, ree and ucrdpq.
const char* CheckerName(Checker checker);
/// Reads a serve checker name; false for anything else.
bool ParseChecker(const std::string& name, Checker* checker);

struct CheckRequest {
  Checker checker = Checker::kRpq;
  /// Registers of the k-REM checker; the RPQ checker runs with k = 0.
  std::size_t k = 2;
  /// Frontier-parallel successor generation (RPQ and k-REM); any count
  /// answers bit-identically.
  std::size_t num_threads = 1;
  const CancelToken* cancel = nullptr;
  const ResourceBudget* budget = nullptr;
  /// The checkers' own tuple caps (k-REM max_tuples, REE max_monoid_size);
  /// unset keeps their defaults.
  std::optional<std::size_t> max_tuples;
};

struct CheckAnswer {
  Checker checker = Checker::kRpq;
  DefinabilityVerdict verdict = DefinabilityVerdict::kNotDefinable;
  std::size_t k = 0;                ///< k-REM only
  std::size_t tuples_explored = 0;  ///< RPQ and k-REM
  std::size_t levels_used = 0;      ///< REE
  std::size_t monoid_size = 0;      ///< REE
  std::size_t seeds_tried = 0;      ///< UCRDPQ
  /// How far the search got when a budget stopped it.
  std::optional<PartialProgress> partial;
};

/// Decides whether `relation` is definable on `graph`. With `setups`, the
/// graph's held setup (k-assignment graph for RPQ and k-REM, level monoid
/// for REE) is used when it reproduces a fresh build under this request,
/// and a fresh shareable build is kept there (hit/miss/bypass counted in
/// `stats` when given); without, every check is cold. Both answer alike.
Result<CheckAnswer> RunCheck(const DataGraph& graph,
                             const AdaptiveRelation& relation,
                             const CheckRequest& request, CheckSetups* setups,
                             ServerStats* stats);

/// The answer's fields in order: verdict, k (k-REM), the checker's
/// counters (tuples_explored; levels_used and monoid_size; seeds_tried),
/// and partial when present.
JsonValue::Object CheckAnswerToJson(const CheckAnswer& answer);

/// The ok envelope of a protocol response: the request's "id" when it has
/// one, "ok":true, then `body`'s fields in order.
JsonValue OkResponse(const JsonValue* id, const JsonValue& body);

/// The error envelope: the request's "id" when it has one, "ok":false and
/// "error" {code, message, retry_after_ms when `retry_after_ms` >= 0 (the
/// backoff hint of an Unavailable or shed response)}.
JsonValue ErrorResponse(const JsonValue* id, const Status& status,
                        std::int64_t retry_after_ms = -1);

/// What a serialized response says went wrong: its error code (empty for
/// an ok or unreadable response) and its retry hint (-1 when it has none).
struct ResponseError {
  std::string code;
  std::int64_t retry_after_ms = -1;
};
ResponseError ReadResponseError(const std::string& response);

/// The body of a `log` request: this process's event ring at or above the
/// optional "min_level" (debug, info, warn or error; InvalidArgument for
/// anything else), plus the emitted and dropped counts.
Result<JsonValue> LogRequest(const JsonValue& request);

}  // namespace gqd

#endif  // GQD_RUNTIME_COMMAND_H_
