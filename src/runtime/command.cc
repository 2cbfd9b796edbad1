#include "runtime/command.h"

#include <memory>
#include <utility>
#include <variant>

#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "definability/rpq_definability.h"
#include "definability/ucrdpq_definability.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace gqd {

namespace {

bool Shareable(const KRemSetup& setup) { return setup.shareable(); }
bool Shareable(const ReeMonoid& monoid) { return monoid.complete(); }

/// The checker setup a check runs on: the held one when it reproduces what
/// a fresh build under `options` would do (hit — its build charges and
/// failpoint are replayed against the request), else a fresh build kept
/// for later checks when nothing request-specific shaped it (miss).
/// nullptr means the held setup could differ from a fresh build under this
/// request's budget or caps (bypass): run the cold checker.
template <typename Key, typename Setup, typename Options, typename Build>
Result<std::shared_ptr<const Setup>> AcquireSetup(
    SetupSlots<Key, Setup>* slots, const Key& key, const Options& options,
    CheckSetupKind kind, ServerStats* stats, const Build& build) {
  auto record = [&](CheckSetupUse use) {
    if (stats != nullptr) {
      stats->RecordCheckSetup(kind, use);
    }
  };
  std::shared_ptr<const Setup> held = slots->Find(key);
  if (held != nullptr) {
    if (!held->ReusableFor(options)) {
      record(CheckSetupUse::kBypass);
      return std::shared_ptr<const Setup>();
    }
    record(CheckSetupUse::kHit);
    GQD_TRACE_SPAN(span, "serve.check_setup_reuse");
    GQD_RETURN_NOT_OK(held->ChargeReuse(options.budget));
    return held;
  }
  record(CheckSetupUse::kMiss);
  GQD_ASSIGN_OR_RETURN(Setup built, build());
  auto fresh = std::make_shared<const Setup>(std::move(built));
  if (Shareable(*fresh)) {
    slots->Add(key, fresh);
  }
  return fresh;
}

}  // namespace

// In Checker's order.
constexpr const char* kCheckerNames[] = {"rpq", "krem", "ree", "ucrdpq"};

const char* CheckerName(Checker checker) {
  return kCheckerNames[static_cast<int>(checker)];
}

bool ParseChecker(const std::string& name, Checker* checker) {
  for (int i = 0; i < 4; i++) {
    if (name == kCheckerNames[i]) {
      *checker = static_cast<Checker>(i);
      return true;
    }
  }
  return false;
}

Result<CheckAnswer> RunCheck(const DataGraph& graph,
                             const AdaptiveRelation& relation,
                             const CheckRequest& request, CheckSetups* setups,
                             ServerStats* stats) {
  CheckAnswer answer;
  answer.checker = request.checker;
  auto take = [&answer](auto& result) {
    answer.verdict = result.verdict;
    answer.partial = std::move(result.partial);
  };
  switch (request.checker) {
    case Checker::kRpq:
    case Checker::kKRem: {
      KRemDefinabilityOptions options;
      options.cancel = request.cancel;
      options.budget = request.budget;
      options.num_threads = request.num_threads;
      if (request.max_tuples.has_value()) {
        options.max_tuples = *request.max_tuples;
      }
      const bool rpq = request.checker == Checker::kRpq;
      const std::size_t k = rpq ? 0 : request.k;
      // The k-assignment graph and dispatch table for (graph, k): the
      // graph's held setup when it fits this request, else none (cold
      // check). An empty S is decided without one.
      std::shared_ptr<const KRemSetup> setup;
      if (setups != nullptr && !relation.Empty()) {
        GQD_ASSIGN_OR_RETURN(
            setup, AcquireSetup(&setups->krem, k, options,
                                CheckSetupKind::kKRem, stats, [&] {
                                  return BuildKRemSetup(graph, k, options);
                                }));
      }
      if (rpq) {
        GQD_ASSIGN_OR_RETURN(
            RpqDefinabilityResult result,
            setup != nullptr
                ? CheckRpqDefinability(*setup, graph, relation, options)
                : CheckRpqDefinability(graph, relation, options));
        take(result);
        answer.tuples_explored = result.tuples_explored;
      } else {
        GQD_ASSIGN_OR_RETURN(
            KRemDefinabilityResult result,
            setup != nullptr
                ? CheckKRemDefinability(*setup, graph, relation, options)
                : CheckKRemDefinability(graph, relation, k, options));
        take(result);
        answer.k = k;
        answer.tuples_explored = result.tuples_explored;
      }
      return answer;
    }
    case Checker::kRee: {
      ReeDefinabilityOptions options;
      options.cancel = request.cancel;
      options.budget = request.budget;
      if (request.max_tuples.has_value()) {
        options.max_monoid_size = *request.max_tuples;
      }
      // The level monoid depends on the graph only (Lemma 30); S enters
      // the cover test alone, whatever its backend.
      std::shared_ptr<const ReeMonoid> monoid;
      if (setups != nullptr) {
        GQD_ASSIGN_OR_RETURN(
            monoid, AcquireSetup(&setups->ree, std::monostate{}, options,
                                 CheckSetupKind::kRee, stats, [&] {
                                   return CloseReeMonoid(
                                       graph,
                                       ReeRepresentationFor(graph,
                                                            options.engine),
                                       options);
                                 }));
      }
      GQD_ASSIGN_OR_RETURN(
          ReeDefinabilityResult result,
          monoid != nullptr
              ? CheckReeDefinability(*monoid, graph, relation)
              : CheckReeDefinability(graph, relation, options));
      take(result);
      answer.levels_used = result.levels_used;
      answer.monoid_size = result.monoid_size;
      return answer;
    }
    case Checker::kUcrdpq: {
      UcrdpqDefinabilityOptions options;
      options.csp.cancel = request.cancel;
      options.csp.budget = request.budget;
      GQD_ASSIGN_OR_RETURN(UcrdpqDefinabilityResult result,
                           CheckUcrdpqDefinability(graph, relation, options));
      take(result);
      answer.seeds_tried = result.seeds_tried;
      return answer;
    }
  }
  return Status::Internal("unknown checker");
}

JsonValue::Object CheckAnswerToJson(const CheckAnswer& answer) {
  JsonValue::Object body;
  auto count = [&body](const char* key, std::size_t value) {
    body.emplace_back(key, static_cast<double>(value));
  };
  body.emplace_back("verdict",
                    std::string(DefinabilityVerdictToString(answer.verdict)));
  switch (answer.checker) {
    case Checker::kKRem:
      count("k", answer.k);
      [[fallthrough]];
    case Checker::kRpq:
      count("tuples_explored", answer.tuples_explored);
      break;
    case Checker::kRee:
      count("levels_used", answer.levels_used);
      count("monoid_size", answer.monoid_size);
      break;
    case Checker::kUcrdpq:
      count("seeds_tried", answer.seeds_tried);
      break;
  }
  if (answer.partial.has_value()) {
    const PartialProgress& partial = *answer.partial;
    JsonValue::Object progress;
    progress.emplace_back("stage", partial.stage);
    progress.emplace_back("tuples_explored",
                          static_cast<double>(partial.tuples_explored));
    progress.emplace_back("frontier_depth",
                          static_cast<double>(partial.frontier_depth));
    progress.emplace_back("bytes_peak",
                          static_cast<double>(partial.bytes_peak));
    body.emplace_back("partial", JsonValue(std::move(progress)));
  }
  return body;
}

JsonValue OkResponse(const JsonValue* id, const JsonValue& body) {
  JsonValue::Object response;
  if (id != nullptr) {
    response.emplace_back("id", *id);
  }
  response.emplace_back("ok", true);
  for (const auto& field : body.AsObject()) {
    response.push_back(field);
  }
  return JsonValue(std::move(response));
}

JsonValue ErrorResponse(const JsonValue* id, const Status& status,
                        std::int64_t retry_after_ms) {
  JsonValue::Object error;
  error.emplace_back("code", std::string(StatusCodeToString(status.code())));
  error.emplace_back("message", status.message());
  if (retry_after_ms >= 0) {
    error.emplace_back("retry_after_ms", static_cast<double>(retry_after_ms));
  }
  JsonValue::Object response;
  if (id != nullptr) {
    response.emplace_back("id", *id);
  }
  response.emplace_back("ok", false);
  response.emplace_back("error", JsonValue(std::move(error)));
  return JsonValue(std::move(response));
}

ResponseError ReadResponseError(const std::string& response) {
  ResponseError out;
  auto parsed = JsonValue::Parse(response);
  if (!parsed.ok() || !parsed.value().is_object()) {
    return out;
  }
  const JsonValue* ok = parsed.value().Find("ok");
  const JsonValue* error = parsed.value().Find("error");
  if (ok == nullptr || !ok->is_bool() || ok->AsBool() || error == nullptr ||
      !error->is_object()) {
    return out;
  }
  if (const JsonValue* code = error->Find("code");
      code != nullptr && code->is_string()) {
    out.code = code->AsString();
  }
  const JsonValue* hint = error->Find("retry_after_ms");
  if (hint != nullptr && hint->is_number() && hint->AsNumber() >= 0) {
    out.retry_after_ms = static_cast<std::int64_t>(hint->AsNumber());
  }
  return out;
}

Result<JsonValue> LogRequest(const JsonValue& request) {
  LogLevel min_level = LogLevel::kDebug;
  if (const JsonValue* level_field = request.Find("min_level")) {
    if (!level_field->is_string() ||
        !ParseLogLevel(level_field->AsString(), &min_level)) {
      return Status::InvalidArgument(
          "field 'min_level' must be debug, info, warn or error");
    }
  }
  const EventLog& log = EventLog::Global();
  JsonValue::Object body;
  body.emplace_back("events",
                    JsonValue::Parse(log.ToJsonArray(min_level)).ValueOrDie());
  body.emplace_back("emitted", static_cast<double>(log.emitted()));
  body.emplace_back("dropped", static_cast<double>(log.dropped()));
  return JsonValue(std::move(body));
}

}  // namespace gqd
