// gqd — the command-line interface to the library.
//
//   gqd eval <graph> <rpq|regex|rem|ree> <expression> [--explain <u> <v>]
//            [--preflight] [--trace-out <file>]
//   gqd check <graph> <relation> [--language all|rpq|rem|ree|ucrdpq] [--k N]
//             [--relation-backend auto|dense|sparse|blocked] [--json]
//             [--trace-out <file>]
//   gqd synth <graph> <relation> --language rpq|rem|ree [--k N] [--simplify]
//   gqd convert <regex|ree> <expression>        # embed into REM
//   gqd convert graph <in> [<out>] [--validate] # text <-> binary container
//   gqd convert relation <graph> <in> <out>     # pair text <-> .gqdr
//   gqd gen scale-free|grid --out <file> [...]  # synthetic graphs
//   gqd gen relation --graph <file> --out FILE  # synthetic sparse relation
//   gqd compile <rem> [--graph <file>] [--k N] [--json] [--plan-out FILE]
//   gqd lint <rpq|regex|rem|ree> <expression> [--graph <file>] [--json]
//   gqd lint --suite <file> [--graph <file>] [--json]
//   gqd info <graph|relation> [--dot|--json]
//   gqd serve [--port N] [--threads N] [--cache N] [--graph <file>]...
//   gqd route --worker PORT [--worker PORT]... [--port N] [--replication R]
//   gqd bench-serve [--port N] [--clients C] [--requests R] [--json]
//              [--workers N [--replication R] [--service-ms MS]
//               [--chaos-kill]]
//
// Graph files use the `node`/`edge` text format or the binary .gqdg
// container; relation files the `pair` text format or the binary .gqdr
// container (see graph/serialization.h, docs/storage.md, examples/data/).

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gqd.h"

namespace {

using namespace gqd;

/// Failure exit codes, keyed by status code so scripts can tell resource
/// exhaustion from deadlines from overload (documented in Usage()).
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      return 4;
    case StatusCode::kDeadlineExceeded:  // also covers cancellation
      return 5;
    case StatusCode::kUnavailable:
      return 6;
    default:
      return 1;
  }
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gqd eval <graph> <rpq|regex|rem|ree> <expression> [--explain u v]\n"
      "           [--preflight] [--max-bytes N] [--max-tuples N]"
      " [--trace-out FILE]\n"
      "  gqd check <graph> <relation> [--language all|rpq|rem|ree|ucrdpq]"
      " [--k N]\n"
      "            [--threads N] [--max-tuples N] [--max-bytes N]\n"
      "            [--relation-backend auto|dense|sparse|blocked]\n"
      "            [--json] [--trace-out FILE]\n"
      "  gqd synth <graph> <relation> --language rpq|rem|ree [--k N]"
      " [--simplify]\n"
      "            [--threads N] [--max-bytes N]\n"
      "  gqd convert <regex|ree> <expression>\n"
      "  gqd convert graph <in> [<out>] [--validate]\n"
      "  gqd convert relation <graph> <in> <out>\n"
      "  gqd gen scale-free --out FILE [--nodes N] [--edges-per-node M]\n"
      "          [--labels L] [--values D] [--seed S] [--text]\n"
      "  gqd gen grid --out FILE [--rows R] [--cols C] [--values D]"
      " [--seed S]\n"
      "          [--text]\n"
      "  gqd gen relation --graph FILE --out FILE [--pairs N |"
      " --density D\n"
      "          | --word a.b] [--seed S] [--text]\n"
      "  gqd compile <rem-expression> [--graph <file>] [--k N] [--json]\n"
      "              [--plan-out FILE]\n"
      "  gqd lint <rpq|regex|rem|ree> <expression> [--graph <file>] [--json]\n"
      "           [--no-notes]\n"
      "  gqd lint --suite <file> [--graph <file>] [--json]\n"
      "  gqd info <graph|relation> [--dot|--json]\n"
      "  gqd serve [--port N] [--threads N] [--cache N] [--graph <file>]..."
      "\n"
      "            [--max-concurrent N] [--max-queue N] [--retry-after-ms N]"
      "\n"
      "            [--max-line-bytes N]\n"
      "  gqd route --worker PORT [--worker PORT]... [--port N]\n"
      "            [--replication R] [--pool N] [--probe-interval-ms N]\n"
      "            [--suspect-threshold N] [--retry-after-ms N]\n"
      "            [--warm-log N] [--max-line-bytes N] [--graph <file>]...\n"
      "            [--exemplars N] [--trace-out FILE]\n"
      "  gqd bench-serve [--port N] [--clients C] [--requests R] [--json]\n"
      "                  [--max-concurrent N] [--max-queue N] [--retry]\n"
      "                  [--workers N] [--replication R] [--pool N]\n"
      "                  [--service-ms MS] [--chaos-kill]\n"
      "\n"
      "cluster serving:\n"
      "  `gqd route` fronts a fleet of `gqd serve` workers: requests are\n"
      "  consistent-hashed on graph fingerprint, each graph is loaded on R\n"
      "  replicas, health probes drive a healthy/suspect/dead/rejoining\n"
      "  state machine, and failed or shed requests fail over to replicas\n"
      "  (docs/runtime.md). `bench-serve --workers N` self-hosts a fleet\n"
      "  plus router; --chaos-kill kills and restarts the busiest worker\n"
      "  mid-run and reports failovers, warm replays and verdict\n"
      "  mismatches.\n"
      "\n"
      "storage:\n"
      "  every <graph> argument accepts either the node/edge text format or\n"
      "  a binary graph container (docs/storage.md); containers are mmap'd\n"
      "  and served zero-copy. `gqd convert graph` converts between the two\n"
      "  (direction follows the input format; --validate deep-checks the\n"
      "  container, and `convert graph <file> --validate` with no output\n"
      "  only checks). `gqd gen` streams synthetic graphs to a container.\n"
      "  every <relation> argument accepts the pair text format or a\n"
      "  binary relation container (.gqdr); `gqd convert relation`\n"
      "  converts between the two and `gqd gen relation` samples a\n"
      "  deterministic sparse relation over a graph.\n"
      "\n"
      "resource governance:\n"
      "  --max-bytes / --max-tuples cap accounted memory and materialized\n"
      "  tuples; an exceeded budget stops the search cleanly and reports\n"
      "  partial progress instead of exhausting host memory. `gqd check`\n"
      "  admits the relation by the estimated bytes of the selected\n"
      "  representation (--relation-backend, default auto), so sparse\n"
      "  relations over million-node graphs fit budgets the dense matrix\n"
      "  never could. `gqd synth` admits its dense matrix the same way.\n"
      "\n"
      "observability:\n"
      "  --trace-out FILE writes a Chrome trace-event JSON of the stage\n"
      "  spans recorded during the command (open in chrome://tracing or\n"
      "  Perfetto); on `gqd route` the file holds *merged* cluster traces\n"
      "  (router + worker spans per sampled request, one process track\n"
      "  each), written at shutdown. routed eval/check responses carry\n"
      "  served_by and failovers; `\"trace\":true` on a routed request\n"
      "  returns the merged cross-process span tree. serve and route both\n"
      "  answer `log` (structured JSON event ring; configure with\n"
      "  GQD_LOG=level[:path]) and route keeps the slowest traces per\n"
      "  command (--exemplars N) in `stats`. workers answer `spans` — the\n"
      "  router's trace-drain command. see docs/observability.md.\n"
      "\n"
      "query compilation:\n"
      "  `gqd compile` runs the plan pass on a REM query: automaton\n"
      "  reachability/liveness analysis, dead-transition elimination, and —\n"
      "  with --graph — the kernel-dispatch census the checkers execute.\n"
      "  --plan-out FILE writes the dump to FILE (format per --json) and\n"
      "  prints a one-line summary instead; see docs/analysis.md.\n"
      "\n"
      "exit codes:\n"
      "  0 success      1 error          2 usage\n"
      "  3 not definable (synth)         4 resource budget exhausted\n"
      "  5 deadline exceeded/cancelled   6 server unavailable (overload)\n"
      "  7 lint found error-severity diagnostics\n");
  return 2;
}

/// The GraphStore surfaces fingerprints as 16 hex digits; the relation
/// container binds by the raw u64.
std::uint64_t FingerprintFromHex(const std::string& hex) {
  return std::strtoull(hex.c_str(), nullptr, 16);
}

/// Loads a relation as its canonical pair list without materializing any
/// representation: a .gqdr container is opened (validated, and checked
/// against the graph's fingerprint when bound), anything else parses as the
/// pair text format. O(nnz) memory either way.
Result<std::vector<std::pair<NodeId, NodeId>>> LoadRelationPairs(
    const DataGraph& graph, const std::string& graph_fingerprint,
    const char* path) {
  if (IsRelationContainerFile(path)) {
    GQD_ASSIGN_OR_RETURN(StoredRelation stored,
                         OpenRelationContainer(
                             path, FingerprintFromHex(graph_fingerprint)));
    if (stored.info.num_nodes != graph.NumNodes()) {
      return Status::InvalidArgument(
          "relation container is over " +
          std::to_string(stored.info.num_nodes) + " nodes but the graph has " +
          std::to_string(graph.NumNodes()));
    }
    return std::move(stored.pairs);
  }
  GQD_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ReadRelationPairsText(graph, text);
}

/// Loads the `<relation>` argument of `check` or `synth` (LoadRelationPairs)
/// and admits it as `backend`: its estimated bytes are charged to `budget`
/// before anything is built, and a refusal says so on stderr, suggesting
/// --relation-backend only when the command has it (`check`, not
/// `synth`). So a budgeted dense relation over a million-node graph exits
/// 4 instead of attempting a ~125 GB allocation, while a sparse one
/// proceeds.
Result<AdaptiveRelation> LoadAdmittedRelation(const StoredGraph& loaded,
                                              const char* path,
                                              RelationBackend backend,
                                              const ResourceBudget* budget,
                                              bool has_backend_flag) {
  GQD_ASSIGN_OR_RETURN(
      auto pairs,
      LoadRelationPairs(*loaded.graph, loaded.info.fingerprint, path));
  const std::size_t n = loaded.graph->NumNodes();
  const std::size_t nnz = pairs.size();
  RelationAdmission admission =
      AdmitRelation(n, std::move(pairs), backend, budget);
  if (!admission.status.ok()) {
    std::fprintf(stderr,
                 "admission: %s relation backend estimated at %zu bytes"
                 " (n=%zu, nnz=%zu); try %sa larger --max-bytes\n",
                 RelationBackendName(admission.backend),
                 admission.estimate_bytes, n, nnz,
                 has_backend_flag ? "--relation-backend sparse|blocked or "
                                  : "");
    return admission.status;
  }
  return std::move(admission.relation);
}

/// Finds `--flag value` in argv; returns nullptr when absent.
const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

/// Parses `text` as a decimal integer in [0, max]: digits only, so empty
/// input, signs, blanks, unit suffixes and overflow are all refused.
bool ParseUnsigned(const char* text, std::uint64_t max, std::uint64_t* out) {
  if (*text == '\0') {
    return false;
  }
  std::uint64_t value = 0;
  for (const char* c = text; *c != '\0'; c++) {
    if (*c < '0' || *c > '9') {
      return false;
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(*c - '0');
    if (value > max / 10 || value * 10 > max - digit) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Stores `text`, the value of `flag`, into `*out` if it is an integer in
/// [0, largest T]; otherwise says so on stderr and returns false, and the
/// caller answers with Usage() (exit 2). A std::uint16_t port therefore
/// refuses 70000 instead of wrapping it.
template <typename T>
bool ParseUnsignedArg(const char* flag, const char* text, T* out) {
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  std::uint64_t value = 0;
  if (!ParseUnsigned(text, max, &value)) {
    std::fprintf(stderr, "error: %s takes an integer in [0, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(max), text);
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// ParseUnsignedArg on `--flag N` when present; `*out` keeps its default
/// when the flag is absent.
template <typename T>
bool UnsignedFlag(int argc, char** argv, const char* flag, T* out) {
  const char* text = FlagValue(argc, argv, flag);
  return text == nullptr || ParseUnsignedArg(flag, text, out);
}

/// Extracts `--trace-out <file>` or `--trace-out=<file>`; empty when absent.
std::string TraceOutPath(int argc, char** argv) {
  for (int i = 0; i < argc; i++) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      return argv[i] + 12;
    }
  }
  return std::string();
}

/// Installs a Tracer for the command's lifetime when --trace-out was given
/// and writes the Chrome trace-event JSON on destruction, so every exit
/// path (including failures) still produces a trace file.
class TraceWriter {
 public:
  explicit TraceWriter(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) {
      tracer_.emplace();
      scope_.emplace(&*tracer_);
    }
  }
  ~TraceWriter() {
    if (!tracer_.has_value()) {
      return;
    }
    scope_.reset();
    if (!WriteStringToFile(path_, TraceToChromeJson(tracer_->Drain())).ok()) {
      std::fprintf(stderr, "warning: cannot write trace file %s\n",
                   path_.c_str());
    }
  }
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

 private:
  std::string path_;
  std::optional<Tracer> tracer_;
  std::optional<Tracer::Scope> scope_;
};

/// Emplaces a ResourceBudget from --max-bytes (and, when
/// `tuples_axis` is set, --max-tuples); leaves `*budget` empty when
/// neither flag is present. False on a malformed value (see
/// ParseUnsignedArg).
bool BudgetFromFlags(int argc, char** argv,
                     std::optional<ResourceBudget>* budget,
                     bool tuples_axis) {
  std::uint64_t max_bytes = 0;
  std::uint64_t max_tuples = 0;
  if (!UnsignedFlag(argc, argv, "--max-bytes", &max_bytes) ||
      (tuples_axis &&
       !UnsignedFlag(argc, argv, "--max-tuples", &max_tuples))) {
    return false;
  }
  if (max_bytes > 0 || max_tuples > 0) {
    budget->emplace(max_bytes, max_tuples);
  }
  return true;
}

/// Reads the flags `check` and `synth` share: --k and --threads into
/// `request`, and --max-bytes into `budget`, which `request` then points
/// at. False on a malformed value.
bool CheckRequestFlags(int argc, char** argv, CheckRequest* request,
                       std::optional<ResourceBudget>* budget) {
  if (!BudgetFromFlags(argc, argv, budget, /*tuples_axis=*/false) ||
      !UnsignedFlag(argc, argv, "--k", &request->k) ||
      !UnsignedFlag(argc, argv, "--threads", &request->num_threads)) {
    return false;
  }
  request->budget = budget->has_value() ? &budget->value() : nullptr;
  return true;
}

int CmdEval(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  TraceWriter trace(TraceOutPath(argc, argv));
  auto loaded = GraphStore::OpenFile(argv[0]);
  if (!loaded.ok()) {
    return Fail(loaded.status());
  }
  const DataGraph& graph = *loaded.value().graph;
  std::string language = argv[1];
  // Optional resource budget; an exceeded budget exits 4 with a
  // ResourceExhausted error instead of exhausting host memory.
  std::optional<ResourceBudget> budget;
  if (!BudgetFromFlags(argc - 3, argv + 3, &budget, /*tuples_axis=*/true) ||
      !IsPathQueryLanguage(language)) {
    return Usage();
  }
  auto expression = ParsePathQuery(language, argv[2]);
  if (!expression.ok()) {
    return Fail(expression.status());
  }
  // Opt-in pre-flight: reject error-level lint findings before evaluating.
  if (HasFlag(argc - 3, argv + 3, "--preflight")) {
    Status admitted = PreflightPathExpression(graph, expression.value());
    if (!admitted.ok()) {
      return Fail(admitted);
    }
  }
  EvalOptions eval_options;
  eval_options.budget = budget.has_value() ? &budget.value() : nullptr;
  auto result = EvaluatePathExpression(graph, expression.value(), eval_options);
  if (!result.ok()) {
    return Fail(result.status());
  }
  std::printf("%s\n", result.value().ToString(graph).c_str());

  // --explain u v: the two node names follow the flag.
  for (int i = 3; i < argc; i++) {
    if (std::strcmp(argv[i], "--explain") != 0 || i + 1 == argc) {
      continue;
    }
    if (i + 2 == argc) {
      return Usage();
    }
    auto u = graph.FindNode(argv[i + 1]);
    auto v = graph.FindNode(argv[i + 2]);
    if (!u.ok()) {
      return Fail(u.status());
    }
    if (!v.ok()) {
      return Fail(v.status());
    }
    std::optional<ExplainedPath> witness =
        ExplainPathPair(graph, expression.value(), u.value(), v.value());
    if (!witness.has_value()) {
      std::printf("(%s, %s): not in the result\n", argv[i + 1], argv[i + 2]);
    } else {
      std::printf("(%s, %s) via nodes:", argv[i + 1], argv[i + 2]);
      for (NodeId node : witness->nodes) {
        std::printf(" %s", graph.NodeName(node).c_str());
      }
      std::printf("\n              data path: %s\n",
                  witness->data_path.ToString(graph).c_str());
    }
    break;
  }
  return 0;
}

int CmdCheck(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  TraceWriter trace(TraceOutPath(argc, argv));
  auto check_start = std::chrono::steady_clock::now();
  // Flags first: a malformed one is a usage error (exit 2) before any work.
  // --max-bytes attaches a byte budget and --max-tuples caps the checkers'
  // searches: a trip stops the checker with verdict budget-exhausted, and
  // exit 4.
  std::optional<ResourceBudget> budget;
  RelationBackend backend_choice = RelationBackend::kAuto;
  const char* backend_flag = FlagValue(argc, argv, "--relation-backend");
  const char* language_flag = FlagValue(argc, argv, "--language");
  std::string language = language_flag != nullptr ? language_flag : "all";
  CheckRequest request;
  std::size_t max_tuples = 0;
  if (!CheckRequestFlags(argc, argv, &request, &budget) ||
      (backend_flag != nullptr &&
       !ParseRelationBackend(backend_flag, &backend_choice)) ||
      !UnsignedFlag(argc, argv, "--max-tuples", &max_tuples)) {
    return Usage();
  }
  // The CLI names the k-REM checker `rem`, serve `krem`.
  Checker only = Checker::kRpq;
  if (language != "all" &&
      (language == "krem" ||
       !ParseChecker(language == "rem" ? "krem" : language, &only))) {
    std::fprintf(stderr, "error: unknown --language '%s'\n",
                 language.c_str());
    return Usage();
  }
  if (FlagValue(argc, argv, "--max-tuples") != nullptr) {
    request.max_tuples = max_tuples;
  }
  bool json = HasFlag(argc, argv, "--json");

  auto loaded = GraphStore::OpenFile(argv[0]);
  if (!loaded.ok()) {
    return Fail(loaded.status());
  }
  const DataGraph& graph = *loaded.value().graph;
  auto admitted = LoadAdmittedRelation(loaded.value(), argv[1],
                                       backend_choice, request.budget,
                                       /*has_backend_flag=*/true);
  if (!admitted.ok()) {
    return Fail(admitted.status());
  }
  const AdaptiveRelation& relation = admitted.value();

  int exit_code = 0;
  JsonValue::Object verdicts;
  JsonValue::Object checkers;
  for (Checker checker :
       {Checker::kRpq, Checker::kKRem, Checker::kRee, Checker::kUcrdpq}) {
    if (language != "all" && checker != only) {
      continue;
    }
    const std::string name =
        checker == Checker::kKRem ? "rem" : CheckerName(checker);
    request.checker = checker;
    auto answer = RunCheck(graph, relation, request, nullptr, nullptr);
    if (!answer.ok()) {
      return Fail(answer.status());
    }
    const DefinabilityVerdict verdict = answer.value().verdict;
    if (!json) {
      std::string label = checker == Checker::kKRem
                              ? "rem(k=" + std::to_string(request.k) + ")"
                              : name;
      std::printf("%-10s %s\n", label.c_str(),
                  DefinabilityVerdictToString(verdict));
    }
    verdicts.emplace_back(name,
                          std::string(DefinabilityVerdictToString(verdict)));
    checkers.emplace_back(name, CheckAnswerToJson(answer.value()));
    if (const auto& partial = answer.value().partial) {
      std::fprintf(stderr, "partial progress: %s\n",
                   PartialProgressToString(*partial).c_str());
    }
    if (verdict == DefinabilityVerdict::kBudgetExhausted ||
        answer.value().partial.has_value()) {
      exit_code = 4;
    }
  }
  if (json) {
    // One object the bench harness can diff across backends: verdicts,
    // each checker's answer, what the relation actually cost to hold and
    // how long the whole command took.
    auto wall = std::chrono::steady_clock::now() - check_start;
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    std::printf(
        "{\"verdicts\":%s,\"checkers\":%s,"
        "\"relation\":{\"backend\":\"%s\",\"nnz\":%zu,\"bytes\":%zu},"
        "\"wall_ms\":%.3f,\"peak_rss_kb\":%llu}\n",
        JsonValue(std::move(verdicts)).Serialize().c_str(),
        JsonValue(std::move(checkers)).Serialize().c_str(),
        RelationBackendName(relation.backend()), relation.Nnz(),
        relation.ByteSize(),
        std::chrono::duration<double, std::milli>(wall).count(),
        static_cast<unsigned long long>(usage.ru_maxrss));
  }
  return exit_code;
}

int CmdSynth(int argc, char** argv) {
  const char* language_flag = FlagValue(argc, argv, "--language");
  // The budget governs the definability search inside synthesis; a trip
  // surfaces as verdict budget-exhausted, i.e. "no query synthesized".
  CheckRequest request;
  std::optional<ResourceBudget> budget;
  if (argc < 2 || language_flag == nullptr ||
      !CheckRequestFlags(argc, argv, &request, &budget)) {
    return Usage();
  }
  const std::string language = language_flag;
  if (language != "rpq" && language != "rem" && language != "ree") {
    return Usage();
  }
  const bool simplify = HasFlag(argc, argv, "--simplify");
  auto loaded = GraphStore::OpenFile(argv[0]);
  if (!loaded.ok()) {
    return Fail(loaded.status());
  }
  const DataGraph& graph = *loaded.value().graph;
  // Synthesis runs on the dense matrix, so that is what is admitted.
  auto admitted = LoadAdmittedRelation(loaded.value(), argv[1],
                                       RelationBackend::kDense, request.budget,
                                       /*has_backend_flag=*/false);
  if (!admitted.ok()) {
    return Fail(admitted.status());
  }
  const BinaryRelation& relation = admitted.value().dense();
  KRemDefinabilityOptions krem_options;
  krem_options.num_threads = request.num_threads;
  krem_options.budget = request.budget;
  ReeDefinabilityOptions ree_options;
  ree_options.budget = request.budget;

  std::optional<std::string> query;  // stays empty when S is not definable
  Status synthesized;
  if (language == "rpq") {
    auto q = SynthesizeRpqQuery(graph, relation, krem_options);
    synthesized = q.status();
    if (q.ok() && q.value().has_value()) {
      Result<RegexPtr> e =
          simplify ? SimplifyRegexOnGraph(graph, *q.value(), relation)
                   : Result<RegexPtr>(*q.value());
      query = RegexToString(e.ok() ? e.value() : *q.value());
    }
  } else if (language == "rem") {
    auto q = SynthesizeKRemQuery(graph, relation, request.k, krem_options);
    synthesized = q.status();
    if (q.ok() && q.value().has_value()) {
      query = RemToString(*q.value());
    }
  } else {
    auto q = SynthesizeReeQuery(graph, relation, ree_options);
    synthesized = q.status();
    if (q.ok() && q.value().has_value()) {
      Result<ReePtr> e =
          simplify ? SimplifyReeOnGraph(graph, *q.value(), relation)
                   : Result<ReePtr>(*q.value());
      query = ReeToString(e.ok() ? e.value() : *q.value());
    }
  }
  if (!synthesized.ok()) {
    return Fail(synthesized);
  }
  if (!query.has_value()) {
    if (language == "rem") {
      std::printf("not definable with %zu registers\n", request.k);
    } else {
      std::printf("not definable\n");
    }
    return 3;
  }
  std::printf("%s\n", query->c_str());
  return 0;
}

int CmdConvert(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string language = argv[0];
  if (language == "graph") {
    // `gqd convert graph <in> [<out>] [--validate]` — converts between the
    // text format and the binary container, direction decided by the input
    // format. With a container input and no output, --validate just
    // deep-checks the file.
    const char* in_path = argv[1];
    const char* out_path = argc >= 3 && argv[2][0] != '-' ? argv[2] : nullptr;
    bool validate = HasFlag(argc, argv, "--validate");
    bool in_is_container = IsGraphContainerFile(in_path);
    if (out_path == nullptr) {
      if (!in_is_container || !validate) {
        return Usage();
      }
      Status checked = ValidateGraphContainer(in_path);
      if (!checked.ok()) {
        return Fail(checked);
      }
      std::printf("ok: %s\n", in_path);
      return 0;
    }
    OpenOptions open_options;
    open_options.validate = validate && in_is_container;
    auto loaded = GraphStore::OpenFile(in_path, open_options);
    if (!loaded.ok()) {
      return Fail(loaded.status());
    }
    const DataGraph& graph = *loaded.value().graph;
    Status written = in_is_container
                         ? WriteStringToFile(out_path, WriteGraphText(graph))
                         : WriteGraphContainer(graph, out_path);
    if (written.ok() && validate && !in_is_container) {
      written = ValidateGraphContainer(out_path);
    }
    if (!written.ok()) {
      return Fail(written);
    }
    std::fprintf(stderr, "%s -> %s (%zu nodes, %zu edges, fingerprint %s)\n",
                 in_path, out_path, graph.NumNodes(), graph.NumEdges(),
                 loaded.value().info.fingerprint.c_str());
    return 0;
  }
  if (language == "relation") {
    // `gqd convert relation <graph> <in> <out>` — converts between the pair
    // text format and the .gqdr container, direction decided by the input
    // format. The graph supplies node names (text side) and the
    // fingerprint the container binds to.
    if (argc < 4) {
      return Usage();
    }
    auto loaded = GraphStore::OpenFile(argv[1]);
    if (!loaded.ok()) {
      return Fail(loaded.status());
    }
    const DataGraph& graph = *loaded.value().graph;
    const char* in_path = argv[2];
    const char* out_path = argv[3];
    auto pairs =
        LoadRelationPairs(graph, loaded.value().info.fingerprint, in_path);
    if (!pairs.ok()) {
      return Fail(pairs.status());
    }
    std::size_t num_pairs = pairs.value().size();
    Status written =
        IsRelationContainerFile(in_path)
            ? WriteStringToFile(out_path, WriteRelationPairsText(
                                              graph, std::move(pairs).value()))
            : WriteRelationContainer(
                  graph.NumNodes(), std::move(pairs).value(),
                  FingerprintFromHex(loaded.value().info.fingerprint),
                  out_path);
    if (!written.ok()) {
      return Fail(written);
    }
    std::fprintf(stderr, "%s -> %s (%zu nodes, %zu pairs)\n", in_path,
                 out_path, graph.NumNodes(), num_pairs);
    return 0;
  }
  if (language == "regex") {
    auto e = ParseRegex(argv[1]);
    if (!e.ok()) {
      return Fail(e.status());
    }
    std::printf("%s\n", RemToString(RegexToRem(e.value())).c_str());
    return 0;
  }
  if (language == "ree") {
    auto e = ParseRee(argv[1]);
    if (!e.ok()) {
      return Fail(e.status());
    }
    RemPtr rem = ReeToRem(e.value());
    std::printf("%s\n", RemToString(rem).c_str());
    std::fprintf(stderr, "registers: %zu\n", RemNumRegisters(rem));
    return 0;
  }
  return Usage();
}

/// `gqd gen scale-free|grid --out FILE [...]` — deterministic synthetic
/// graph generators. By default the graph streams straight into a binary
/// container through GraphContainerBuilder (a million-node graph builds in
/// tens of megabytes, never holding the text form); --text routes through a
/// resident DataGraph and writes the node/edge text format instead.
int CmdGen(int argc, char** argv) {
  if (argc < 1) {
    return Usage();
  }
  std::string kind = argv[0];
  const char* out_path = FlagValue(argc, argv, "--out");
  if (out_path == nullptr) {
    return Usage();
  }
  std::uint64_t seed = 1;
  std::uint64_t draws = 0;
  ScaleFreeOptions scale_free;
  GridOptions grid;
  if (!UnsignedFlag(argc, argv, "--seed", &seed) ||
      !UnsignedFlag(argc, argv, "--pairs", &draws) ||
      !UnsignedFlag(argc, argv, "--nodes", &scale_free.num_nodes) ||
      !UnsignedFlag(argc, argv, "--edges-per-node",
                    &scale_free.edges_per_node) ||
      !UnsignedFlag(argc, argv, "--labels", &scale_free.num_labels) ||
      !UnsignedFlag(argc, argv, "--values", &scale_free.num_data_values) ||
      !UnsignedFlag(argc, argv, "--values", &grid.num_data_values) ||
      !UnsignedFlag(argc, argv, "--rows", &grid.rows) ||
      !UnsignedFlag(argc, argv, "--cols", &grid.cols)) {
    return Usage();
  }
  double density = 4.0;  // --density D: pairs drawn per node on average
  if (const char* text = FlagValue(argc, argv, "--density")) {
    char* end = nullptr;
    density = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(density) ||
        density < 0) {
      std::fprintf(stderr,
                   "error: --density takes a non-negative number, got '%s'\n",
                   text);
      return Usage();
    }
  }
  scale_free.seed = grid.seed = seed;
  if (kind == "relation") {
    // `gqd gen relation --graph FILE --out FILE [--pairs N | --density D
    // | --word a.b] [--seed S] [--text]` — deterministic candidate
    // relations over the graph's nodes. --density D samples D pairs per
    // node on average (default 4), --pairs N an absolute draw count
    // (duplicates collapse during canonicalization, so the written count
    // can land slightly under); --word w instead computes R_w, which is
    // definable by construction — the shape the CI sparse-check leg
    // certifies at a million nodes. The container output binds to the
    // graph's fingerprint.
    const char* graph_flag = FlagValue(argc, argv, "--graph");
    if (graph_flag == nullptr) {
      return Usage();
    }
    auto loaded = GraphStore::OpenFile(graph_flag);
    if (!loaded.ok()) {
      return Fail(loaded.status());
    }
    const DataGraph& graph = *loaded.value().graph;
    const std::size_t n = graph.NumNodes();
    if (n == 0) {
      return Fail(Status::InvalidArgument("cannot sample over an empty graph"));
    }
    std::vector<std::pair<NodeId, NodeId>> pairs;
    const char* word_flag = FlagValue(argc, argv, "--word");
    if (word_flag != nullptr) {
      // --word a.b: S = R_w, the pairs connected by the label word w —
      // a relation that is RPQ-definable by construction, computed by
      // frontier streaming (per-source successor chase, never a matrix).
      std::vector<LabelId> word;
      std::string token;
      for (const char* c = word_flag;; c++) {
        if (*c == '.' || *c == '\0') {
          auto id = graph.labels().Find(token);
          if (!id.has_value()) {
            return Fail(Status::InvalidArgument(
                "label '" + token + "' is not in the graph's alphabet"));
          }
          word.push_back(*id);
          token.clear();
          if (*c == '\0') {
            break;
          }
        } else {
          token += *c;
        }
      }
      std::vector<NodeId> frontier;
      std::vector<NodeId> next;
      for (NodeId u = 0; u < n; u++) {
        frontier.assign(1, u);
        for (LabelId a : word) {
          next.clear();
          for (NodeId v : frontier) {
            for (const auto& [label, to] : graph.OutEdges(v)) {
              if (label == a) {
                next.push_back(to);
              }
            }
          }
          std::sort(next.begin(), next.end());
          next.erase(std::unique(next.begin(), next.end()), next.end());
          frontier.swap(next);
        }
        for (NodeId v : frontier) {
          pairs.emplace_back(u, v);
        }
      }
    } else {
      // Distinct pairs never exceed n², so neither may a draw count.
      const std::uint64_t max_pairs =
          n > std::numeric_limits<std::uint32_t>::max()
              ? std::numeric_limits<std::uint64_t>::max()
              : static_cast<std::uint64_t>(n) * n;
      if (const char* text = FlagValue(argc, argv, "--pairs")) {
        if (draws > max_pairs) {
          std::fprintf(stderr,
                       "error: --pairs takes an integer in [0, %llu], got "
                       "'%s'\n",
                       static_cast<unsigned long long>(max_pairs), text);
          return Usage();
        }
      } else {
        const char* density_text = FlagValue(argc, argv, "--density");
        if (density_text != nullptr && density > static_cast<double>(n)) {
          std::fprintf(stderr,
                       "error: --density takes a number in [0, %zu], got "
                       "'%s'\n",
                       n, density_text);
          return Usage();
        }
        draws = static_cast<std::uint64_t>(density * static_cast<double>(n));
      }
      SplitMix64 rng(seed);
      pairs.reserve(std::min(draws, max_pairs));
      for (std::uint64_t i = 0; i < draws; i++) {
        NodeId u = static_cast<NodeId>(rng.NextBelow(n));
        NodeId v = static_cast<NodeId>(rng.NextBelow(n));
        pairs.emplace_back(u, v);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    std::size_t num_pairs = pairs.size();
    Status written =
        HasFlag(argc, argv, "--text")
            ? WriteStringToFile(out_path,
                                WriteRelationPairsText(graph, std::move(pairs)))
            : WriteRelationContainer(
                  n, std::move(pairs),
                  FingerprintFromHex(loaded.value().info.fingerprint),
                  out_path);
    if (!written.ok()) {
      return Fail(written);
    }
    std::fprintf(stderr, "%s: %zu nodes, %zu pairs (backend auto = %s)\n",
                 out_path, n, num_pairs,
                 RelationBackendName(ChooseRelationBackend(n, num_pairs)));
    return 0;
  }
  auto emit = [&](GraphSink* sink) {
    if (kind == "scale-free") {
      GenerateScaleFree(scale_free, sink);
      return true;
    }
    if (kind == "grid") {
      GenerateGrid(grid, sink);
      return true;
    }
    return false;
  };
  if (HasFlag(argc, argv, "--text")) {
    DataGraphSink sink;
    if (!emit(&sink)) {
      return Usage();
    }
    DataGraph graph = sink.Take();
    Status written = WriteStringToFile(out_path, WriteGraphText(graph));
    if (!written.ok()) {
      return Fail(written);
    }
    std::fprintf(stderr, "%s: %zu nodes, %zu edges (text)\n", out_path,
                 graph.NumNodes(), graph.NumEdges());
    return 0;
  }
  GraphContainerBuilder builder;
  if (!emit(&builder)) {
    return Usage();
  }
  Status written = builder.WriteToFile(out_path);
  if (!written.ok()) {
    return Fail(written);
  }
  std::fprintf(stderr, "%s: %zu nodes, %zu edges, fingerprint %s\n", out_path,
               builder.NumNodes(), builder.NumEdges(),
               FingerprintToHex(builder.fingerprint()).c_str());
  return 0;
}

/// `gqd compile <rem> [--graph FILE] [--k N] [--json] [--plan-out FILE]` —
/// runs the plan pass on one REM query and dumps the QueryPlan: automaton
/// analysis summary, eliminated transitions, GQD-PLAN-* findings, and (with
/// --graph) the kernel-dispatch census over the assignment graph.
int CmdCompile(int argc, char** argv) {
  if (argc < 1) {
    return Usage();
  }
  std::string text = argv[0];
  auto e = ParseRem(text);
  if (!e.ok()) {
    return Fail(e.status());
  }

  std::shared_ptr<const DataGraph> graph;
  const char* graph_path = FlagValue(argc - 1, argv + 1, "--graph");
  if (graph_path != nullptr) {
    auto loaded = GraphStore::OpenFile(graph_path);
    if (!loaded.ok()) {
      return Fail(loaded.status());
    }
    graph = std::move(loaded).value().graph;
  }

  // Plan against the graph's alphabet when one is given — letters outside
  // it compile to dead fragments the analysis then eliminates. Without a
  // graph every letter of the query is interned fresh (nothing is dead on
  // alphabet grounds alone).
  StringInterner labels =
      graph != nullptr ? graph->labels() : StringInterner();
  QueryPlan plan = BuildRemQueryPlan(
      e.value(), &labels, /*intern_new_labels=*/graph == nullptr);

  if (graph != nullptr) {
    std::size_t k = plan.num_registers;
    if (!UnsignedFlag(argc - 1, argv + 1, "--k", &k)) {
      return Usage();
    }
    // The dispatch census needs the packed pattern vocabulary (k <= 4);
    // beyond that the checkers run the reference engine anyway.
    if (k <= 4) {
      auto ag = AssignmentGraph::Build(*graph, k);
      if (!ag.ok()) {
        return Fail(ag.status());
      }
      KernelDispatchTable table = KernelDispatchTable::Build(ag.value());
      AttachDispatchCensus(table, &plan);
    }
  }

  bool json = HasFlag(argc - 1, argv + 1, "--json");
  std::string dump = json ? plan.ToJson(&labels) : plan.ToText(&labels);
  std::string out_path;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--plan-out") == 0 && i + 1 < argc) {
      out_path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--plan-out=", 11) == 0) {
      out_path = argv[i] + 11;
    }
  }
  if (!out_path.empty()) {
    if (!WriteStringToFile(out_path, json ? dump + "\n" : dump).ok()) {
      std::fprintf(stderr, "error: cannot write plan file %s\n",
                   out_path.c_str());
      return 1;
    }
    std::printf("plan: %zu -> %zu states, %zu -> %zu transitions -> %s\n",
                plan.states_before, plan.states_after,
                plan.transitions_before, plan.transitions_after,
                out_path.c_str());
    return 0;
  }
  if (json) {
    std::printf("%s\n", dump.c_str());
  } else {
    std::printf("%s", dump.c_str());
  }
  return 0;
}

int CmdLint(int argc, char** argv) {
  if (argc < 1) {
    return Usage();
  }
  bool json = HasFlag(argc, argv, "--json");
  AnalysisOptions options;
  options.include_notes = !HasFlag(argc, argv, "--no-notes");
  std::shared_ptr<const DataGraph> graph;
  const char* graph_path = FlagValue(argc, argv, "--graph");
  if (graph_path != nullptr) {
    auto loaded = GraphStore::OpenFile(graph_path);
    if (!loaded.ok()) {
      return Fail(loaded.status());
    }
    graph = std::move(loaded).value().graph;
    options.graph = graph.get();
  }

  const char* suite_path = FlagValue(argc, argv, "--suite");
  if (suite_path != nullptr) {
    auto text = ReadFileToString(suite_path);
    if (!text.ok()) {
      return Fail(text.status());
    }
    auto entries = RunLintSuite(text.value(), options);
    if (!entries.ok()) {
      return Fail(entries.status());
    }
    std::printf("%s", json ? LintSuiteToJson(entries.value()).c_str()
                           : LintSuiteToText(entries.value()).c_str());
    if (json) {
      std::printf("\n");
    }
    // Error-severity findings get their own exit code (7) so CI and
    // editor integrations can tell "lint found defects" from hard errors.
    return SuiteHasErrors(entries.value()) ? 7 : 0;
  }

  if (argc < 2) {
    return Usage();
  }
  if (!IsPathQueryLanguage(argv[0])) {
    return Usage();
  }
  auto linted = LintPathQuery(argv[0], argv[1], options);
  if (!linted.ok()) {
    return Fail(linted.status());
  }
  const std::vector<Diagnostic>& diagnostics = linted.value();
  if (json) {
    std::printf("%s\n", DiagnosticsToJson(diagnostics).c_str());
  } else if (diagnostics.empty()) {
    std::printf("clean\n");
  } else {
    std::printf("%s", DiagnosticsToText(diagnostics).c_str());
  }
  return HasErrors(diagnostics) ? 7 : 0;
}

int CmdInfo(int argc, char** argv) {
  if (argc < 1) {
    return Usage();
  }
  if (IsRelationContainerFile(argv[0])) {
    // Relation containers answer from the header statistics: shape, graph
    // binding, and what the admission estimate would charge for the
    // backend auto-selection would pick.
    auto stored = OpenRelationContainer(argv[0]);
    if (!stored.ok()) {
      return Fail(stored.status());
    }
    const RelationStoreInfo& info = stored.value().info;
    RelationBackend backend = ChooseRelationBackend(
        static_cast<std::size_t>(info.num_nodes),
        static_cast<std::size_t>(info.num_pairs));
    std::size_t estimate = EstimateRelationBytes(
        backend, static_cast<std::size_t>(info.num_nodes),
        static_cast<std::size_t>(info.num_pairs));
    if (HasFlag(argc, argv, "--json")) {
      std::printf(
          "{\"kind\":\"relation\",\"nodes\":%llu,\"pairs\":%llu,"
          "\"distinct_sources\":%llu,\"max_row_degree\":%llu,"
          "\"graph_fingerprint\":\"%016llx\",\"backend\":\"%s\","
          "\"estimated_bytes\":%zu,\"source_bytes\":%llu,"
          "\"load_micros\":%llu}\n",
          static_cast<unsigned long long>(info.num_nodes),
          static_cast<unsigned long long>(info.num_pairs),
          static_cast<unsigned long long>(info.distinct_sources),
          static_cast<unsigned long long>(info.max_row_degree),
          static_cast<unsigned long long>(info.graph_fingerprint),
          RelationBackendName(backend), estimate,
          static_cast<unsigned long long>(info.source_bytes),
          static_cast<unsigned long long>(info.load_micros));
      return 0;
    }
    std::printf("kind: relation container\nnodes: %llu\npairs: %llu\n",
                static_cast<unsigned long long>(info.num_nodes),
                static_cast<unsigned long long>(info.num_pairs));
    std::printf("distinct sources: %llu\nmax row degree: %llu\n",
                static_cast<unsigned long long>(info.distinct_sources),
                static_cast<unsigned long long>(info.max_row_degree));
    if (info.graph_fingerprint != 0) {
      std::printf("graph fingerprint: %016llx\n",
                  static_cast<unsigned long long>(info.graph_fingerprint));
    } else {
      std::printf("graph fingerprint: (unbound)\n");
    }
    std::printf("auto backend: %s (estimated %zu bytes)\n",
                RelationBackendName(backend), estimate);
    std::printf("source bytes: %llu\nload time: %llu us\n",
                static_cast<unsigned long long>(info.source_bytes),
                static_cast<unsigned long long>(info.load_micros));
    return 0;
  }
  auto loaded = GraphStore::OpenFile(argv[0]);
  if (!loaded.ok()) {
    return Fail(loaded.status());
  }
  const DataGraph& graph = *loaded.value().graph;
  const GraphStoreInfo& storage = loaded.value().info;
  if (HasFlag(argc, argv, "--dot")) {
    std::printf("%s", WriteGraphDot(graph).c_str());
    return 0;
  }
  if (HasFlag(argc, argv, "--json")) {
    // The shape object the serve protocol embeds in load/info responses,
    // widened with the storage description and the process peak RSS so the
    // bench harness can diff text-parse vs mmap loading cost.
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    JsonValue::Object body =
        JsonValue::Parse(WriteGraphInfoJson(graph)).ValueOrDie().AsObject();
    body.emplace_back("fingerprint", storage.fingerprint);
    body.emplace_back("storage", StorageInfoToJson(storage));
    body.emplace_back("peak_rss_kb", static_cast<double>(usage.ru_maxrss));
    std::printf("%s\n", JsonValue(std::move(body)).Serialize().c_str());
    return 0;
  }
  const DataGraph& g = graph;
  std::printf("nodes: %zu\nedges: %zu\nalphabet (%zu):", g.NumNodes(),
              g.NumEdges(), g.NumLabels());
  for (const std::string& name : g.labels().names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\ndata values (δ = %zu):", g.NumDataValues());
  for (const std::string& name : g.data_values().names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nfingerprint: %s\nbackend: %s\n", storage.fingerprint.c_str(),
              GraphBackendName(storage.backend));
  std::printf("source bytes: %llu\nresident bytes: %llu\nload time: %llu us\n",
              static_cast<unsigned long long>(storage.source_bytes),
              static_cast<unsigned long long>(storage.resident_bytes),
              static_cast<unsigned long long>(storage.load_micros));
  return 0;
}

/// "examples/data/figure1.graph" -> "figure1" (the registry name a
/// preloaded graph is served under).
std::string GraphNameFromPath(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) {
    base = base.substr(0, dot);
  }
  return base;
}

int CmdServe(int argc, char** argv) {
  ServiceOptions options;
  ServerOptions server_options;
  std::uint16_t port = 7878;
  // Load shedding: --max-concurrent enables the admission gate,
  // --max-queue bounds the wait line behind it (excess requests get an
  // Unavailable error with a --retry-after-ms hint).
  if (!UnsignedFlag(argc, argv, "--port", &port) ||
      !UnsignedFlag(argc, argv, "--threads", &options.num_threads) ||
      !UnsignedFlag(argc, argv, "--cache", &options.cache_capacity) ||
      !UnsignedFlag(argc, argv, "--max-concurrent",
                    &options.admission.max_concurrent) ||
      !UnsignedFlag(argc, argv, "--max-queue", &options.admission.max_queue) ||
      !UnsignedFlag(argc, argv, "--retry-after-ms",
                    &options.admission.retry_after_ms) ||
      !UnsignedFlag(argc, argv, "--max-line-bytes",
                    &server_options.max_line_bytes)) {
    return Usage();
  }
  QueryService service(options);
  // Preload every --graph file under its basename. LoadFile goes through
  // the GraphStore, so a binary container attaches as a zero-copy mapping.
  for (int i = 0; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], "--graph") != 0) {
      continue;
    }
    std::string name = GraphNameFromPath(argv[i + 1]);
    auto entry = service.registry().LoadFile(name, argv[i + 1]);
    if (!entry.ok()) {
      return Fail(entry.status());
    }
    std::fprintf(stderr, "loaded graph '%s' (fingerprint %s, %s)\n",
                 name.c_str(), entry.value().fingerprint.c_str(),
                 GraphBackendName(entry.value().info.backend));
  }
  Server server(&service, server_options);
  Status started = server.Start(port);
  if (!started.ok()) {
    return Fail(started);
  }
  // Machine-readable so wrappers can scrape the ephemeral port.
  std::printf("listening 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);
  server.Wait();
  return 0;
}

int CmdRoute(int argc, char** argv) {
  RouterOptions options;
  for (int i = 0; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], "--worker") == 0) {
      std::uint16_t worker = 0;
      if (!ParseUnsignedArg("--worker", argv[i + 1], &worker)) {
        return Usage();
      }
      options.worker_ports.push_back(worker);
    }
  }
  if (options.worker_ports.empty()) {
    return Usage();
  }
  ServerOptions server_options;
  std::uint16_t port = 7879;
  if (!UnsignedFlag(argc, argv, "--port", &port) ||
      !UnsignedFlag(argc, argv, "--replication", &options.replication) ||
      !UnsignedFlag(argc, argv, "--pool", &options.pool_size) ||
      !UnsignedFlag(argc, argv, "--probe-interval-ms",
                    &options.probe_interval_ms) ||
      !UnsignedFlag(argc, argv, "--suspect-threshold",
                    &options.suspect_threshold) ||
      !UnsignedFlag(argc, argv, "--retry-after-ms", &options.retry_after_ms) ||
      !UnsignedFlag(argc, argv, "--warm-log", &options.warm_log_capacity) ||
      !UnsignedFlag(argc, argv, "--exemplars", &options.exemplar_capacity) ||
      !UnsignedFlag(argc, argv, "--max-line-bytes",
                    &server_options.max_line_bytes)) {
    return Usage();
  }
  // Router --trace-out collects *merged* cluster traces (router + worker
  // spans per sampled request), written when the router shuts down.
  options.trace_out = TraceOutPath(argc, argv);
  Router router(options);
  Status started_router = router.Start();
  if (!started_router.ok()) {
    return Fail(started_router);
  }
  // Preload every --graph through the router itself so placement and
  // replication are recorded exactly as a client load would be.
  for (int i = 0; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], "--graph") != 0) {
      continue;
    }
    std::string name = GraphNameFromPath(argv[i + 1]);
    JsonValue::Object load;
    load.emplace_back("cmd", "load");
    load.emplace_back("name", name);
    load.emplace_back("path", argv[i + 1]);
    bool ignored = false;
    std::string response =
        router.HandleLine(JsonValue(std::move(load)).Serialize(), &ignored);
    if (response.find("\"ok\":true") == std::string::npos) {
      std::fprintf(stderr, "error: load of '%s' failed: %s\n", argv[i + 1],
                   response.c_str());
      return 1;
    }
    std::fprintf(stderr, "routed graph '%s' across the fleet\n", name.c_str());
  }
  Server front(&router, server_options);
  Status started = front.Start(port);
  if (!started.ok()) {
    return Fail(started);
  }
  std::fprintf(stderr, "routing to %zu workers (replication %zu)\n",
               options.worker_ports.size(),
               std::min(options.replication, options.worker_ports.size()));
  // Same machine-readable line as `gqd serve` so wrappers work unchanged.
  std::printf("listening 127.0.0.1:%u\n", front.port());
  std::fflush(stdout);
  front.Wait();
  router.Stop();
  return 0;
}

/// Wraps a worker's QueryService with a fixed per-request service time on
/// the data plane (eval/check). On a single benchmark machine the real
/// per-query compute is microseconds, so fleet scaling would measure the
/// router's socket loop rather than capacity; the delay models a worker
/// whose capacity is its connection pool, which is what a multi-host
/// fleet looks like. Control-plane commands (ping/stats/load/...) are
/// never delayed, so health probes and warm replay behave normally.
class BenchWorkerHandler : public LineHandler {
 public:
  BenchWorkerHandler(QueryService* service, int service_ms)
      : service_(service), service_ms_(service_ms) {}

  void Reset(QueryService* service) { service_ = service; }

  std::string HandleLine(const std::string& line, bool* shutdown) override {
    std::string response = service_->HandleLine(line, shutdown);
    if (service_ms_ > 0 && (line.find("\"cmd\":\"eval\"") != std::string::npos ||
                            line.find("\"cmd\":\"check\"") !=
                                std::string::npos)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(service_ms_));
    }
    return response;
  }

 private:
  QueryService* service_;
  const int service_ms_;
};

/// The eval mix both bench-serve modes send: the same queries in all three
/// languages.
struct BenchQuery {
  const char* language;
  const char* text;
};
constexpr BenchQuery kBenchQueries[] = {
    {"rpq", "a+"},
    {"rpq", "a.a"},
    {"rem", "$r1. a+ [r1=]"},
    {"ree", "(a.a)="},
};
constexpr std::size_t kNumBenchQueries = std::size(kBenchQueries);

std::string BenchEvalLine(const std::string& graph, const BenchQuery& query) {
  JsonValue::Object request;
  request.emplace_back("cmd", "eval");
  request.emplace_back("graph", graph);
  request.emplace_back("language", query.language);
  request.emplace_back("query", query.text);
  return JsonValue(std::move(request)).Serialize();
}

/// A response without the fields that differ per request even when the
/// answer does not: the trace id, and the router's served_by and failovers.
std::string ResponsePayload(const std::string& response) {
  auto parsed = JsonValue::Parse(response);
  if (!parsed.ok() || !parsed.value().is_object()) {
    return response;
  }
  JsonValue::Object kept;
  for (const auto& [key, value] : parsed.value().AsObject()) {
    if (key != "trace_id" && key != "served_by" && key != "failovers") {
      kept.emplace_back(key, value);
    }
  }
  return JsonValue(std::move(kept)).Serialize();
}

/// One bench-serve client load: `clients` connections to `port`, each
/// sending `requests` lines made by `line_for(client, i)`, with
/// CallWithRetry when `retry` is set.
struct LoadPlan {
  std::uint16_t port = 0;
  std::size_t clients = 0;
  std::size_t requests = 0;
  std::optional<RetryPolicy> retry;
  std::function<std::string(std::size_t client, std::size_t i)> line_for;
  /// Every ok response must match the first ok response to the same line
  /// (per-request fields dropped); answers are deterministic, so which
  /// replica served is invisible.
  bool compare_payloads = false;
  /// A request whose every retry was shed counts as shed when set (the
  /// cluster's failover already had its chance), as an error otherwise.
  bool retries_shed_is_shed = false;
};

/// What a load measured. A shed answer counts as shed, every other failure
/// as an error.
struct LoadReport {
  std::size_t clients = 0;
  std::vector<std::uint64_t> latencies_us;  ///< sorted
  std::size_t errors = 0;
  std::size_t shed = 0;
  std::uint64_t retries = 0;
  std::optional<std::size_t> mismatches;  ///< set when payloads compared
  double wall_ms = 0;

  std::uint64_t Percentile(double p) const {
    if (latencies_us.empty()) {
      return 0;
    }
    return latencies_us[static_cast<std::size_t>(
        p * static_cast<double>(latencies_us.size() - 1))];
  }
  double Throughput() const {
    return wall_ms > 0 ? static_cast<double>(latencies_us.size()) /
                             (wall_ms / 1000.0)
                       : 0.0;
  }
  bool Clean() const { return errors == 0 && mismatches.value_or(0) == 0; }

  /// The shared JSON fields, without braces.
  std::string JsonFields() const {
    char mismatch_field[48] = "";
    if (mismatches.has_value()) {
      std::snprintf(mismatch_field, sizeof(mismatch_field),
                    "\"mismatches\":%zu,", *mismatches);
    }
    char out[512];
    std::snprintf(
        out, sizeof(out),
        "\"clients\":%zu,\"requests\":%zu,\"errors\":%zu,\"shed\":%zu,"
        "\"retries\":%llu,%s\"wall_ms\":%.3f,\"throughput_rps\":%.1f,"
        "\"latency_us\":{\"p50\":%llu,\"p90\":%llu,\"p99\":%llu,"
        "\"max\":%llu}",
        clients, latencies_us.size(), errors, shed,
        static_cast<unsigned long long>(retries), mismatch_field, wall_ms,
        Throughput(), static_cast<unsigned long long>(Percentile(0.50)),
        static_cast<unsigned long long>(Percentile(0.90)),
        static_cast<unsigned long long>(Percentile(0.99)),
        static_cast<unsigned long long>(Percentile(1.0)));
    return out;
  }

  void PrintText() const {
    std::printf("clients:     %zu\n", clients);
    std::printf("requests:    %zu (%zu errors, %zu shed, %llu retries",
                latencies_us.size(), errors, shed,
                static_cast<unsigned long long>(retries));
    if (mismatches.has_value()) {
      std::printf(", %zu mismatches", *mismatches);
    }
    std::printf(")\nwall time:   %.1f ms\n", wall_ms);
    std::printf("throughput:  %.1f req/s\n", Throughput());
    const std::pair<const char*, double> kQuantiles[] = {
        {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"max", 1.0}};
    for (const auto& [name, p] : kQuantiles) {
      std::printf("latency %s: %llu us\n", name,
                  static_cast<unsigned long long>(Percentile(p)));
    }
  }
};

/// Runs `plan`; `during` runs on the calling thread while the clients do,
/// with the count of completed requests.
LoadReport DriveLoad(
    const LoadPlan& plan,
    const std::function<void(const std::atomic<std::size_t>&)>& during) {
  struct Tally {
    std::vector<std::uint64_t> latencies_us;
    std::size_t errors = 0;
    std::size_t shed = 0;
    std::uint64_t retries = 0;
  };
  std::vector<Tally> tallies(plan.clients);
  std::mutex canonical_mutex;
  std::map<std::string, std::string> canonical;  // request line -> payload
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> clients;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < plan.clients; c++) {
    clients.emplace_back([&, c] {
      Tally& tally = tallies[c];
      LineClient client;
      if (!client.Connect(plan.port).ok()) {
        tally.errors = plan.requests;
        return;
      }
      std::optional<RetryPolicy> policy = plan.retry;
      if (policy.has_value()) {
        policy->jitter_seed = c;
      }
      tally.latencies_us.reserve(plan.requests);
      for (std::size_t i = 0; i < plan.requests; i++) {
        std::string line = plan.line_for(c, i);
        auto sent = std::chrono::steady_clock::now();
        auto response = policy.has_value()
                            ? client.CallWithRetry(line, *policy)
                            : client.Call(line);
        tally.latencies_us.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - sent)
                .count()));
        completed.fetch_add(1, std::memory_order_relaxed);
        if (!response.ok()) {
          (plan.retries_shed_is_shed &&
                   response.status().code() == StatusCode::kUnavailable
               ? tally.shed
               : tally.errors)++;
          continue;
        }
        if (response.value().find("\"ok\":true") == std::string::npos) {
          (response.value().find("\"code\":\"Unavailable\"") !=
                   std::string::npos
               ? tally.shed
               : tally.errors)++;
          continue;
        }
        if (plan.compare_payloads) {
          std::string payload = ResponsePayload(response.value());
          std::lock_guard<std::mutex> lock(canonical_mutex);
          auto [it, first] = canonical.emplace(line, payload);
          if (!first && it->second != payload) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      tally.retries = client.retries();
    });
  }
  during(completed);
  for (std::thread& client : clients) {
    client.join();
  }
  LoadReport report;
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  report.clients = plan.clients;
  if (plan.compare_payloads) {
    report.mismatches = mismatches.load();
  }
  for (const Tally& tally : tallies) {
    report.latencies_us.insert(report.latencies_us.end(),
                               tally.latencies_us.begin(),
                               tally.latencies_us.end());
    report.errors += tally.errors;
    report.shed += tally.shed;
    report.retries += tally.retries;
  }
  std::sort(report.latencies_us.begin(), report.latencies_us.end());
  return report;
}

/// Asks the server (or router) on `port` to shut down.
void SendShutdown(std::uint16_t port) {
  LineClient stop;
  if (stop.Connect(port).ok()) {
    (void)stop.Call("{\"cmd\":\"shutdown\"}");
  }
}

/// bench-serve --workers N: self-hosts N workers plus a routing front and
/// drives the mixed workload through the router. --chaos-kill stops the
/// busiest worker once a third of the requests are done, restarts it with
/// an EMPTY registry at two thirds (so recovery genuinely depends on the
/// router's warm replay), and the exit code demands zero client-visible
/// errors and identical answers across replicas and the failover.
int CmdBenchServeCluster(int argc, char** argv) {
  std::size_t num_workers = 0;
  if (!UnsignedFlag(argc, argv, "--workers", &num_workers) ||
      num_workers == 0) {
    return Usage();
  }
  bool json = HasFlag(argc, argv, "--json");
  bool chaos_kill = HasFlag(argc, argv, "--chaos-kill");
  LoadPlan plan;
  plan.clients = 4 * num_workers;
  plan.requests = 100;
  int service_ms = 4;
  RouterOptions router_options;
  router_options.replication = std::min<std::size_t>(2, num_workers);
  router_options.pool_size = 2;
  if (!UnsignedFlag(argc, argv, "--clients", &plan.clients) ||
      !UnsignedFlag(argc, argv, "--requests", &plan.requests) ||
      !UnsignedFlag(argc, argv, "--service-ms", &service_ms) ||
      !UnsignedFlag(argc, argv, "--replication",
                    &router_options.replication) ||
      !UnsignedFlag(argc, argv, "--pool", &router_options.pool_size) ||
      plan.clients == 0 || plan.requests == 0) {
    return Usage();
  }

  // Workers: plain QueryServices behind the service-time wrapper.
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<BenchWorkerHandler>> handlers;
  std::vector<std::unique_ptr<Server>> workers;
  for (std::size_t i = 0; i < num_workers; i++) {
    services.push_back(std::make_unique<QueryService>());
    handlers.push_back(
        std::make_unique<BenchWorkerHandler>(services.back().get(),
                                             service_ms));
    workers.push_back(std::make_unique<Server>(handlers.back().get()));
    Status started = workers.back()->Start(0);
    if (!started.ok()) {
      return Fail(started);
    }
  }

  for (const auto& worker : workers) {
    router_options.worker_ports.push_back(worker->port());
  }
  // Fast failure detection so the kill window stays small relative to the
  // run: dead after 2 failed probes, 25 ms apart.
  router_options.probe_interval_ms = 25;
  router_options.suspect_threshold = 2;
  Router router(router_options);
  Status started_router = router.Start();
  if (!started_router.ok()) {
    return Fail(started_router);
  }
  Server front(&router);
  Status started_front = front.Start(0);
  if (!started_front.ok()) {
    return Fail(started_front);
  }
  plan.port = front.port();

  // The workload is sharded over several distinct graphs: consistent
  // hashing places each fingerprint on its own R owners, so a multi-shard
  // workload spreads across the whole fleet (a single graph would pin all
  // traffic on one primary, and a cluster scales by sharding).
  const std::size_t num_graphs = std::max<std::size_t>(8, 4 * num_workers);
  {
    LineClient setup;
    Status connected = setup.Connect(plan.port);
    if (!connected.ok()) {
      return Fail(connected);
    }
    for (std::size_t g = 0; g < num_graphs; g++) {
      RandomGraphOptions graph_options;
      graph_options.num_nodes = 10;
      graph_options.num_labels = 2;
      graph_options.num_data_values = 4;
      graph_options.edge_percent = 20;
      graph_options.seed = 100 + g;  // distinct content => distinct shard
      JsonValue::Object load;
      load.emplace_back("cmd", "load");
      load.emplace_back("name", "bench" + std::to_string(g));
      load.emplace_back("text",
                        WriteGraphText(RandomDataGraph(graph_options)));
      auto response = setup.Call(JsonValue(std::move(load)).Serialize());
      if (!response.ok()) {
        return Fail(response.status());
      }
      if (response.value().find("\"ok\":true") == std::string::npos) {
        std::fprintf(stderr, "error: cluster load failed: %s\n",
                     response.value().c_str());
        return 1;
      }
    }
  }

  plan.retry.emplace();
  plan.retry->max_attempts = 8;
  plan.line_for = [num_graphs](std::size_t c, std::size_t i) {
    return BenchEvalLine("bench" + std::to_string((c + i) % num_graphs),
                         kBenchQueries[i % kNumBenchQueries]);
  };
  plan.compare_payloads = true;
  plan.retries_shed_is_shed = true;

  // Chaos choreography, run from the main thread against request
  // progress: kill the busiest worker at 1/3, restart it (empty registry)
  // at 2/3, then let the router's probe → rejoin → warm replay path bring
  // it back into rotation before the run ends.
  std::size_t killed_index = 0;
  bool killed = false;
  bool restarted = false;
  LoadReport report =
      DriveLoad(plan, [&](const std::atomic<std::size_t>& completed) {
        if (!chaos_kill) {
          return;
        }
        const std::size_t total_requests = plan.clients * plan.requests;
        auto wait_progress = [&](std::size_t target) {
          while (completed.load(std::memory_order_relaxed) < target) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        };
        wait_progress(total_requests / 3);
        Router::Snapshot snap = router.GetSnapshot();
        for (std::size_t i = 1; i < num_workers; i++) {
          if (snap.worker_requests[i] > snap.worker_requests[killed_index]) {
            killed_index = i;
          }
        }
        std::uint16_t killed_port = workers[killed_index]->port();
        workers[killed_index]->Stop();
        workers[killed_index]->Wait();
        killed = true;
        wait_progress(2 * total_requests / 3);
        // Fresh service: the restarted worker remembers nothing; only the
        // router's warm replay can make it serve its shards again.
        services[killed_index] = std::make_unique<QueryService>();
        handlers[killed_index]->Reset(services[killed_index].get());
        workers[killed_index] =
            std::make_unique<Server>(handlers[killed_index].get());
        Status restart = workers[killed_index]->Start(killed_port);
        restarted = restart.ok();
        if (!restarted) {
          std::fprintf(stderr, "warning: worker restart failed: %s\n",
                       restart.ToString().c_str());
        }
      });

  // In a chaos run, give the rejoin path a moment to complete so the
  // reported fleet state reflects recovery, not the middle of it.
  if (chaos_kill && restarted) {
    for (int i = 0; i < 200; i++) {
      if (router.worker_state(killed_index) == WorkerState::kHealthy) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  Router::Snapshot snap = router.GetSnapshot();

  // Shut the fleet down through the router (it broadcasts to workers).
  SendShutdown(plan.port);
  front.Wait();
  for (auto& worker : workers) {
    worker->Stop();
    worker->Wait();
  }

  std::size_t healthy_workers = 0;
  for (const WorkerState state : snap.worker_states) {
    if (state == WorkerState::kHealthy) {
      healthy_workers++;
    }
  }
  if (json) {
    std::string worker_requests;
    for (std::size_t i = 0; i < snap.worker_requests.size(); i++) {
      if (i > 0) {
        worker_requests += ",";
      }
      worker_requests += std::to_string(snap.worker_requests[i]);
    }
    std::printf(
        "{\"workers\":%zu,%s,"
        "\"cluster\":{\"failovers\":%llu,\"sheds_returned\":%llu,"
        "\"all_down_returned\":%llu,\"warm_replays\":%llu,"
        "\"warm_lines\":%llu,\"healthy_workers\":%zu,"
        "\"killed_worker\":%d,\"worker_requests\":[%s]}}\n",
        num_workers, report.JsonFields().c_str(),
        static_cast<unsigned long long>(snap.failovers),
        static_cast<unsigned long long>(snap.sheds_returned),
        static_cast<unsigned long long>(snap.all_down_returned),
        static_cast<unsigned long long>(snap.warm_replays),
        static_cast<unsigned long long>(snap.warm_lines), healthy_workers,
        killed ? static_cast<int>(killed_index) : -1,
        worker_requests.c_str());
  } else {
    std::printf("workers:     %zu (replication %zu, pool %zu)\n", num_workers,
                std::min(router_options.replication, num_workers),
                router_options.pool_size);
    report.PrintText();
    std::printf("cluster:     %llu failovers, %llu warm replays "
                "(%llu lines), %zu/%zu workers healthy\n",
                static_cast<unsigned long long>(snap.failovers),
                static_cast<unsigned long long>(snap.warm_replays),
                static_cast<unsigned long long>(snap.warm_lines),
                healthy_workers, num_workers);
    if (killed) {
      std::printf("chaos:       killed and restarted worker %zu\n",
                  killed_index);
    }
  }
  return report.Clean() ? 0 : 1;
}

int CmdBenchServe(int argc, char** argv) {
  if (FlagValue(argc, argv, "--workers") != nullptr) {
    return CmdBenchServeCluster(argc, argv);
  }
  bool json = HasFlag(argc, argv, "--json");
  LoadPlan plan;
  plan.clients = 4;
  plan.requests = 200;
  ServiceOptions service_options;
  if (!UnsignedFlag(argc, argv, "--clients", &plan.clients) ||
      !UnsignedFlag(argc, argv, "--requests", &plan.requests) ||
      !UnsignedFlag(argc, argv, "--port", &plan.port) ||
      !UnsignedFlag(argc, argv, "--max-concurrent",
                    &service_options.admission.max_concurrent) ||
      !UnsignedFlag(argc, argv, "--max-queue",
                    &service_options.admission.max_queue) ||
      plan.clients == 0 || plan.requests == 0) {
    return Usage();
  }
  // Overload mode: --max-concurrent/--max-queue configure the self-hosted
  // server's admission gate; --retry makes clients use CallWithRetry so
  // shed requests back off and complete instead of counting as shed.
  if (HasFlag(argc, argv, "--retry")) {
    plan.retry.emplace();
  }

  // Self-host unless pointed at a running server.
  const bool self_hosted = FlagValue(argc, argv, "--port") == nullptr;
  QueryService service{service_options};
  Server server(&service);
  if (self_hosted) {
    Status started = server.Start(0);
    if (!started.ok()) {
      return Fail(started);
    }
    plan.port = server.port();
  }

  // Load the paper's Figure-1 graph and query it in all three languages.
  {
    LineClient setup;
    Status connected = setup.Connect(plan.port);
    if (!connected.ok()) {
      return Fail(connected);
    }
    JsonValue::Object load;
    load.emplace_back("cmd", "load");
    load.emplace_back("name", "bench");
    load.emplace_back("text", WriteGraphText(Figure1Graph()));
    auto response = setup.Call(JsonValue(std::move(load)).Serialize());
    if (!response.ok()) {
      return Fail(response.status());
    }
  }
  plan.line_for = [](std::size_t c, std::size_t i) {
    return BenchEvalLine("bench", kBenchQueries[(c + i) % kNumBenchQueries]);
  };
  LoadReport report = DriveLoad(plan, [](const std::atomic<std::size_t>&) {});

  if (self_hosted) {
    SendShutdown(plan.port);
    server.Wait();
  }
  if (json) {
    std::printf("{%s}\n", report.JsonFields().c_str());
  } else {
    report.PrintText();
  }
  return report.Clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  if (command == "eval") {
    return CmdEval(argc - 2, argv + 2);
  }
  if (command == "check") {
    return CmdCheck(argc - 2, argv + 2);
  }
  if (command == "synth") {
    return CmdSynth(argc - 2, argv + 2);
  }
  if (command == "convert") {
    return CmdConvert(argc - 2, argv + 2);
  }
  if (command == "gen") {
    return CmdGen(argc - 2, argv + 2);
  }
  if (command == "compile") {
    return CmdCompile(argc - 2, argv + 2);
  }
  if (command == "lint") {
    return CmdLint(argc - 2, argv + 2);
  }
  if (command == "info") {
    return CmdInfo(argc - 2, argv + 2);
  }
  if (command == "serve") {
    return CmdServe(argc - 2, argv + 2);
  }
  if (command == "route") {
    return CmdRoute(argc - 2, argv + 2);
  }
  if (command == "bench-serve") {
    return CmdBenchServe(argc - 2, argv + 2);
  }
  return Usage();
}
