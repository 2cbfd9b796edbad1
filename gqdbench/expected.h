// The committed expected-answers file and the one-time generator that
// writes it.
//
// One file per instance pool (data/expected_<pool>.tsv). Each line is
//
//   <instance id> \t <input hash> \t <answer>
//
// where the answer is a verdict ("definable", "not definable", "budget
// exhausted") for a check instance, or "count=<n> hash=<fnv64 hex>" of the
// rendered result relation for an eval query. The input hash pins the
// generated input, so a generator that drifts is caught before any timing.
//
// The generator (gqdbench --generate-expected <pool>) decides every check
// with the reference engines (KRemEngine::kReference, ReeEngine::kReference),
// cross-checks the verdict against the default engines, and re-evaluates
// every positive verdict's synthesized witness through src/eval/. Eval
// answers come from the expression evaluators (EvaluateRpq / EvaluateRem /
// EvaluateRee), a different path from the service's plan-pruned automaton.

#ifndef GQDBENCH_EXPECTED_H_
#define GQDBENCH_EXPECTED_H_

#include <cstdint>
#include <map>
#include <string>

namespace gqdbench {

struct ExpectedEntry {
  std::string input_hash;
  std::string answer;
};

class ExpectedAnswers {
 public:
  /// Reads `path`; returns false and sets *error when unreadable or
  /// malformed.
  bool Load(const std::string& path, std::string* error);

  /// The answer for `id` after checking its input hash; sets *error and
  /// returns "" when the id is missing or the hash differs.
  std::string AnswerFor(const std::string& id, std::uint64_t input_hash,
                        std::string* error) const;

 private:
  std::map<std::string, ExpectedEntry> entries_;
};

std::string ExpectedPath(const std::string& data_dir, const std::string& pool);

/// Eval answer text for a result relation rendered as `relation_text`.
std::string EvalAnswer(std::uint64_t count, const std::string& relation_text);

/// Generates the expected answers of `pool` into `path`. Returns a process
/// exit code; any cross-check disagreement is fatal.
int GenerateExpected(const std::string& pool, const std::string& path);

}  // namespace gqdbench

#endif  // GQDBENCH_EXPECTED_H_
