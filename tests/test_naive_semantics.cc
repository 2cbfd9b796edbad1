// Cross-validation of the register-automaton compilation against the
// literal Definition-5 semantics: for a battery of REMs and every data
// path over small alphabets, the two implementations must agree.

#include <gtest/gtest.h>

#include "graph/data_path.h"
#include "oracles/naive_semantics.h"
#include "rem/parser.h"
#include "rem/register_automaton.h"

namespace gqd {
namespace {

StringInterner AbLabels() {
  StringInterner labels;
  labels.Intern("a");
  labels.Intern("b");
  return labels;
}

/// All data paths with `letters` letters over values {0..max_value} and
/// the a/b alphabet.
std::vector<DataPath> AllPaths(std::size_t letters, ValueId max_value) {
  std::vector<DataPath> out;
  std::vector<DataPath> frontier;
  for (ValueId d = 0; d <= max_value; d++) {
    frontier.push_back(DataPath::Unit(d));
  }
  out = frontier;
  for (std::size_t step = 0; step < letters; step++) {
    std::vector<DataPath> next;
    for (const DataPath& p : frontier) {
      for (LabelId l = 0; l < 2; l++) {
        for (ValueId d = 0; d <= max_value; d++) {
          DataPath extended = p;
          extended.Append(l, d);
          next.push_back(extended);
        }
      }
    }
    out.insert(out.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  return out;
}

class NaiveSemanticsAgreement
    : public ::testing::TestWithParam<const char*> {};

TEST_P(NaiveSemanticsAgreement, MatchesRegisterAutomaton) {
  StringInterner labels = AbLabels();
  RemPtr e = ParseRem(GetParam()).ValueOrDie();
  for (const DataPath& w : AllPaths(3, 2)) {
    EXPECT_EQ(NaiveRemMatches(e, w, labels), RemMatches(e, w, &labels))
        << GetParam() << " on path with " << w.letters.size() << " letters";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, NaiveSemanticsAgreement,
    ::testing::Values(
        "eps",                              // unit
        "a",                                // single letter
        "a b",                              // concatenation
        "a | b",                            // union
        "a+",                               // iteration
        "$r1. a[r1=]",                      // Example 6, first
        "$r1. a[r1!=]",                     // inequality
        "$r1. a b[r1=]",                    // register across concat
        "($r1. a[r1=])+",                   // bind under iteration
        "$r1. (a | b)[r1=]",                // bind over union
        "$(r1,r2). a[r1= & r2=]",           // multi-register bind
        "$r1. a ($r2. b[r1!=])[r2=]",       // nested binds
        "a[r1!=]",                          // unbound register (⊥ ≠ d)
        "a[~T]",                            // unsatisfiable condition
        "($r1. a)+ b[r1=]",                 // last-iteration binding wins
        "$r1. a+ [r1=]"));                  // the movieLink pattern

TEST(NaiveSemantics, RebindingInsideplusUsesLatestValue) {
  // ($r1. a)+ b[r1=]: each iteration of the plus rebinds r1 to its own
  // first value, so the b-step must repeat the value at the start of the
  // LAST a-step.
  StringInterner labels = AbLabels();
  RemPtr e = ParseRem("($r1. a)+ b[r1=]").ValueOrDie();
  LabelId a = *labels.Find("a");
  LabelId b = *labels.Find("b");
  // 0 a 1 a 2 b 1 : last a-step starts at value 1 -> b target must be 1. ✓
  DataPath good{{0, 1, 2, 1}, {a, a, b}};
  // 0 a 1 a 2 b 0 : 0 was the FIRST iteration's binding — stale. ✗
  DataPath stale{{0, 1, 2, 0}, {a, a, b}};
  EXPECT_TRUE(NaiveRemMatches(e, good, labels));
  EXPECT_TRUE(RemMatches(e, good, &labels));
  EXPECT_FALSE(NaiveRemMatches(e, stale, labels));
  EXPECT_FALSE(RemMatches(e, stale, &labels));
}

}  // namespace
}  // namespace gqd
