// Per-graph check setups shared by every served check of one graph.
//
// Two structures the definability checkers build depend on the graph only,
// never on the relation S: the k-assignment graph T_G of Definition 19 with
// its kernel dispatch table (KRemSetup, keyed by k; rpq uses k = 0), and
// the REE level monoid M_∞ of Definition 27 (ReeMonoid, one per graph —
// Lemma 30 consults S only in the final cover test, which converts S to
// the monoid's representation whatever its backend). A
// CheckSetups hangs off each GraphRegistry entry and is filled lazily by
// RunCheck (runtime/command.h): setups are built outside the lock by the
// request that missed, and the first insert for a key wins.
//
// Lifetime is the graph's: identical content registered under two names
// shares one CheckSetups (the registry dedupes by fingerprint), and
// re-registering a name with different content gives it a fresh, empty
// one. There is no eviction and no knob; docs/runtime.md ("Check setup
// reuse") states when a held setup is used, bypassed or rebuilt.

#ifndef GQD_RUNTIME_CHECK_SETUPS_H_
#define GQD_RUNTIME_CHECK_SETUPS_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <variant>

#include "definability/krem_definability.h"
#include "definability/ree_definability.h"

namespace gqd {

/// Thread-safe, insert-once slots of immutable setups under one key type.
template <typename Key, typename Setup>
class SetupSlots {
 public:
  std::shared_ptr<const Setup> Find(const Key& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    return it == slots_.end() ? nullptr : it->second;
  }

  /// Keeps `setup` under `key` unless a setup is already held there (the
  /// first insert wins). Returns the setup held afterwards.
  std::shared_ptr<const Setup> Add(const Key& key,
                                   std::shared_ptr<const Setup> setup) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = slots_.emplace(key, std::move(setup));
    if (inserted) {
      held_bytes_ += it->second->HeldBytes();
    }
    return it->second;
  }

  std::size_t held_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return held_bytes_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const Setup>> slots_;
  std::size_t held_bytes_ = 0;
};

/// The setups held for one registered graph.
struct CheckSetups {
  SetupSlots<std::size_t, KRemSetup> krem;  ///< by k
  SetupSlots<std::monostate, ReeMonoid> ree;  ///< the graph's one M_∞

  std::size_t held_bytes() const {
    return krem.held_bytes() + ree.held_bytes();
  }
};

}  // namespace gqd

#endif  // GQD_RUNTIME_CHECK_SETUPS_H_
