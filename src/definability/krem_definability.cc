#include "definability/krem_definability.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/plan/kernel_dispatch.h"
#include "analysis/plan/plan_metrics.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace gqd {

namespace {

GQD_FAILPOINT_DEFINE(fp_krem_arena_grow, "krem.arena.grow");

// The BFS works on macro tuples ⟨Q_1, ..., Q_n⟩ stored as flat word arrays:
// n consecutive packed state sets of `set_words` words each. Flat storage
// keeps every interned tuple in one contiguous allocation (cache-friendly
// hashing/equality) and lets the interner probe by stored hash + index
// instead of keeping a second copy of the words as a map key.

inline void OrWords(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t count) {
  for (std::size_t i = 0; i < count; i++) {
    dst[i] |= src[i];
  }
}

std::uint64_t HashTupleWords(const std::uint64_t* words, std::size_t count) {
  std::size_t seed = count;
  for (std::size_t i = 0; i < count; i++) {
    seed = HashCombine(seed,
                       static_cast<std::size_t>(words[i] *
                                                0xff51afd7ed558ccdULL));
  }
  return seed;
}

/// Flat macro-tuple store with an open-addressed interner. Tuple `t`'s
/// words live at [t·tuple_words, (t+1)·tuple_words); the probe table holds
/// only (hash, index) — the words are never duplicated into a key.
class TupleStore {
 public:
  TupleStore(std::size_t tuple_words, const ResourceBudget* budget)
      : tuple_words_(tuple_words), slots_(64, 0), budget_(budget) {
    if (budget_ != nullptr) {
      budget_->ChargeBytes(
          static_cast<std::int64_t>(slots_.size() * sizeof(std::size_t)));
    }
  }

  std::size_t size() const { return count_; }

  /// True once an injected fault (failpoint krem.arena.grow) hit a growth
  /// path; the BFS surfaces it at the next frontier boundary. The store
  /// itself stays consistent — the probe table just stops growing.
  bool fault() const { return fault_; }

  const std::uint64_t* TupleAt(std::size_t index) const {
    return words_.data() + index * tuple_words_;
  }

  /// Returns the index of the tuple equal to `words`, interning a copy
  /// first when absent (*inserted reports which).
  std::size_t Intern(const std::uint64_t* words, std::uint64_t hash,
                     bool* inserted) {
    std::size_t mask = slots_.size() - 1;
    std::size_t pos = static_cast<std::size_t>(hash) & mask;
    while (slots_[pos] != 0) {
      std::size_t index = slots_[pos] - 1;
      if (hashes_[index] == hash &&
          std::memcmp(TupleAt(index), words,
                      tuple_words_ * sizeof(std::uint64_t)) == 0) {
        *inserted = false;
        return index;
      }
      pos = (pos + 1) & mask;
    }
    std::size_t index = count_++;
    words_.insert(words_.end(), words, words + tuple_words_);
    hashes_.push_back(hash);
    slots_[pos] = index + 1;
    if (budget_ != nullptr) {
      budget_->ChargeBytes(static_cast<std::int64_t>(
          (tuple_words_ + 1) * sizeof(std::uint64_t)));
      budget_->ChargeTuples(1);
    }
    if ((count_ + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    *inserted = true;
    return index;
  }

 private:
  void Grow() {
    if (GQD_FAILPOINT_FIRED(fp_krem_arena_grow)) {
      fault_ = true;
      return;
    }
    std::vector<std::size_t> bigger(slots_.size() * 2, 0);
    if (budget_ != nullptr) {
      budget_->ChargeBytes(static_cast<std::int64_t>(
          (bigger.size() - slots_.size()) * sizeof(std::size_t)));
    }
    std::size_t mask = bigger.size() - 1;
    for (std::size_t index = 0; index < count_; index++) {
      std::size_t pos = static_cast<std::size_t>(hashes_[index]) & mask;
      while (bigger[pos] != 0) {
        pos = (pos + 1) & mask;
      }
      bigger[pos] = index + 1;
    }
    slots_.swap(bigger);
  }

  std::size_t tuple_words_;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> hashes_;
  std::vector<std::size_t> slots_;  ///< index+1, 0 = empty; pow-2 size
  std::size_t count_ = 0;
  const ResourceBudget* budget_;
  bool fault_ = false;
};

/// One candidate successor tuple of the current head under one block label:
/// the condition (minterm subset), the tuple's hash, and its words' offset
/// into the owning scratch arena.
struct Candidate {
  MintermMask condition;
  std::uint64_t hash;
  std::size_t offset;
};

/// Reusable per-(store set, letter) workspace. One instance per worker
/// slot; nothing inside the per-head loops allocates once these warm up.
struct BlockScratch {
  std::vector<std::uint64_t> parts;    ///< n × patterns × set_words
  std::vector<std::uint64_t> stack;    ///< DFS save buffers, one per depth
  std::vector<std::uint64_t> current;  ///< running union, tuple_words
  std::vector<std::uint8_t> achieved;  ///< patterns achieved by any part
  std::vector<Candidate> candidates;   ///< emitted in canonical order
  std::vector<std::uint64_t> arena;    ///< candidate tuple words
  std::uint8_t included[16];           ///< reference-engine DFS include path
  std::size_t included_count = 0;
  bool expired = false;
  std::uint32_t ticks = 0;
  /// Planned engine only: the word window [begin, end) pattern p's parts
  /// can occupy (from its TransitionPlan), so the subset-DFS save/OR/
  /// restore touches only words that can change.
  std::uint32_t span_begin[16] = {};
  std::uint32_t span_end[16] = {};
  /// Planned engine only: specialized inner-loop executions by class,
  /// accumulated per search and flushed once (RecordPlanKernelHits).
  std::uint64_t class_hits[kNumKernelClasses] = {};
};

/// Successor generation for one (store set, letter) block of one head
/// tuple. Pure function of the head tuple — interning state is never read —
/// so blocks can fan out across workers and merge back deterministically.
class SuccessorGenerator {
 public:
  /// Downgrade chain: planned needs an enabled dispatch table, kernel needs
  /// the assignment graph's packed rows; anything else runs the reference
  /// shape. All three compute identical successor bits.
  static KRemEngine Resolve(KRemEngine requested, const AssignmentGraph& ag,
                            const KernelDispatchTable* table) {
    if (requested == KRemEngine::kPlanned && table != nullptr &&
        table->enabled()) {
      return KRemEngine::kPlanned;
    }
    if (requested != KRemEngine::kReference && ag.has_kernel()) {
      return KRemEngine::kKernel;
    }
    return KRemEngine::kReference;
  }

  SuccessorGenerator(const AssignmentGraph& ag, std::size_t n,
                     KRemEngine engine, const KernelDispatchTable* table,
                     const CancelToken* cancel)
      : ag_(ag),
        table_(table),
        n_(n),
        num_patterns_(ag.num_patterns()),
        set_words_((ag.num_states() + 63) / 64),
        tuple_words_(n * set_words_),
        engine_(Resolve(engine, ag, table)),
        cancel_(cancel) {}

  std::size_t set_words() const { return set_words_; }
  std::size_t tuple_words() const { return tuple_words_; }

  void InitScratch(BlockScratch* s) const {
    s->parts.assign(n_ * num_patterns_ * set_words_, 0);
    s->stack.assign(num_patterns_ * tuple_words_, 0);
    s->current.assign(tuple_words_, 0);
    s->achieved.reserve(num_patterns_);
    s->candidates.reserve(16);
  }

  /// Emits, into `s`, every (condition, successor tuple) of `tuple` under
  /// (store_mask, label), in the canonical subset-DFS order shared by both
  /// engines. Sets s->expired (and stops early) if the token expires.
  void Generate(const std::uint64_t* tuple, std::uint32_t store_mask,
                LabelId label, BlockScratch* s) const {
    s->candidates.clear();
    s->arena.clear();
    s->achieved.clear();
    s->expired = false;
    std::fill(s->parts.begin(), s->parts.end(), 0);
    std::uint32_t achieved_mask;
    switch (engine_) {
      case KRemEngine::kPlanned:
        achieved_mask = FillPartsPlanned(tuple, store_mask, label, s);
        break;
      case KRemEngine::kKernel:
        achieved_mask = FillPartsKernel(tuple, store_mask, label, s);
        break;
      default:
        achieved_mask = FillPartsReference(tuple, store_mask, label, s);
        break;
    }
    if (s->expired || achieved_mask == 0) {
      return;
    }
    for (std::uint32_t p = 0; p < num_patterns_; p++) {
      if (achieved_mask & (1u << p)) {
        s->achieved.push_back(static_cast<std::uint8_t>(p));
        if (engine_ == KRemEngine::kPlanned) {
          const TransitionPlan& plan = table_->PlanFor(store_mask, label, p);
          s->span_begin[p] = plan.tgt_begin_word;
          s->span_end[p] = plan.tgt_end_word;
        }
      }
    }
    std::fill(s->current.begin(), s->current.end(), 0);
    s->included_count = 0;
    EnumerateSubsets(0, 0, s);
  }

 private:
  /// Specialized per-transition kernels: one TransitionPlan per pattern
  /// picks the inner loop, and every loop scans only Q ∧ source-mask over
  /// the plan's source word span. Produces bit-identical parts and achieved
  /// mask to the other engines — p is achieved iff some state of some Q_i
  /// has a pattern-p edge, i.e. iff Q_i intersects the source mask.
  std::uint32_t FillPartsPlanned(const std::uint64_t* tuple,
                                 std::uint32_t store_mask, LabelId label,
                                 BlockScratch* s) const {
    std::uint32_t achieved_mask = 0;
    for (std::uint32_t p = 0; p < num_patterns_; p++) {
      const TransitionPlan& plan = table_->PlanFor(store_mask, label, p);
      if (plan.cls == TransitionKernelClass::kNoOp) {
        continue;
      }
      const std::uint64_t* src_mask = table_->SourceMask(plan);
      bool hit = false;
      for (std::size_t i = 0; i < n_; i++) {
        if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
          s->expired = true;
          return achieved_mask;
        }
        const std::uint64_t* q = tuple + i * set_words_;
        std::uint64_t* part =
            s->parts.data() + (i * num_patterns_ + p) * set_words_;
        switch (plan.cls) {
          case TransitionKernelClass::kIdentity:
            // The source mask is the transition image: part |= Q ∧ mask.
            for (std::uint32_t w = plan.src_begin_word; w < plan.src_end_word;
                 w++) {
              std::uint64_t live = q[w] & src_mask[w];
              part[w] |= live;
              hit = hit || live != 0;
            }
            break;
          case TransitionKernelClass::kSingleBit: {
            const std::uint32_t* targets = table_->SingleTargets(plan);
            for (std::uint32_t w = plan.src_begin_word; w < plan.src_end_word;
                 w++) {
              std::uint64_t bits = q[w] & src_mask[w];
              hit = hit || bits != 0;
              while (bits != 0) {
                std::size_t state =
                    (static_cast<std::size_t>(w) << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(bits));
                bits &= bits - 1;
                std::uint32_t t = targets[state];
                part[t >> 6] |= std::uint64_t{1} << (t & 63);
              }
            }
            break;
          }
          case TransitionKernelClass::kSparse: {
            const std::uint32_t* offsets = table_->CsrOffsets(plan);
            const std::uint32_t* tgts = table_->CsrTargets();
            for (std::uint32_t w = plan.src_begin_word; w < plan.src_end_word;
                 w++) {
              std::uint64_t bits = q[w] & src_mask[w];
              hit = hit || bits != 0;
              while (bits != 0) {
                std::size_t state =
                    (static_cast<std::size_t>(w) << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(bits));
                bits &= bits - 1;
                for (std::uint32_t at = offsets[state];
                     at < offsets[state + 1]; at++) {
                  std::uint32_t t = tgts[at];
                  part[t >> 6] |= std::uint64_t{1} << (t & 63);
                }
              }
            }
            break;
          }
          default: {  // kDense: packed kernel rows over the target span
            std::size_t span = plan.tgt_end_word - plan.tgt_begin_word;
            for (std::uint32_t w = plan.src_begin_word; w < plan.src_end_word;
                 w++) {
              std::uint64_t bits = q[w] & src_mask[w];
              hit = hit || bits != 0;
              while (bits != 0) {
                AgState state = static_cast<AgState>(
                    (static_cast<std::size_t>(w) << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(bits)));
                bits &= bits - 1;
                OrWords(part + plan.tgt_begin_word,
                        ag_.KernelRow(store_mask, label, p, state) +
                            plan.tgt_begin_word,
                        span);
              }
            }
            break;
          }
        }
      }
      if (hit) {
        achieved_mask |= 1u << p;
        s->class_hits[static_cast<std::size_t>(plan.cls)]++;
      }
    }
    return achieved_mask;
  }

  /// Word-parallel kernel: for each source state of each Q_i, OR the
  /// pre-packed 64-states-at-a-time successor rows into the pattern parts.
  std::uint32_t FillPartsKernel(const std::uint64_t* tuple,
                                std::uint32_t store_mask, LabelId label,
                                BlockScratch* s) const {
    assert(ag_.kernel_row_words() == set_words_);
    std::uint32_t achieved_mask = 0;
    for (std::size_t i = 0; i < n_; i++) {
      const std::uint64_t* q = tuple + i * set_words_;
      std::uint64_t* parts_i = s->parts.data() + i * num_patterns_ * set_words_;
      for (std::size_t w = 0; w < set_words_; w++) {
        std::uint64_t bits = q[w];
        while (bits != 0) {
          AgState state = static_cast<AgState>(
              (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits)));
          bits &= bits - 1;
          if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
            s->expired = true;
            return achieved_mask;
          }
          std::uint32_t pats = ag_.AchievedPatternsAt(store_mask, label, state);
          achieved_mask |= pats;
          while (pats != 0) {
            std::uint32_t p =
                static_cast<std::uint32_t>(__builtin_ctz(pats));
            pats &= pats - 1;
            OrWords(parts_i + p * set_words_,
                    ag_.KernelRow(store_mask, label, p, state), set_words_);
          }
        }
      }
    }
    return achieved_mask;
  }

  /// Reference shape: walk the successor lists one edge at a time.
  std::uint32_t FillPartsReference(const std::uint64_t* tuple,
                                   std::uint32_t store_mask, LabelId label,
                                   BlockScratch* s) const {
    std::uint32_t achieved_mask = 0;
    for (std::size_t i = 0; i < n_; i++) {
      const std::uint64_t* q = tuple + i * set_words_;
      std::uint64_t* parts_i = s->parts.data() + i * num_patterns_ * set_words_;
      for (std::size_t w = 0; w < set_words_; w++) {
        std::uint64_t bits = q[w];
        while (bits != 0) {
          AgState state = static_cast<AgState>(
              (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits)));
          bits &= bits - 1;
          if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
            s->expired = true;
            return achieved_mask;
          }
          for (const auto& successor :
               ag_.SuccessorsOf(store_mask, label, state)) {
            parts_i[successor.pattern * set_words_ +
                    (successor.state >> 6)] |=
                std::uint64_t{1} << (successor.state & 63);
            achieved_mask |= 1u << successor.pattern;
          }
        }
      }
    }
    return achieved_mask;
  }

  /// Enumerates the non-empty subsets of s->achieved in exclude-first DFS
  /// order — the canonical order both engines share. The kernel engine
  /// maintains the running union incrementally: entering the include branch
  /// costs one OR pass from the parent subset, and the parent's value is
  /// saved to a per-depth buffer and rolled back afterwards (the Gray-code
  /// style walk of the subset lattice; no allocation, no recompute). The
  /// reference engine rebuilds each leaf's union from its included parts.
  void EnumerateSubsets(std::size_t depth, MintermMask condition,
                        BlockScratch* s) const {
    if (s->expired) {
      return;
    }
    if (depth == s->achieved.size()) {
      if (condition != 0) {
        Emit(condition, s);
      }
      return;
    }
    EnumerateSubsets(depth + 1, condition, s);  // exclude achieved[depth]
    std::uint8_t pattern = s->achieved[depth];
    if (engine_ == KRemEngine::kPlanned) {
      // Same incremental union as the kernel branch, but the save/OR/
      // restore is clipped to the word window pattern's parts can occupy
      // (the plan's target span): words outside it never change, so
      // restoring only the window restores the whole union.
      std::uint32_t begin = s->span_begin[pattern];
      std::size_t span = s->span_end[pattern] - begin;
      std::uint64_t* save = s->stack.data() + depth * tuple_words_;
      for (std::size_t i = 0; i < n_; i++) {
        std::memcpy(save + i * set_words_ + begin,
                    s->current.data() + i * set_words_ + begin,
                    span * sizeof(std::uint64_t));
        OrWords(s->current.data() + i * set_words_ + begin,
                s->parts.data() +
                    (i * num_patterns_ + pattern) * set_words_ + begin,
                span);
      }
      EnumerateSubsets(depth + 1,
                       condition | (MintermMask{1} << pattern), s);
      for (std::size_t i = 0; i < n_; i++) {
        std::memcpy(s->current.data() + i * set_words_ + begin,
                    save + i * set_words_ + begin,
                    span * sizeof(std::uint64_t));
      }
    } else if (engine_ == KRemEngine::kKernel) {
      std::uint64_t* save = s->stack.data() + depth * tuple_words_;
      std::memcpy(save, s->current.data(),
                  tuple_words_ * sizeof(std::uint64_t));
      for (std::size_t i = 0; i < n_; i++) {
        OrWords(s->current.data() + i * set_words_,
                s->parts.data() + (i * num_patterns_ + pattern) * set_words_,
                set_words_);
      }
      EnumerateSubsets(depth + 1,
                       condition | (MintermMask{1} << pattern), s);
      std::memcpy(s->current.data(), save,
                  tuple_words_ * sizeof(std::uint64_t));
    } else {
      s->included[s->included_count++] = pattern;
      EnumerateSubsets(depth + 1,
                       condition | (MintermMask{1} << pattern), s);
      s->included_count--;
    }
  }

  void Emit(MintermMask condition, BlockScratch* s) const {
    if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
      s->expired = true;
      return;
    }
    if (engine_ == KRemEngine::kReference) {
      // From-scratch union of the included pattern parts.
      std::fill(s->current.begin(), s->current.end(), 0);
      for (std::size_t j = 0; j < s->included_count; j++) {
        std::uint8_t pattern = s->included[j];
        for (std::size_t i = 0; i < n_; i++) {
          OrWords(s->current.data() + i * set_words_,
                  s->parts.data() +
                      (i * num_patterns_ + pattern) * set_words_,
                  set_words_);
        }
      }
    }
    std::size_t offset = s->arena.size();
    s->arena.insert(s->arena.end(), s->current.begin(), s->current.end());
    s->candidates.push_back(Candidate{
        condition, HashTupleWords(s->current.data(), tuple_words_), offset});
  }

  const AssignmentGraph& ag_;
  const KernelDispatchTable* table_;
  std::size_t n_;
  std::size_t num_patterns_;
  std::size_t set_words_;
  std::size_t tuple_words_;
  KRemEngine engine_;
  const CancelToken* cancel_;
};

// --- Sparse frontier tuple store -------------------------------------------
//
// At k = 0 a dense macro tuple is n·⌈n/64⌉ words — 125 GB at a million
// nodes, and the projection scratch used for acceptance is just as large.
// The sparse store instead keeps each tuple as a sorted list of packed
// (node index, state) entries: memory proportional to the states actually
// live in the frontier. Interning is semantic (two tuples are equal iff
// their entry *sets* are), the subset DFS runs in the same exclude-first
// canonical order, and acceptance probes the pair map directly — so
// verdicts, witnesses and tuples_explored are bit-identical to the dense
// store on any input both can afford.

/// Packs frontier entry (i, state): sorting these u64s sorts by node index
/// first, then state — exactly the row-major order of the dense bitset.
inline std::uint64_t PackEntry(std::size_t i, AgState state) {
  return (static_cast<std::uint64_t>(i) << 32) | state;
}

/// Flat arena of sorted entry lists with an open-addressed semantic
/// interner — the sparse analogue of TupleStore. Shares the
/// krem.arena.grow failpoint so chaos scenarios cover both stores.
class SparseTupleStore {
 public:
  explicit SparseTupleStore(const ResourceBudget* budget)
      : slots_(64, 0), budget_(budget) {
    if (budget_ != nullptr) {
      budget_->ChargeBytes(
          static_cast<std::int64_t>(slots_.size() * sizeof(std::size_t)));
    }
  }

  std::size_t size() const { return count_; }
  bool fault() const { return fault_; }

  const std::uint64_t* EntriesAt(std::size_t index) const {
    return entries_.data() + offsets_[index];
  }
  std::size_t CountAt(std::size_t index) const {
    return offsets_[index + 1] - offsets_[index];
  }

  /// Returns the index of the tuple equal to `entries`, interning a copy
  /// first when absent (*inserted reports which). Pointers returned by
  /// EntriesAt are invalidated by an inserting call.
  std::size_t Intern(const std::uint64_t* entries, std::size_t count,
                     std::uint64_t hash, bool* inserted) {
    std::size_t mask = slots_.size() - 1;
    std::size_t pos = static_cast<std::size_t>(hash) & mask;
    while (slots_[pos] != 0) {
      std::size_t index = slots_[pos] - 1;
      if (hashes_[index] == hash && CountAt(index) == count &&
          std::memcmp(EntriesAt(index), entries,
                      count * sizeof(std::uint64_t)) == 0) {
        *inserted = false;
        return index;
      }
      pos = (pos + 1) & mask;
    }
    std::size_t index = count_++;
    entries_.insert(entries_.end(), entries, entries + count);
    offsets_.push_back(entries_.size());
    hashes_.push_back(hash);
    slots_[pos] = index + 1;
    if (budget_ != nullptr) {
      budget_->ChargeBytes(
          static_cast<std::int64_t>((count + 2) * sizeof(std::uint64_t)));
      budget_->ChargeTuples(1);
    }
    if ((count_ + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    *inserted = true;
    return index;
  }

 private:
  void Grow() {
    if (GQD_FAILPOINT_FIRED(fp_krem_arena_grow)) {
      fault_ = true;
      return;
    }
    std::vector<std::size_t> bigger(slots_.size() * 2, 0);
    if (budget_ != nullptr) {
      budget_->ChargeBytes(static_cast<std::int64_t>(
          (bigger.size() - slots_.size()) * sizeof(std::size_t)));
    }
    std::size_t mask = bigger.size() - 1;
    for (std::size_t index = 0; index < count_; index++) {
      std::size_t pos = static_cast<std::size_t>(hashes_[index]) & mask;
      while (bigger[pos] != 0) {
        pos = (pos + 1) & mask;
      }
      bigger[pos] = index + 1;
    }
    slots_.swap(bigger);
  }

  std::vector<std::uint64_t> entries_;
  std::vector<std::size_t> offsets_{0};  ///< tuple t spans [off[t], off[t+1])
  std::vector<std::uint64_t> hashes_;
  std::vector<std::size_t> slots_;  ///< index+1, 0 = empty; pow-2 size
  std::size_t count_ = 0;
  const ResourceBudget* budget_;
  bool fault_ = false;
};

/// One candidate successor of the current head under one block label, its
/// entries stored at [offset, offset+count) of the scratch arena.
struct SparseCandidate {
  MintermMask condition;
  std::uint64_t hash;
  std::size_t offset;
  std::size_t count;
};

/// Reusable workspace for sparse successor generation; nothing inside the
/// per-head loops allocates once the vectors warm up.
struct SparseBlockScratch {
  std::vector<std::vector<std::uint64_t>> parts;  ///< per pattern, sorted
  std::vector<std::uint8_t> achieved;  ///< patterns with non-empty parts
  std::vector<std::uint64_t> merged;   ///< Emit's union buffer
  std::vector<SparseCandidate> candidates;  ///< emitted in canonical order
  std::vector<std::uint64_t> arena;         ///< candidate tuple entries
  std::uint8_t included[16];                ///< DFS include path
  std::size_t included_count = 0;
  bool expired = false;
  std::uint32_t ticks = 0;
};

/// Sparse successor generation for one (store set, letter) block: walk
/// SuccessorsOf for every live entry (the reference shape), bucket by
/// pattern, then enumerate condition subsets in the same exclude-first DFS
/// order as SuccessorGenerator.
class SparseSuccessorGenerator {
 public:
  SparseSuccessorGenerator(const AssignmentGraph& ag,
                           const CancelToken* cancel)
      : ag_(ag), num_patterns_(ag.num_patterns()), cancel_(cancel) {}

  void InitScratch(SparseBlockScratch* s) const {
    s->parts.resize(num_patterns_);
    s->candidates.reserve(16);
  }

  void Generate(const std::uint64_t* entries, std::size_t count,
                std::uint32_t store_mask, LabelId label,
                SparseBlockScratch* s) const {
    s->candidates.clear();
    s->arena.clear();
    s->achieved.clear();
    s->expired = false;
    for (auto& part : s->parts) {
      part.clear();
    }
    for (std::size_t e = 0; e < count; e++) {
      if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
        s->expired = true;
        return;
      }
      std::size_t i = static_cast<std::size_t>(entries[e] >> 32);
      AgState state = static_cast<AgState>(entries[e]);
      for (const auto& successor :
           ag_.SuccessorsOf(store_mask, label, state)) {
        s->parts[successor.pattern].push_back(
            PackEntry(i, successor.state));
      }
    }
    for (std::uint32_t p = 0; p < num_patterns_; p++) {
      std::vector<std::uint64_t>& part = s->parts[p];
      if (part.empty()) {
        continue;
      }
      std::sort(part.begin(), part.end());
      part.erase(std::unique(part.begin(), part.end()), part.end());
      s->achieved.push_back(static_cast<std::uint8_t>(p));
    }
    if (s->achieved.empty()) {
      return;
    }
    s->included_count = 0;
    EnumerateSubsets(0, 0, s);
  }

 private:
  void EnumerateSubsets(std::size_t depth, MintermMask condition,
                        SparseBlockScratch* s) const {
    if (s->expired) {
      return;
    }
    if (depth == s->achieved.size()) {
      if (condition != 0) {
        Emit(condition, s);
      }
      return;
    }
    EnumerateSubsets(depth + 1, condition, s);  // exclude achieved[depth]
    std::uint8_t pattern = s->achieved[depth];
    s->included[s->included_count++] = pattern;
    EnumerateSubsets(depth + 1, condition | (MintermMask{1} << pattern), s);
    s->included_count--;
  }

  void Emit(MintermMask condition, SparseBlockScratch* s) const {
    if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
      s->expired = true;
      return;
    }
    // From-scratch union of the included pattern parts: concatenate the
    // sorted lists, re-sort, dedup — the sets match the dense Emit's ORs.
    s->merged.clear();
    for (std::size_t j = 0; j < s->included_count; j++) {
      const std::vector<std::uint64_t>& part = s->parts[s->included[j]];
      s->merged.insert(s->merged.end(), part.begin(), part.end());
    }
    std::sort(s->merged.begin(), s->merged.end());
    s->merged.erase(std::unique(s->merged.begin(), s->merged.end()),
                    s->merged.end());
    std::size_t offset = s->arena.size();
    s->arena.insert(s->arena.end(), s->merged.begin(), s->merged.end());
    s->candidates.push_back(SparseCandidate{
        condition, HashTupleWords(s->merged.data(), s->merged.size()),
        offset, s->merged.size()});
  }

  const AssignmentGraph& ag_;
  std::size_t num_patterns_;
  const CancelToken* cancel_;
};

/// The dense-tuple BFS — the historical implementation, generic over the
/// relation representation: only num_nodes(), Pairs() and Test() are used,
/// so any AdaptiveRelation backend drives it without densification.
template <typename Rel>
Result<KRemDefinabilityResult> CheckKRemDense(
    const KRemSetup& setup, const DataGraph& graph, const Rel& relation,
    const KRemDefinabilityOptions& options) {
  KRemDefinabilityResult result;
  std::vector<std::pair<NodeId, NodeId>> pairs = relation.Pairs();
  const AssignmentGraph& ag = setup.assignment_graph();
  std::size_t n = graph.NumNodes();

  // The query-plan dispatch table is part of the setup when the planned
  // engine is requested; a disabled table downgrades to kKernel.
  SuccessorGenerator generator(ag, n, options.engine, setup.dispatch(),
                               options.cancel);
  std::size_t set_words = generator.set_words();
  std::size_t tuple_words = generator.tuple_words();

  // BFS bookkeeping: flat tuple storage + interner, parent links, and the
  // incoming block of each tuple for witness reconstruction.
  TupleStore tuples(tuple_words, options.budget);
  std::vector<std::size_t> parent;
  std::vector<BasicRemBlock> incoming;

  // Pair bookkeeping: which pairs of S still need a witness, and the tuple
  // index at which each pair was first accepted.
  constexpr std::size_t kUnsolved = static_cast<std::size_t>(-1);
  std::unordered_map<std::uint64_t, std::size_t> pair_solution;
  for (const auto& [p, q] : pairs) {
    pair_solution[static_cast<std::uint64_t>(p) * n + q] = kUnsolved;
  }
  std::size_t unsolved = pairs.size();

  // Safety and acceptance of one tuple: every (v', σ) ∈ Q_i must have
  // ⟨v_i, v'⟩ ∈ S; a safe tuple accepts ⟨v_p, v_q⟩ iff v_q ∈ nodes(Q_p).
  std::size_t node_words = (n + 63) / 64;
  std::vector<std::uint64_t> projections(n * node_words);
  auto process_tuple = [&](std::size_t index) {
    const std::uint64_t* tuple = tuples.TupleAt(index);
    std::fill(projections.begin(), projections.end(), 0);
    for (std::size_t i = 0; i < n; i++) {
      const std::uint64_t* q = tuple + i * set_words;
      for (std::size_t w = 0; w < set_words; w++) {
        std::uint64_t bits = q[w];
        while (bits != 0) {
          std::size_t s = (w << 6) +
                          static_cast<std::size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          NodeId v = ag.NodeOf(static_cast<AgState>(s));
          if (!relation.Test(static_cast<NodeId>(i), v)) {
            return;  // unsafe: this tuple accepts no pair
          }
          projections[i * node_words + (v >> 6)] |= std::uint64_t{1}
                                                    << (v & 63);
        }
      }
    }
    for (const auto& [p, q] : pairs) {
      std::uint64_t key = static_cast<std::uint64_t>(p) * n + q;
      auto it = pair_solution.find(key);
      if (it->second == kUnsolved &&
          (projections[p * node_words + (q >> 6)] >> (q & 63)) & 1u) {
        it->second = index;
        unsolved--;
      }
    }
  };

  // Initial tuple: Q_i = {(v_i, ⊥^k)} — the ε expression (zero blocks).
  {
    GQD_TRACE_SPAN(span, "krem.arena_init");
    GQD_TRACE_SPAN_ATTR(span, "tuple_words", tuple_words);
    std::vector<std::uint64_t> initial(tuple_words, 0);
    for (NodeId v = 0; v < n; v++) {
      AgState s = ag.InitialState(v);
      initial[v * set_words + (s >> 6)] |= std::uint64_t{1} << (s & 63);
    }
    bool inserted = false;
    tuples.Intern(initial.data(),
                  HashTupleWords(initial.data(), tuple_words), &inserted);
    parent.push_back(kUnsolved);
    incoming.push_back(BasicRemBlock{});
    process_tuple(0);
  }

  // Frontier-parallel setup. Successor generation is a pure function of
  // the head tuple, so the parallel path generates a *batch* of already-
  // known frontier heads per round (each worker takes a strided slice of
  // the batch, covering every (store set, letter) block of its heads) and
  // then merges sequentially in (head, block) order — one barrier per
  // batch instead of per head, and results identical to sequential.
  // Every (head-in-batch, block) pair owns a scratch slot, so the steady
  // state allocates nothing; the batch is sized to keep that scratch
  // within a fixed budget.
  std::size_t num_blocks = ag.num_store_masks() * ag.num_labels();
  std::optional<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool.emplace(options.num_threads);
  }
  std::size_t batch_heads = 1;
  if (pool.has_value()) {
    constexpr std::size_t kBatchScratchBudgetBytes = std::size_t{256} << 20;
    std::size_t per_head_bytes =
        num_blocks *
        (n * ag.num_patterns() + ag.num_patterns() * n + 1) * set_words *
        sizeof(std::uint64_t);
    std::size_t memory_cap =
        kBatchScratchBudgetBytes / (per_head_bytes == 0 ? 1 : per_head_bytes);
    batch_heads = std::min<std::size_t>(
        {8 * pool->num_threads(), 128,
         memory_cap == 0 ? std::size_t{1} : memory_cap});
    if (batch_heads == 0) {
      batch_heads = 1;
    }
  }
  std::vector<BlockScratch> scratch(pool.has_value() ? batch_heads * num_blocks
                                                     : 1);
  for (BlockScratch& s : scratch) {
    generator.InitScratch(&s);
  }

  // Flush the planned engine's per-scratch kernel-class hit counters into
  // the global plan metrics exactly once, on every exit path.
  struct KernelHitsFlusher {
    const std::vector<BlockScratch>* scratch;
    ~KernelHitsFlusher() {
      std::uint64_t hits[kNumKernelClasses] = {};
      bool any = false;
      for (const BlockScratch& s : *scratch) {
        for (std::size_t c = 0; c < kNumKernelClasses; c++) {
          hits[c] += s.class_hits[c];
          any = any || hits[c] != 0;
        }
      }
      if (any) {
        RecordPlanKernelHits(hits);
      }
    }
  } hits_flusher{&scratch};

  // Merges one block's candidates into the store, in emission order.
  // Generation never reads interning state, so merge order — blocks in
  // (store_mask, label) order, candidates in DFS order — fully determines
  // the result regardless of thread count.
  auto merge_block = [&](BlockScratch& s, std::uint32_t mask,
                         LabelId label, std::size_t head) {
    for (const Candidate& c : s.candidates) {
      if (tuples.fault()) {
        // Injected growth failure: stop interning so the fixed-size probe
        // table cannot fill up; the BFS loop surfaces the fault.
        return;
      }
      bool inserted = false;
      std::size_t index =
          tuples.Intern(s.arena.data() + c.offset, c.hash, &inserted);
      if (inserted) {
        parent.push_back(head);
        incoming.push_back(BasicRemBlock{mask, label, c.condition});
        process_tuple(index);
        if (unsolved == 0) {
          return;
        }
      }
    }
  };

  // Blocks-of-`head` depth for the partial-progress report: the number of
  // BFS levels (= witness blocks) between the root and `index`.
  auto depth_of = [&](std::size_t index) {
    std::size_t d = 0;
    for (std::size_t at = index; at != 0; at = parent[at]) {
      d++;
    }
    return d;
  };
  // kBudgetExhausted with the structured partial-progress report — the
  // ResourceBudget trip path, as opposed to the legacy max_tuples cap.
  auto exhausted_result = [&](std::size_t at) {
    result.verdict = DefinabilityVerdict::kBudgetExhausted;
    result.tuples_explored = tuples.size();
    result.partial =
        PartialProgress{tuples.size(), depth_of(at),
                        options.budget->bytes_peak(), "krem-bfs"};
    return result;
  };
  auto injected_fault = [] {
    return Status::ResourceExhausted(
        "injected tuple-store growth failure (failpoint krem.arena.grow)");
  };

  // Whole-search span plus one child span per BFS generation (= frontier
  // level). Generation boundaries are tracked by head index: when `head`
  // crosses the store size snapshotted at the previous boundary, every
  // tuple of the previous frontier has been expanded and merged, so the
  // store size at that instant is the next boundary. Declared after any
  // early-return state so the generation span closes before the search
  // span on every exit path.
  std::optional<Span> bfs_span(std::in_place, "krem.bfs");
  std::size_t bfs_generation = 0;
  std::size_t generation_end = tuples.size();
  std::optional<Span> gen_span;
  auto advance_generation_span = [&](std::size_t at_head) {
    if (Tracer::Current() == nullptr) {
      return;
    }
    if (gen_span.has_value() && at_head < generation_end) {
      return;
    }
    if (gen_span.has_value()) {
      gen_span->AddAttr("tuples", tuples.size());
      gen_span.reset();
      bfs_generation++;
      generation_end = tuples.size();
    }
    gen_span.emplace("krem.bfs_generation");
    gen_span->AddAttr("generation", bfs_generation);
  };

  std::size_t head = 0;
  while (head < tuples.size() && unsolved > 0) {
    if (tuples.fault()) {
      return injected_fault();
    }
    if (options.budget != nullptr && options.budget->Exhausted()) {
      return exhausted_result(head);
    }
    if (tuples.size() > options.max_tuples) {
      result.verdict = DefinabilityVerdict::kBudgetExhausted;
      result.tuples_explored = tuples.size();
      return result;
    }
    if (pool.has_value()) {
      // Generate every block of up to batch_heads known heads in one
      // parallel round. The store is read-only until all workers finish
      // (interning happens only in the merge below), so TupleAt pointers
      // stay valid throughout the round.
      std::size_t batch = std::min(batch_heads, tuples.size() - head);
      std::size_t num_workers = std::min(pool->num_threads(), batch);
      std::mutex done_mutex;
      std::condition_variable done_cv;
      std::size_t remaining = num_workers;
      advance_generation_span(head);
      // Pool workers do not inherit this thread's tracer; each task
      // re-installs it so generation work shows up one track per worker.
      Tracer* tracer = Tracer::Current();
      {
        GQD_TRACE_SPAN(batch_span, "krem.generate_batch");
        GQD_TRACE_SPAN_ATTR(batch_span, "heads", batch);
        GQD_TRACE_SPAN_ATTR(batch_span, "workers", num_workers);
        for (std::size_t w = 0; w < num_workers; w++) {
          pool->Submit([&generator, &scratch, &tuples, &done_mutex, &done_cv,
                        &remaining, &ag, head, batch, num_workers, num_blocks,
                        tracer, w] {
            Tracer::Scope scope(tracer);
            GQD_TRACE_SPAN(worker_span, "krem.worker_generate");
            GQD_TRACE_SPAN_ATTR(worker_span, "worker", w);
            for (std::size_t b = w; b < batch; b += num_workers) {
              const std::uint64_t* words = tuples.TupleAt(head + b);
              for (std::size_t t = 0; t < num_blocks; t++) {
                generator.Generate(
                    words, static_cast<std::uint32_t>(t / ag.num_labels()),
                    static_cast<LabelId>(t % ag.num_labels()),
                    &scratch[b * num_blocks + t]);
              }
            }
            // Notify while holding the lock: the waiter owns these locals
            // and destroys them the moment it observes remaining == 0.
            std::lock_guard<std::mutex> lock(done_mutex);
            remaining--;
            done_cv.notify_one();
          });
        }
        {
          std::unique_lock<std::mutex> lock(done_mutex);
          done_cv.wait(lock, [&remaining] { return remaining == 0; });
        }
      }
      if (options.cancel != nullptr && options.cancel->Expired()) {
        return options.cancel->Check();
      }
      for (std::size_t b = 0; b < batch && unsolved > 0; b++, head++) {
        advance_generation_span(head);
        if (tuples.fault()) {
          return injected_fault();
        }
        if (options.budget != nullptr && options.budget->Exhausted()) {
          return exhausted_result(head);
        }
        if (tuples.size() > options.max_tuples) {
          result.verdict = DefinabilityVerdict::kBudgetExhausted;
          result.tuples_explored = tuples.size();
          return result;
        }
        GQD_TRACE_SPAN(merge_span, "krem.merge");
        GQD_TRACE_SPAN_ATTR(merge_span, "head", head);
        for (std::size_t t = 0; t < num_blocks && unsolved > 0; t++) {
          merge_block(scratch[b * num_blocks + t],
                      static_cast<std::uint32_t>(t / ag.num_labels()),
                      static_cast<LabelId>(t % ag.num_labels()), head);
        }
      }
    } else {
      advance_generation_span(head);
      for (std::uint32_t mask = 0;
           mask < ag.num_store_masks() && unsolved > 0; mask++) {
        for (LabelId label = 0; label < ag.num_labels() && unsolved > 0;
             label++) {
          if (options.cancel != nullptr && options.cancel->Expired()) {
            return options.cancel->Check();
          }
          generator.Generate(tuples.TupleAt(head), mask, label, &scratch[0]);
          if (scratch[0].expired) {
            return options.cancel->Check();
          }
          merge_block(scratch[0], mask, label, head);
        }
      }
      head++;
    }
  }

  if (gen_span.has_value()) {
    gen_span->AddAttr("tuples", tuples.size());
    gen_span.reset();
  }
  bfs_span->AddAttr("tuples_explored", tuples.size());
  bfs_span->AddAttr("frontier_depth", bfs_generation);
  if (options.budget != nullptr) {
    bfs_span->AddAttr("bytes_peak", options.budget->bytes_peak());
  }
  bfs_span.reset();

  if (tuples.fault()) {
    return injected_fault();
  }
  result.tuples_explored = tuples.size();
  if (unsolved > 0) {
    result.verdict = DefinabilityVerdict::kNotDefinable;
    return result;
  }

  // Reconstruct one witness per pair by walking parent links.
  result.verdict = DefinabilityVerdict::kDefinable;
  for (const auto& [p, q] : pairs) {
    std::size_t index =
        pair_solution[static_cast<std::uint64_t>(p) * n + q];
    KRemWitness witness;
    witness.from = p;
    witness.to = q;
    for (std::size_t at = index; at != 0; at = parent[at]) {
      witness.blocks.push_back(incoming[at]);
    }
    std::reverse(witness.blocks.begin(), witness.blocks.end());
    result.witnesses.push_back(std::move(witness));
  }
  return result;
}

/// The frontier-streaming BFS over the sparse tuple store: same canonical
/// exploration order and interning semantics as CheckKRemDense, but no
/// allocation is ever proportional to n² — tuples are sorted entry lists
/// and acceptance probes the pair map entry by entry instead of building
/// an n²-bit projection scratch. Sequential by design (the per-block work
/// is already proportional to the live frontier); `engine` and
/// `num_threads` are ignored.
template <typename Rel>
Result<KRemDefinabilityResult> CheckKRemSparseFrontier(
    const KRemSetup& setup, const DataGraph& graph, const Rel& relation,
    const KRemDefinabilityOptions& options) {
  KRemDefinabilityResult result;
  std::vector<std::pair<NodeId, NodeId>> pairs = relation.Pairs();
  const AssignmentGraph& ag = setup.assignment_graph();
  std::size_t n = graph.NumNodes();
  SparseSuccessorGenerator generator(ag, options.cancel);

  SparseTupleStore tuples(options.budget);
  std::vector<std::size_t> parent;
  std::vector<BasicRemBlock> incoming;

  constexpr std::size_t kUnsolved = static_cast<std::size_t>(-1);
  std::unordered_map<std::uint64_t, std::size_t> pair_solution;
  for (const auto& [p, q] : pairs) {
    pair_solution[static_cast<std::uint64_t>(p) * n + q] = kUnsolved;
  }
  std::size_t unsolved = pairs.size();

  // Safety and acceptance in one streaming pass over the entry list: every
  // (v', σ) ∈ Q_i needs ⟨v_i, v'⟩ ∈ S, and a safe tuple then marks each
  // still-unsolved ⟨v_i, v'⟩ it contains directly in the pair map.
  auto process_tuple = [&](std::size_t index) {
    const std::uint64_t* entries = tuples.EntriesAt(index);
    std::size_t count = tuples.CountAt(index);
    for (std::size_t e = 0; e < count; e++) {
      NodeId i = static_cast<NodeId>(entries[e] >> 32);
      NodeId v = ag.NodeOf(static_cast<AgState>(entries[e]));
      if (!relation.Test(i, v)) {
        return;  // unsafe: this tuple accepts no pair
      }
    }
    for (std::size_t e = 0; e < count && unsolved > 0; e++) {
      NodeId i = static_cast<NodeId>(entries[e] >> 32);
      NodeId v = ag.NodeOf(static_cast<AgState>(entries[e]));
      auto it = pair_solution.find(static_cast<std::uint64_t>(i) * n + v);
      if (it != pair_solution.end() && it->second == kUnsolved) {
        it->second = index;
        unsolved--;
      }
    }
  };

  // Initial tuple: Q_i = {(v_i, ⊥^k)}. Node indices increase, so the entry
  // list is born sorted.
  {
    GQD_TRACE_SPAN(span, "krem.arena_init");
    GQD_TRACE_SPAN_ATTR(span, "entries", n);
    std::vector<std::uint64_t> initial;
    initial.reserve(n);
    for (NodeId v = 0; v < n; v++) {
      initial.push_back(PackEntry(v, ag.InitialState(v)));
    }
    bool inserted = false;
    tuples.Intern(initial.data(), initial.size(),
                  HashTupleWords(initial.data(), initial.size()), &inserted);
    parent.push_back(kUnsolved);
    incoming.push_back(BasicRemBlock{});
    process_tuple(0);
  }

  SparseBlockScratch scratch;
  generator.InitScratch(&scratch);

  auto merge_block = [&](std::uint32_t mask, LabelId label,
                         std::size_t head) {
    for (const SparseCandidate& c : scratch.candidates) {
      if (tuples.fault()) {
        return;
      }
      bool inserted = false;
      std::size_t index = tuples.Intern(scratch.arena.data() + c.offset,
                                        c.count, c.hash, &inserted);
      if (inserted) {
        parent.push_back(head);
        incoming.push_back(BasicRemBlock{mask, label, c.condition});
        process_tuple(index);
        if (unsolved == 0) {
          return;
        }
      }
    }
  };

  auto depth_of = [&](std::size_t index) {
    std::size_t d = 0;
    for (std::size_t at = index; at != 0; at = parent[at]) {
      d++;
    }
    return d;
  };
  auto exhausted_result = [&](std::size_t at) {
    result.verdict = DefinabilityVerdict::kBudgetExhausted;
    result.tuples_explored = tuples.size();
    result.partial =
        PartialProgress{tuples.size(), depth_of(at),
                        options.budget->bytes_peak(), "krem-bfs"};
    return result;
  };
  auto injected_fault = [] {
    return Status::ResourceExhausted(
        "injected tuple-store growth failure (failpoint krem.arena.grow)");
  };

  std::optional<Span> bfs_span(std::in_place, "krem.bfs");
  std::size_t bfs_generation = 0;
  std::size_t generation_end = tuples.size();
  std::optional<Span> gen_span;
  auto advance_generation_span = [&](std::size_t at_head) {
    if (Tracer::Current() == nullptr) {
      return;
    }
    if (gen_span.has_value() && at_head < generation_end) {
      return;
    }
    if (gen_span.has_value()) {
      gen_span->AddAttr("tuples", tuples.size());
      gen_span.reset();
      bfs_generation++;
      generation_end = tuples.size();
    }
    gen_span.emplace("krem.bfs_generation");
    gen_span->AddAttr("generation", bfs_generation);
  };

  std::size_t head = 0;
  while (head < tuples.size() && unsolved > 0) {
    if (tuples.fault()) {
      return injected_fault();
    }
    if (options.budget != nullptr && options.budget->Exhausted()) {
      return exhausted_result(head);
    }
    if (tuples.size() > options.max_tuples) {
      result.verdict = DefinabilityVerdict::kBudgetExhausted;
      result.tuples_explored = tuples.size();
      return result;
    }
    advance_generation_span(head);
    for (std::uint32_t mask = 0;
         mask < ag.num_store_masks() && unsolved > 0; mask++) {
      for (LabelId label = 0; label < ag.num_labels() && unsolved > 0;
           label++) {
        if (options.cancel != nullptr && options.cancel->Expired()) {
          return options.cancel->Check();
        }
        // Generate reads the head's entries to completion before the merge
        // interns anything, so arena growth cannot invalidate them.
        generator.Generate(tuples.EntriesAt(head), tuples.CountAt(head),
                           mask, label, &scratch);
        if (scratch.expired) {
          return options.cancel->Check();
        }
        merge_block(mask, label, head);
      }
    }
    head++;
  }

  if (gen_span.has_value()) {
    gen_span->AddAttr("tuples", tuples.size());
    gen_span.reset();
  }
  bfs_span->AddAttr("tuples_explored", tuples.size());
  bfs_span->AddAttr("frontier_depth", bfs_generation);
  if (options.budget != nullptr) {
    bfs_span->AddAttr("bytes_peak", options.budget->bytes_peak());
  }
  bfs_span.reset();

  if (tuples.fault()) {
    return injected_fault();
  }
  result.tuples_explored = tuples.size();
  if (unsolved > 0) {
    result.verdict = DefinabilityVerdict::kNotDefinable;
    return result;
  }

  result.verdict = DefinabilityVerdict::kDefinable;
  for (const auto& [p, q] : pairs) {
    std::size_t index =
        pair_solution[static_cast<std::uint64_t>(p) * n + q];
    KRemWitness witness;
    witness.from = p;
    witness.to = q;
    for (std::size_t at = index; at != 0; at = parent[at]) {
      witness.blocks.push_back(incoming[at]);
    }
    std::reverse(witness.blocks.begin(), witness.blocks.end());
    result.witnesses.push_back(std::move(witness));
  }
  return result;
}

/// Footprint of one dense macro tuple (saturating): n·⌈n·(δ+1)^k/64⌉ words.
std::size_t DenseTupleFootprintBytes(std::size_t n, std::size_t num_values,
                                     std::size_t k) {
  constexpr std::uint64_t kSat = ~std::uint64_t{0};
  auto mul = [](std::uint64_t a, std::uint64_t b) -> std::uint64_t {
    return (b != 0 && a > kSat / b) ? kSat : a * b;
  };
  std::uint64_t codes = 1;
  for (std::size_t i = 0; i < k; i++) {
    codes = mul(codes, static_cast<std::uint64_t>(num_values) + 1);
  }
  std::uint64_t states = mul(n, codes);
  std::uint64_t set_words = states == kSat ? kSat : (states + 63) / 64;
  return static_cast<std::size_t>(
      mul(mul(n, set_words), sizeof(std::uint64_t)));
}

/// The search half on a built setup: the BFS of its tuple store.
template <typename Rel>
Result<KRemDefinabilityResult> SearchWithSetup(
    const KRemSetup& setup, const DataGraph& graph, const Rel& relation,
    const KRemDefinabilityOptions& options) {
  if (setup.tuple_store() == KRemTupleStore::kDense) {
    return CheckKRemDense(setup, graph, relation, options);
  }
  return CheckKRemSparseFrontier(setup, graph, relation, options);
}

template <typename Rel>
Result<KRemDefinabilityResult> CheckKRemDispatch(
    const DataGraph& graph, const Rel& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  if (relation.num_nodes() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation is over a different node count than the graph");
  }
  if (relation.Empty()) {
    // The empty relation is definable (e.g. by a[¬⊤], or by any REM whose
    // language contains no data path of the graph) — no setup needed.
    KRemDefinabilityResult result;
    result.verdict = DefinabilityVerdict::kDefinable;
    return result;
  }
  GQD_ASSIGN_OR_RETURN(KRemSetup setup, BuildKRemSetup(graph, k, options));
  return SearchWithSetup(setup, graph, relation, options);
}

}  // namespace

Result<KRemSetup> BuildKRemSetup(const DataGraph& graph, std::size_t k,
                                 const KRemDefinabilityOptions& options) {
  // Build first: it rejects k > 4 before the footprint loop runs k times.
  GQD_ASSIGN_OR_RETURN(AssignmentGraph ag,
                       AssignmentGraph::Build(graph, k, options.budget));
  KRemTupleStore auto_store =
      DenseTupleFootprintBytes(graph.NumNodes(), graph.NumDataValues(), k) <=
              kDenseTupleBytesCap
          ? KRemTupleStore::kDense
          : KRemTupleStore::kSparseFrontier;
  KRemSetup setup(std::move(ag));
  setup.auto_store_ = auto_store;
  setup.store_ = options.tuple_store == KRemTupleStore::kAuto
                     ? auto_store
                     : options.tuple_store;
  setup.engine_ = options.engine;
  if (setup.store_ == KRemTupleStore::kDense &&
      options.engine == KRemEngine::kPlanned) {
    setup.dispatch_ = KernelDispatchTable::Build(setup.graph_);
    setup.with_dispatch_ = true;
    if (setup.dispatch_.enabled() &&
        setup.dispatch_.class_counts()[static_cast<std::size_t>(
            TransitionKernelClass::kDense)] == 0) {
      setup.graph_.ReleaseKernelRows();
    }
  }
  return setup;
}

bool KRemSetup::Suits(const KRemDefinabilityOptions& options) const {
  KRemTupleStore store = options.tuple_store == KRemTupleStore::kAuto
                             ? auto_store_
                             : options.tuple_store;
  // The sparse frontier store ignores the engine.
  return store == store_ &&
         (store_ == KRemTupleStore::kSparseFrontier ||
          options.engine == engine_);
}

bool KRemSetup::ReusableFor(const KRemDefinabilityOptions& options) const {
  const ResourceBudget* budget = options.budget;
  return shareable() && Suits(options) &&
         (budget == nullptr || budget->max_bytes() == 0 ||
          budget->bytes_used() + graph_.BuildChargeBytes(true) <=
              budget->max_bytes());
}

std::size_t KRemSetup::HeldBytes() const {
  return graph_.HeldBytes() + (with_dispatch_ ? dispatch_.pool_bytes() : 0);
}

Result<KRemDefinabilityResult> CheckKRemDefinability(
    const KRemSetup& setup, const DataGraph& graph,
    const AdaptiveRelation& relation,
    const KRemDefinabilityOptions& options) {
  if (relation.num_nodes() != graph.NumNodes() ||
      setup.assignment_graph().num_nodes() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation, setup and graph disagree on the node count");
  }
  if (!setup.Suits(options)) {
    return Status::InvalidArgument(
        "the k-REM setup was built for another engine or tuple store");
  }
  if (relation.Empty()) {
    KRemDefinabilityResult result;
    result.verdict = DefinabilityVerdict::kDefinable;
    return result;
  }
  return SearchWithSetup(setup, graph, relation, options);
}

Result<KRemDefinabilityResult> CheckKRemDefinability(
    const DataGraph& graph, const BinaryRelation& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  return CheckKRemDispatch(graph, relation, k, options);
}

Result<KRemDefinabilityResult> CheckKRemDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  return CheckKRemDispatch(graph, relation, k, options);
}

Result<KRemDefinabilityResult> CheckRemDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const KRemDefinabilityOptions& options) {
  return CheckKRemDefinability(graph, relation, graph.NumDataValues(),
                               options);
}

Result<KRemDefinabilityResult> CheckRemDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const KRemDefinabilityOptions& options) {
  return CheckKRemDefinability(graph, relation, graph.NumDataValues(),
                               options);
}

RemPtr BasicRemFromBlocks(const std::vector<BasicRemBlock>& blocks,
                          std::size_t k, const StringInterner& labels) {
  if (blocks.empty()) {
    return rem::Epsilon();
  }
  MintermMask full = (NumMinterms(k) == 64)
                         ? ~MintermMask{0}
                         : ((MintermMask{1} << NumMinterms(k)) - 1);
  std::vector<RemPtr> parts;
  for (const BasicRemBlock& block : blocks) {
    RemPtr step = rem::Letter(labels.NameOf(block.label));
    if ((block.condition & full) != full) {
      step = rem::Test(std::move(step),
                       ConditionFromMinterms(block.condition, k));
    }
    if (block.store_mask != 0) {
      std::vector<std::size_t> registers;
      for (std::size_t r = 0; r < k; r++) {
        if (block.store_mask & (1u << r)) {
          registers.push_back(r);
        }
      }
      step = rem::Bind(std::move(registers), std::move(step));
    }
    parts.push_back(std::move(step));
  }
  return rem::Concat(std::move(parts));
}

}  // namespace gqd
