#include "definability/krem_definability.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/plan/kernel_dispatch.h"
#include "analysis/plan/plan_metrics.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "definability/krem_search.h"
#include "obs/trace.h"

namespace gqd {

namespace {

GQD_FAILPOINT_DEFINE(fp_krem_arena_grow, "krem.arena.grow");

// The BFS explores macro tuples ⟨Q_1, ..., Q_n⟩ in one of two layouts — a
// tuple-store policy: DenseStore keeps n packed state bitsets, SparseStore a
// sorted (node, state) entry list. Either way a tuple is a span of 64-bit
// words, so one flat arena and one interner (TupleInterner) serve both, and
// one search driver (Search) runs over either policy.

inline void OrWords(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t count) {
  for (std::size_t i = 0; i < count; i++) {
    dst[i] |= src[i];
  }
}

/// A 4-lane multiply–xorshift hash: word i feeds lane i mod 4, so four
/// independent multiply chains pipeline where one serial chain would wait
/// on each product. The lanes and the length fold through a final avalanche
/// (MurmurHash3's fmix64), so the low bits the probe table masks depend on
/// every word.
std::uint64_t HashTupleWords(const std::uint64_t* words, std::size_t count) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  auto mix = [](std::uint64_t h, std::uint64_t word) {
    h = (h ^ word) * kMul;
    return h ^ (h >> 32);
  };
  std::uint64_t lane[4] = {1, 2, 3, 4};
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    lane[0] = mix(lane[0], words[i]);
    lane[1] = mix(lane[1], words[i + 1]);
    lane[2] = mix(lane[2], words[i + 2]);
    lane[3] = mix(lane[3], words[i + 3]);
  }
  for (; i < count; i++) {
    lane[i & 3] = mix(lane[i & 3], words[i]);
  }
  std::uint64_t h = mix(mix(mix(mix(count, lane[0]), lane[1]), lane[2]),
                        lane[3]);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

/// Macro-tuple storage with an open-addressed semantic interner, shared by
/// both tuple stores. A tuple is a span of words — fixed-width for the
/// dense store, a sorted entry list of any length for the sparse store —
/// kept whole in one chunk. Chunks are never reallocated, so a tuple's span
/// stays valid for the interner's lifetime, however many tuples follow.
/// The probe table holds only (hash, index) — the words are never
/// duplicated into a key. Each interned tuple charges the budget its words
/// plus its bookkeeping: the stored hash and, for variable-width tuples,
/// the offset.
class TupleInterner {
 public:
  /// `width` words per tuple, or 0 for variable-width tuples.
  TupleInterner(std::size_t width, const ResourceBudget* budget)
      : width_(width), slots_(64, 0), budget_(budget) {
    if (budget_ != nullptr) {
      budget_->ChargeBytes(
          static_cast<std::int64_t>(slots_.size() * sizeof(std::size_t)));
    }
  }

  std::size_t size() const { return tuples_.size(); }

  /// True once an injected fault (failpoint krem.arena.grow) hit a growth
  /// path; the BFS surfaces it at the next frontier boundary. The store
  /// itself stays consistent — the probe table just stops growing.
  bool fault() const { return fault_; }

  /// Tuple `index`'s words.
  std::span<const std::uint64_t> At(std::size_t index) const {
    return tuples_[index];
  }

  /// Returns the index of the tuple equal to `tuple`, interning a copy
  /// first when absent (*inserted reports which).
  std::size_t Intern(std::span<const std::uint64_t> tuple, std::uint64_t hash,
                     bool* inserted) {
    std::size_t pos = Probe(tuple, hash);
    *inserted = slots_[pos] == 0;
    if (!*inserted) {
      return slots_[pos] - 1;
    }
    std::uint64_t* copy = Reserve(tuple.size());
    std::copy(tuple.begin(), tuple.end(), copy);
    return Insert({copy, tuple.size()}, hash, pos);
  }

  /// Interns the `count`-word tuple that fill(words) writes straight into
  /// storage, with no staging copy; a duplicate gives the space back.
  template <typename Fill>
  std::size_t InternInPlace(std::size_t count, Fill&& fill, bool* inserted) {
    std::uint64_t* words = Reserve(count);
    fill(words);
    std::uint64_t hash = HashTupleWords(words, count);
    std::size_t pos = Probe({words, count}, hash);
    *inserted = slots_[pos] == 0;
    if (!*inserted) {
      chunk_used_ -= count;
      return slots_[pos] - 1;
    }
    return Insert({words, count}, hash, pos);
  }

 private:
  /// Chunks double from the first tuple's size up to this many words
  /// (1 MiB); a tuple larger than that gets a chunk of its own size.
  static constexpr std::size_t kMaxChunkWords = std::size_t{1} << 17;

  /// The probe slot holding the tuple equal to `tuple`, or the empty slot
  /// where it belongs.
  std::size_t Probe(std::span<const std::uint64_t> tuple,
                    std::uint64_t hash) const {
    std::size_t mask = slots_.size() - 1;
    std::size_t pos = static_cast<std::size_t>(hash) & mask;
    while (slots_[pos] != 0) {
      std::size_t index = slots_[pos] - 1;
      if (hashes_[index] == hash) {
        std::span<const std::uint64_t> stored = At(index);
        if (stored.size() == tuple.size() &&
            std::memcmp(stored.data(), tuple.data(), tuple.size_bytes()) ==
                0) {
          return pos;
        }
      }
      pos = (pos + 1) & mask;
    }
    return pos;
  }

  /// Records the stored `tuple` at empty slot `pos` and charges it.
  std::size_t Insert(std::span<const std::uint64_t> tuple, std::uint64_t hash,
                     std::size_t pos) {
    std::size_t index = tuples_.size();
    tuples_.push_back(tuple);
    hashes_.push_back(hash);
    slots_[pos] = index + 1;
    if (budget_ != nullptr) {
      std::size_t bookkeeping = width_ == 0 ? 2 : 1;
      budget_->ChargeBytes(static_cast<std::int64_t>(
          (tuple.size() + bookkeeping) * sizeof(std::uint64_t)));
      budget_->ChargeTuples(1);
    }
    if ((tuples_.size() + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    return index;
  }

  /// `count` words at the end of the current chunk, opening a new chunk
  /// when they do not fit.
  std::uint64_t* Reserve(std::size_t count) {
    if (chunk_capacity_ - chunk_used_ < count) {
      chunk_capacity_ = std::max(
          count, chunks_.empty()
                     ? count
                     : std::min(2 * chunk_capacity_, kMaxChunkWords));
      chunks_.push_back(
          std::make_unique_for_overwrite<std::uint64_t[]>(chunk_capacity_));
      chunk_used_ = 0;
    }
    std::uint64_t* words = chunks_.back().get() + chunk_used_;
    chunk_used_ += count;
    return words;
  }

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
    for (std::size_t index = 0; index < tuples_.size(); index++) {
      std::size_t pos = static_cast<std::size_t>(hashes_[index]) & mask;
      while (bigger[pos] != 0) {
        pos = (pos + 1) & mask;
      }
      bigger[pos] = index + 1;
    }
    slots_.swap(bigger);
  }

  std::size_t width_;
  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
  std::size_t chunk_capacity_ = 0;  ///< words in chunks_.back()
  std::size_t chunk_used_ = 0;      ///< of which tuples fill this many
  std::vector<std::span<const std::uint64_t>> tuples_;  ///< into chunks_
  std::vector<std::uint64_t> hashes_;
  std::vector<std::size_t> slots_;  ///< index+1, 0 = empty; pow-2 size
  const ResourceBudget* budget_;
  bool fault_ = false;
};

/// One candidate successor tuple of the current head under one block label:
/// the condition (minterm subset), the tuple's hash, and its words at
/// [offset, offset + count) of the owning scratch's arena — or, for a
/// sparse single-part candidate, of that part itself.
struct Candidate {
  static constexpr std::uint32_t kArena = static_cast<std::uint32_t>(-1);

  MintermMask condition;
  std::uint64_t hash;
  std::uint32_t part;  ///< kArena, or the sparse part holding the words
  std::size_t offset;
  std::size_t count;
};

/// S as a CSR in Pairs() order (read in place from a sparse relation,
/// built once for any other backend).
template <typename Rel>
PairRows RowsOf(const Rel& relation) {
  std::size_t n = relation.num_nodes();
  std::vector<std::uint64_t> offsets;
  std::vector<NodeId> cols;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  for (NodeId u = 0; u < n; u++) {
    if constexpr (std::is_same_v<Rel, BinaryRelation>) {
      const DynamicBitset& row = relation.Row(u);
      for (std::size_t v = row.FindNext(0); v < n; v = row.FindNext(v + 1)) {
        cols.push_back(static_cast<NodeId>(v));
      }
    } else {
      relation.ForEachInRow(u, [&cols](NodeId v) { cols.push_back(v); });
    }
    offsets.push_back(cols.size());
  }
  return PairRows(std::move(offsets), std::move(cols));
}

PairRows RowsOf(const AdaptiveRelation& relation) {
  switch (relation.backend()) {
    case RelationBackend::kDense:
      return RowsOf(relation.dense());
    case RelationBackend::kSparse:
      return PairRows(relation.sparse().offsets(), relation.sparse().cols());
    default:
      return RowsOf(relation.blocked());
  }
}

/// Pair bookkeeping over S's CSR rows: solution[j] is the tuple index at
/// which pair j was first accepted, kUnsolved while it still needs a
/// witness.
struct PairBook {
  static constexpr std::size_t kUnsolved = static_cast<std::size_t>(-1);

  explicit PairBook(PairRows pairs)
      : rows(std::move(pairs)),
        solution(rows.size(), kUnsolved),
        unsolved(rows.size()) {}

  void Solve(std::size_t j, std::size_t tuple) {
    if (solution[j] == kUnsolved) {
      solution[j] = tuple;
      unsolved--;
    }
  }

  /// Takes back Solve(j, tuple) when it was tuple that solved pair j.
  void Unsolve(std::size_t j, std::size_t tuple) {
    if (solution[j] == tuple) {
      solution[j] = kUnsolved;
      unsolved++;
    }
  }

  PairRows rows;
  std::vector<std::size_t> solution;
  std::size_t unsolved;
};

/// The part of a per-(store set, letter) workspace the search reads back:
/// the emitted candidates, plus the subset-DFS state both stores share.
/// One instance per worker slot; nothing inside the per-head loops
/// allocates once these warm up.
struct ScratchBase {
  /// Candidate c's words.
  std::span<const std::uint64_t> Words(const Candidate& c) const {
    return {arena.data() + c.offset, c.count};
  }

  std::vector<std::uint8_t> achieved;  ///< patterns achieved by any part
  std::vector<Candidate> candidates;   ///< emitted in canonical order
  std::vector<std::uint64_t> arena;    ///< candidate tuple words
  std::uint8_t included[16];           ///< from-scratch DFS include path
  std::size_t included_count = 0;
  bool expired = false;
  std::uint32_t ticks = 0;
  /// Planned engine only: specialized inner-loop executions by class,
  /// accumulated per search and flushed once (RecordPlanKernelHits).
  std::uint64_t class_hits[kNumKernelClasses] = {};
};

struct BlockScratch : ScratchBase {
  std::vector<std::uint64_t> parts;    ///< n × patterns × set_words
  std::vector<std::uint64_t> stack;    ///< DFS save buffers, one per depth
  std::vector<std::uint64_t> current;  ///< running union, tuple_words
  /// Planned engine only: the word window [begin, end) pattern p's parts
  /// can occupy (from its TransitionPlan), so the subset-DFS save/OR/
  /// restore touches only words that can change.
  std::uint32_t span_begin[16] = {};
  std::uint32_t span_end[16] = {};
};

/// The dense tuple store: macro tuples ⟨Q_1, ..., Q_n⟩ as flat word arrays,
/// n consecutive packed state sets of `set_words` words each. Successor
/// generation for one (store set, letter) block of one head tuple is a pure
/// function of the head — interning state is never read — so blocks can
/// fan out across workers and merge back deterministically.
class DenseStore {
 public:
  using Scratch = BlockScratch;
  static constexpr const char* kInitAttr = "tuple_words";

  /// Planned needs an enabled dispatch table; anything else runs the
  /// reference shape. Both compute identical successor bits.
  static KRemEngine Resolve(KRemEngine requested,
                            const KernelDispatchTable* table) {
    return requested == KRemEngine::kPlanned && table != nullptr &&
                   table->enabled()
               ? KRemEngine::kPlanned
               : KRemEngine::kReference;
  }

  DenseStore(const KRemSetup& setup, std::size_t n, KRemEngine engine,
             const CancelToken* cancel)
      : ag_(*setup.assignment_graph()),
        table_(setup.dispatch()),
        n_(n),
        num_patterns_(ag_.num_patterns()),
        set_words_((ag_.num_states() + 63) / 64),
        tuple_words_(n * set_words_),
        node_words_((n + 63) / 64),
        engine_(Resolve(engine, table_)),
        cancel_(cancel),
        projections_(n * node_words_) {}

  /// Words per tuple: the interner's fixed width.
  std::size_t width() const { return tuple_words_; }

  /// Bytes of one block's scratch, for sizing a parallel batch.
  std::size_t ScratchBytes() const {
    return (n_ * num_patterns_ + num_patterns_ * n_ + 1) * set_words_ *
           sizeof(std::uint64_t);
  }

  /// Words of the initial tuple.
  std::size_t InitialWords() const { return tuple_words_; }

  /// Writes Q_i = {(v_i, ⊥^k)} — the ε expression (zero blocks).
  void WriteInitialTuple(std::uint64_t* initial) const {
    std::fill(initial, initial + tuple_words_, 0);
    for (NodeId v = 0; v < n_; v++) {
      AgState s = ag_.InitialState(v);
      initial[v * set_words_ + (s >> 6)] |= std::uint64_t{1} << (s & 63);
    }
  }

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
  void Generate(std::span<const std::uint64_t> tuple_words,
                std::uint32_t store_mask, LabelId label,
                BlockScratch* s) const {
    const std::uint64_t* tuple = tuple_words.data();
    s->candidates.clear();
    s->arena.clear();
    s->achieved.clear();
    s->expired = false;
    std::fill(s->parts.begin(), s->parts.end(), 0);
    std::uint32_t achieved_mask =
        engine_ == KRemEngine::kPlanned
            ? FillPartsPlanned(tuple, store_mask, label, s)
            : FillPartsReference(tuple, store_mask, label, s);
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

  /// Safety and acceptance of tuple `index`: every (v', σ) ∈ Q_i must have
  /// ⟨v_i, v'⟩ ∈ S; a safe tuple accepts ⟨v_p, v_q⟩ iff v_q ∈ nodes(Q_p),
  /// read off n²-bit node projections.
  template <typename Rel>
  void Accept(std::span<const std::uint64_t> tuple, std::size_t index,
              const Rel& relation, PairBook* book) {
    std::fill(projections_.begin(), projections_.end(), 0);
    for (std::size_t i = 0; i < n_; i++) {
      const std::uint64_t* q = tuple.data() + i * set_words_;
      for (std::size_t w = 0; w < set_words_; w++) {
        std::uint64_t bits = q[w];
        while (bits != 0) {
          std::size_t s = (w << 6) +
                          static_cast<std::size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          NodeId v = ag_.NodeOf(static_cast<AgState>(s));
          if (!relation.Test(static_cast<NodeId>(i), v)) {
            return;  // unsafe: this tuple accepts no pair
          }
          projections_[i * node_words_ + (v >> 6)] |= std::uint64_t{1}
                                                      << (v & 63);
        }
      }
    }
    book->rows.ForEach([&](std::size_t j, NodeId p, NodeId q) {
      if (book->solution[j] == PairBook::kUnsolved &&
          (projections_[p * node_words_ + (q >> 6)] >> (q & 63)) & 1u) {
        book->Solve(j, index);
      }
    });
  }

 private:
  /// Specialized per-transition kernels: one TransitionPlan per pattern
  /// picks the inner loop, and every loop scans only Q ∧ source-mask over
  /// the plan's source word span. Produces bit-identical parts and achieved
  /// mask to the reference engine — p is achieved iff some state of some Q_i
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
  /// order — the canonical order both engines (and both stores) share. The
  /// planned engine maintains the running union incrementally: entering the
  /// include branch costs one OR pass from the parent subset over the
  /// pattern's target word window, and the parent's value is saved to a
  /// per-depth buffer and rolled back afterwards (the Gray-code style walk
  /// of the subset lattice; no allocation, no recompute). The reference
  /// engine rebuilds each leaf's union from its included parts.
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
      // Words outside the plan's target span never change, so restoring
      // only the window restores the whole union.
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
        condition, HashTupleWords(s->current.data(), tuple_words_),
        Candidate::kArena, offset, tuple_words_});
  }

  const AssignmentGraph& ag_;
  const KernelDispatchTable* table_;
  std::size_t n_;
  std::size_t num_patterns_;
  std::size_t set_words_;
  std::size_t tuple_words_;
  std::size_t node_words_;
  KRemEngine engine_;
  const CancelToken* cancel_;
  std::vector<std::uint64_t> projections_;  ///< Accept's n²-bit scratch
};

// --- Sparse frontier tuple store -------------------------------------------
//
// At k = 0 a dense macro tuple is n·⌈n/64⌉ words — 125 GB at a million
// nodes, and the projection scratch used for acceptance is just as large.
// The sparse store instead keeps each tuple as a sorted list of packed
// (node index, state) entries: memory proportional to the states actually
// live in the frontier. Interning is semantic (two tuples are equal iff
// their entry *sets* are), the subset DFS runs in the same exclude-first
// canonical order, and acceptance walks S's CSR rows directly — so
// verdicts, witnesses and tuples_explored are bit-identical to the dense
// store on any input both can afford.

/// Packs frontier entry (i, state): sorting these u64s sorts by node index
/// first, then state — exactly the row-major order of the dense bitset.
inline std::uint64_t PackEntry(std::size_t i, AgState state) {
  return (static_cast<std::uint64_t>(i) << 32) | state;
}

/// The first column in [at, end) not below v, galloping from `at`: the
/// entries of one row ask for ascending v, so the answer is usually at or
/// near where the previous one stopped.
inline const NodeId* SeekColumn(const NodeId* at, const NodeId* end,
                                NodeId v) {
  if (at == end || *at >= v) {
    return at;
  }
  std::size_t step = 1;
  while (step < static_cast<std::size_t>(end - at) && at[step] < v) {
    at += step;
    step *= 2;
  }
  return std::lower_bound(
      at + 1, at + std::min(step, static_cast<std::size_t>(end - at)), v);
}

struct SparseBlockScratch : ScratchBase {
  /// Candidate c's words: its part for a single-part candidate, else the
  /// arena.
  std::span<const std::uint64_t> Words(const Candidate& c) const {
    if (c.part == Candidate::kArena) {
      return ScratchBase::Words(c);
    }
    return {parts[c.part].data() + c.offset, c.count};
  }

  std::vector<std::vector<std::uint64_t>> parts;  ///< per pattern, sorted
};

/// The sparse frontier store: successor generation derives each live
/// entry's successors on the fly from the graph's out-edges
/// (AgStateSpace::ForEachSuccessor — no assignment graph is built), buckets
/// them by pattern, then enumerates condition subsets in the same
/// exclude-first DFS order as DenseStore. A single-part candidate is hashed
/// and interned straight from its part; only unions of several parts are
/// assembled in the arena. Acceptance merge-walks the entry list against
/// S's CSR rows.
class SparseStore {
 public:
  using Scratch = SparseBlockScratch;
  static constexpr const char* kInitAttr = "entries";

  SparseStore(const AgStateSpace& space, const DataGraph& graph,
              const CancelToken* cancel)
      : space_(space),
        graph_(graph),
        n_(graph.NumNodes()),
        num_patterns_(space.num_patterns()),
        cancel_(cancel) {}

  /// Entry lists vary in length: the interner keeps offsets.
  std::size_t width() const { return 0; }

  /// Sparse scratch grows with the live frontier, so it has no fixed
  /// per-block size; the sparse search runs sequentially and never sizes a
  /// parallel batch.
  std::size_t ScratchBytes() const { return 0; }

  /// Entries of the initial tuple: one per node.
  std::size_t InitialWords() const { return n_; }

  /// Writes Q_i = {(v_i, ⊥^k)}. Node indices increase, so the entry list is
  /// born sorted.
  void WriteInitialTuple(std::uint64_t* initial) const {
    for (NodeId v = 0; v < n_; v++) {
      initial[v] = PackEntry(v, space_.InitialState(v));
    }
  }

  void InitScratch(SparseBlockScratch* s) const {
    s->parts.resize(num_patterns_);
    s->candidates.reserve(16);
  }

  void Generate(std::span<const std::uint64_t> tuple, std::uint32_t store_mask,
                LabelId label, SparseBlockScratch* s) const {
    const std::uint64_t* entries = tuple.data();
    std::size_t count = tuple.size();
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
      space_.ForEachSuccessor(
          graph_, static_cast<AgState>(entries[e]), store_mask, label,
          [s, i](AgState target, std::uint8_t pattern) {
            s->parts[pattern].push_back(PackEntry(i, target));
          });
    }
    for (std::uint32_t p = 0; p < num_patterns_; p++) {
      std::vector<std::uint64_t>& part = s->parts[p];
      if (part.empty()) {
        continue;
      }
      if (!std::is_sorted(part.begin(), part.end())) {
        std::sort(part.begin(), part.end());
      }
      part.erase(std::unique(part.begin(), part.end()), part.end());
      s->achieved.push_back(static_cast<std::uint8_t>(p));
    }
    if (s->achieved.empty()) {
      return;
    }
    s->included_count = 0;
    EnumerateSubsets(0, 0, s);
  }

  /// Safety and acceptance of tuple `index` in one walk of S's CSR rows:
  /// every (v', σ) ∈ Q_i needs ⟨v_i, v'⟩ ∈ S, and a safe tuple solves each
  /// ⟨v_i, v'⟩ it contains. Pairs are solved as the walk meets them; an
  /// unsafe tuple accepts no pair, so meeting an entry outside S undoes
  /// what the walk solved (a second walk over the entries before it).
  template <typename Rel>
  void Accept(std::span<const std::uint64_t> entries, std::size_t index,
              const Rel& /*relation*/, PairBook* book) const {
    auto solve = [book, index](std::size_t j) { book->Solve(j, index); };
    auto unsolve = [book, index](std::size_t j) { book->Unsolve(j, index); };
    std::size_t safe = WalkRows(entries, book->rows, solve);
    if (safe < entries.size()) {
      WalkRows(entries.first(safe), book->rows, unsolve);
    }
  }

 private:
  /// Merge-walks the entry list against S's CSR rows, calling match(j) with
  /// each entry's pair index in S. Stops at the first entry whose pair is
  /// not in S; returns how many entries came before it. Entries are sorted
  /// by (node index, state) and NodeOf is monotone in the state, so within
  /// a row the targets never decrease and the walk never backs up.
  template <typename Match>
  std::size_t WalkRows(std::span<const std::uint64_t> entries,
                       const PairRows& rows, Match&& match) const {
    const NodeId* cols = rows.cols().data();
    std::span<const std::uint64_t> offsets = rows.offsets();
    std::uint64_t row = ~std::uint64_t{0};
    const NodeId* at = nullptr;
    const NodeId* end = nullptr;
    for (std::size_t e = 0; e < entries.size(); e++) {
      if ((entries[e] >> 32) != row) {
        row = entries[e] >> 32;
        at = cols + offsets[row];
        end = cols + offsets[row + 1];
      }
      NodeId v = space_.NodeOf(static_cast<AgState>(entries[e]));
      at = SeekColumn(at, end, v);
      if (at == end || *at != v) {
        return e;
      }
      match(static_cast<std::size_t>(at - cols));
    }
    return entries.size();
  }

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
    // A single part is already sorted and deduplicated: the candidate is
    // the part itself.
    if (s->included_count == 1) {
      std::uint8_t pattern = s->included[0];
      const std::vector<std::uint64_t>& part = s->parts[pattern];
      s->candidates.push_back(
          Candidate{condition, HashTupleWords(part.data(), part.size()),
                    pattern, 0, part.size()});
      return;
    }
    // From-scratch union of the included parts at the arena's end:
    // concatenate the sorted lists, re-sort, dedup — the sets match the
    // dense Emit's ORs.
    std::size_t offset = s->arena.size();
    for (std::size_t j = 0; j < s->included_count; j++) {
      const std::vector<std::uint64_t>& part = s->parts[s->included[j]];
      s->arena.insert(s->arena.end(), part.begin(), part.end());
    }
    auto begin = s->arena.begin() + static_cast<std::ptrdiff_t>(offset);
    std::sort(begin, s->arena.end());
    s->arena.erase(std::unique(begin, s->arena.end()), s->arena.end());
    std::size_t count = s->arena.size() - offset;
    s->candidates.push_back(
        Candidate{condition, HashTupleWords(s->arena.data() + offset, count),
                  Candidate::kArena, offset, count});
  }

  const AgStateSpace& space_;
  const DataGraph& graph_;
  std::size_t n_;
  std::size_t num_patterns_;
  const CancelToken* cancel_;
};

/// Fills result->paths and turns book->solution into each pair's path
/// index: pair j's blocks are the path from the initial tuple to its
/// solution tuple along parent links. Each distinct solution tuple's path
/// is stored once, in first-occurrence order, in one shared run of blocks
/// that every pair it solves views.
void Paths(PairBook* book, const std::vector<std::size_t>& parent,
           const std::vector<BasicRemBlock>& incoming,
           KRemDefinabilityResult* result) {
  constexpr std::size_t kNoPath = static_cast<std::size_t>(-1);
  std::vector<std::size_t> path_of(parent.size(), kNoPath);
  std::vector<std::size_t> tuples;  ///< each path's solution tuple
  std::vector<std::size_t> ends;    ///< each path's end in the block run
  std::size_t total = 0;
  for (std::size_t& index : book->solution) {
    if (path_of[index] == kNoPath) {
      path_of[index] = tuples.size();
      tuples.push_back(index);
      for (std::size_t at = index; at != 0; at = parent[at]) {
        total++;
      }
      ends.push_back(total);
    }
    index = path_of[index];
  }
  auto blocks = std::make_shared<std::vector<BasicRemBlock>>(total);
  std::size_t begin = 0;
  result->paths.reserve(tuples.size());
  for (std::size_t p = 0; p < tuples.size(); p++) {
    std::size_t at = tuples[p];
    for (std::size_t slot = ends[p]; slot > begin; at = parent[at]) {
      (*blocks)[--slot] = incoming[at];
    }
    result->paths.emplace_back(blocks->data() + begin, ends[p] - begin);
    begin = ends[p];
  }
  result->path_blocks = std::move(blocks);
}

/// Successor-generation workers for a search that asked for `requested`:
/// at most the hardware's concurrency, but never fewer than two, so a
/// parallel request stays parallel on a one-core machine. Results are
/// bit-identical at every thread count, so the clamp never changes one.
std::size_t ClampThreads(std::size_t requested) {
  std::size_t cap =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 2);
  return std::min(requested, cap);
}

/// The k-REM BFS over the macro tuples of Lemma 21, generic over the tuple
/// store (DenseStore or SparseStore) and the relation representation: only
/// the dense store's Test() and the PairBook's CSR rows are used, so any
/// AdaptiveRelation backend drives it without densification. Heads are
/// expanded in interning order, blocks in (store set, letter) order and
/// candidates in subset-DFS order, so both stores and every `num_threads`
/// produce the same verdict, paths and tuples_explored.
template <typename Store, typename Rel>
Result<KRemDefinabilityResult> Search(const AgStateSpace& space, Store* store,
                                      const Rel& relation, PairBook* book,
                                      const KRemDefinabilityOptions& options,
                                      std::size_t num_threads) {
  using Scratch = typename Store::Scratch;
  KRemDefinabilityResult result;

  // BFS bookkeeping: the tuple interner, parent links, and the incoming
  // block of each tuple for witness reconstruction.
  TupleInterner tuples(store->width(), options.budget);
  std::vector<std::size_t> parent;
  std::vector<BasicRemBlock> incoming;
  auto process_tuple = [&](std::size_t index) {
    store->Accept(tuples.At(index), index, relation, book);
  };

  {
    GQD_TRACE_SPAN(span, "krem.arena_init");
    GQD_TRACE_SPAN_ATTR(span, Store::kInitAttr, store->InitialWords());
    bool inserted = false;
    tuples.InternInPlace(
        store->InitialWords(),
        [store](std::uint64_t* words) { store->WriteInitialTuple(words); },
        &inserted);
    parent.push_back(PairBook::kUnsolved);
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
  std::size_t num_blocks = space.num_store_masks() * space.num_labels();
  std::optional<ThreadPool> pool;
  if (std::size_t threads = ClampThreads(num_threads); threads > 1) {
    pool.emplace(threads);
  }
  std::size_t batch_heads = 1;
  if (pool.has_value()) {
    constexpr std::size_t kBatchScratchBudgetBytes = std::size_t{256} << 20;
    std::size_t per_head_bytes = num_blocks * store->ScratchBytes();
    std::size_t memory_cap =
        kBatchScratchBudgetBytes / (per_head_bytes == 0 ? 1 : per_head_bytes);
    batch_heads = std::min<std::size_t>(
        {8 * pool->num_threads(), 128,
         memory_cap == 0 ? std::size_t{1} : memory_cap});
    if (batch_heads == 0) {
      batch_heads = 1;
    }
  }
  std::vector<Scratch> scratch(pool.has_value() ? batch_heads * num_blocks
                                                : 1);
  for (Scratch& s : scratch) {
    store->InitScratch(&s);
  }

  // Flush the planned engine's per-scratch kernel-class hit counters into
  // the global plan metrics exactly once, on every exit path.
  struct KernelHitsFlusher {
    const std::vector<Scratch>* scratch;
    ~KernelHitsFlusher() {
      std::uint64_t hits[kNumKernelClasses] = {};
      bool any = false;
      for (const Scratch& s : *scratch) {
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
  auto merge_block = [&](Scratch& s, std::uint32_t mask, LabelId label,
                         std::size_t head) {
    for (const Candidate& c : s.candidates) {
      if (tuples.fault()) {
        // Injected growth failure: stop interning so the fixed-size probe
        // table cannot fill up; the BFS loop surfaces the fault.
        return;
      }
      bool inserted = false;
      std::size_t index = tuples.Intern(s.Words(c), c.hash, &inserted);
      if (inserted) {
        parent.push_back(head);
        incoming.push_back(BasicRemBlock{mask, label, c.condition});
        process_tuple(index);
        if (book->unsolved == 0) {
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
  auto injected_fault = [] {
    return Status::ResourceExhausted(
        "injected tuple-store growth failure (failpoint krem.arena.grow)");
  };
  // The checks at every head boundary, in order: an injected growth fault,
  // a ResourceBudget trip (kBudgetExhausted with the structured
  // partial-progress report), and the legacy max_tuples cap
  // (kBudgetExhausted without one). Returns what the search stops with.
  auto stop_at =
      [&](std::size_t at) -> std::optional<Result<KRemDefinabilityResult>> {
    if (tuples.fault()) {
      return injected_fault();
    }
    if (options.budget != nullptr && options.budget->Exhausted()) {
      result.verdict = DefinabilityVerdict::kBudgetExhausted;
      result.tuples_explored = tuples.size();
      result.partial =
          PartialProgress{tuples.size(), depth_of(at),
                          options.budget->bytes_peak(), "krem-bfs"};
      return result;
    }
    if (tuples.size() > options.max_tuples) {
      result.verdict = DefinabilityVerdict::kBudgetExhausted;
      result.tuples_explored = tuples.size();
      return result;
    }
    return std::nullopt;
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
  while (head < tuples.size() && book->unsolved > 0) {
    if (auto stop = stop_at(head)) {
      return std::move(*stop);
    }
    if (pool.has_value()) {
      // Generate every block of up to batch_heads known heads in one
      // parallel round; interning happens only in the merge below, once
      // every worker has finished.
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
          pool->Submit([store, &scratch, &tuples, &done_mutex, &done_cv,
                        &remaining, &space, head, batch, num_workers,
                        num_blocks, tracer, w] {
            Tracer::Scope scope(tracer);
            GQD_TRACE_SPAN(worker_span, "krem.worker_generate");
            GQD_TRACE_SPAN_ATTR(worker_span, "worker", w);
            for (std::size_t b = w; b < batch; b += num_workers) {
              std::span<const std::uint64_t> words = tuples.At(head + b);
              for (std::size_t t = 0; t < num_blocks; t++) {
                store->Generate(
                    words, static_cast<std::uint32_t>(t / space.num_labels()),
                    static_cast<LabelId>(t % space.num_labels()),
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
      for (std::size_t b = 0; b < batch && book->unsolved > 0; b++, head++) {
        advance_generation_span(head);
        if (auto stop = stop_at(head)) {
          return std::move(*stop);
        }
        GQD_TRACE_SPAN(merge_span, "krem.merge");
        GQD_TRACE_SPAN_ATTR(merge_span, "head", head);
        for (std::size_t t = 0; t < num_blocks && book->unsolved > 0; t++) {
          merge_block(scratch[b * num_blocks + t],
                      static_cast<std::uint32_t>(t / space.num_labels()),
                      static_cast<LabelId>(t % space.num_labels()), head);
        }
      }
    } else {
      advance_generation_span(head);
      for (std::uint32_t mask = 0;
           mask < space.num_store_masks() && book->unsolved > 0; mask++) {
        for (LabelId label = 0;
             label < space.num_labels() && book->unsolved > 0; label++) {
          if (options.cancel != nullptr && options.cancel->Expired()) {
            return options.cancel->Check();
          }
          store->Generate(tuples.At(head), mask, label, &scratch[0]);
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
  if (book->unsolved > 0) {
    result.verdict = DefinabilityVerdict::kNotDefinable;
    return result;
  }

  result.verdict = DefinabilityVerdict::kDefinable;
  Paths(book, parent, incoming, &result);
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

/// The search half on a built setup: the BFS over its tuple store. The
/// sparse frontier store runs sequentially.
template <typename Rel>
Result<KRemSearchOutcome> SearchWithSetup(
    const KRemSetup& setup, const DataGraph& graph, const Rel& relation,
    const KRemDefinabilityOptions& options) {
  PairBook book(RowsOf(relation));
  auto search = [&]() -> Result<KRemDefinabilityResult> {
    if (setup.tuple_store() == KRemTupleStore::kDense) {
      DenseStore store(setup, graph.NumNodes(), options.engine,
                       options.cancel);
      return Search(setup.state_space(), &store, relation, &book, options,
                    options.num_threads);
    }
    SparseStore store(setup.state_space(), graph, options.cancel);
    return Search(setup.state_space(), &store, relation, &book, options, 1);
  };
  GQD_ASSIGN_OR_RETURN(KRemDefinabilityResult result, search());
  KRemSearchOutcome outcome{std::move(result), std::move(book.rows), {}};
  if (outcome.result.verdict == DefinabilityVerdict::kDefinable) {
    outcome.pair_path = std::move(book.solution);
  }
  return outcome;
}

/// The empty relation is definable (e.g. by a[¬⊤], or by any REM whose
/// language contains no data path of the graph) — no setup needed.
KRemSearchOutcome EmptyRelationOutcome() {
  KRemSearchOutcome outcome;
  outcome.result.verdict = DefinabilityVerdict::kDefinable;
  return outcome;
}

template <typename Rel>
Result<KRemSearchOutcome> SearchKRemDispatch(
    const DataGraph& graph, const Rel& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  if (relation.num_nodes() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation is over a different node count than the graph");
  }
  if (relation.Empty()) {
    return EmptyRelationOutcome();
  }
  GQD_ASSIGN_OR_RETURN(KRemSetup setup, BuildKRemSetup(graph, k, options));
  return SearchWithSetup(setup, graph, relation, options);
}

/// The k-REM result of a search: one witness per pair, in Pairs() order,
/// viewing its path.
Result<KRemDefinabilityResult> WithWitnesses(
    Result<KRemSearchOutcome> searched) {
  if (!searched.ok()) {
    return searched.status();
  }
  KRemSearchOutcome& outcome = searched.value();
  KRemDefinabilityResult& result = outcome.result;
  if (!outcome.pair_path.empty()) {
    result.witnesses.reserve(outcome.pairs.size());
    outcome.pairs.ForEach([&](std::size_t j, NodeId from, NodeId to) {
      std::size_t path = outcome.pair_path[j];
      result.witnesses.push_back(
          KRemWitness{from, to, result.paths[path], path});
    });
  }
  return std::move(result);
}

}  // namespace

Result<KRemSetup> BuildKRemSetup(const DataGraph& graph, std::size_t k,
                                 const KRemDefinabilityOptions& options) {
  // First: the footprint loop below runs k times.
  GQD_RETURN_NOT_OK(AgStateSpace::CheckRegisterCount(k));
  KRemSetup setup;
  setup.auto_store_ =
      DenseTupleFootprintBytes(graph.NumNodes(), graph.NumDataValues(), k) <=
                  kDenseTupleBytesCap &&
              AssignmentGraph::WithinCaps(graph, k)
          ? KRemTupleStore::kDense
          : KRemTupleStore::kSparseFrontier;
  setup.store_ = options.tuple_store == KRemTupleStore::kAuto
                     ? setup.auto_store_
                     : options.tuple_store;
  setup.engine_ = options.engine;
  if (setup.store_ == KRemTupleStore::kSparseFrontier) {
    // Successors come from the graph on the fly: the only limit is the
    // 32-bit state in a packed frontier entry.
    std::uint64_t states = AgStateSpace::StateCount(graph, k);
    if (states > AgStateSpace::kMaxStates) {
      std::string what = "k-REM state space too large: " +
                         std::to_string(states) +
                         " states exceed the sparse tuple store's 32-bit "
                         "state encoding";
      if (options.budget != nullptr && options.budget->max_bytes() != 0) {
        return Status::ResourceExhausted(
            what + " (budget " + std::to_string(options.budget->max_bytes()) +
            " bytes)");
      }
      return Status::OutOfRange(what);
    }
    setup.space_ = AgStateSpace(graph, k);
    return setup;
  }
  GQD_ASSIGN_OR_RETURN(AssignmentGraph ag,
                       AssignmentGraph::Build(graph, k, options.budget));
  setup.space_ = ag.space();
  AssignmentGraph& held = setup.graph_.emplace(std::move(ag));
  if (options.engine == KRemEngine::kPlanned) {
    setup.dispatch_ = KernelDispatchTable::Build(held);
    setup.with_dispatch_ = true;
    if (setup.dispatch_.enabled() &&
        setup.dispatch_.class_counts()[static_cast<std::size_t>(
            TransitionKernelClass::kDense)] == 0) {
      held.ReleaseKernelRows();
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
         (!graph_.has_value() || budget == nullptr ||
          budget->max_bytes() == 0 ||
          budget->bytes_used() + graph_->BuildChargeBytes(true) <=
              budget->max_bytes());
}

Status KRemSetup::ChargeReuse(const ResourceBudget* budget) const {
  return graph_.has_value() ? graph_->ChargeReuse(budget) : Status::OK();
}

std::size_t KRemSetup::HeldBytes() const {
  if (!graph_.has_value()) {
    return 0;
  }
  return graph_->HeldBytes() + (with_dispatch_ ? dispatch_.pool_bytes() : 0);
}

Result<KRemSearchOutcome> SearchKRem(const KRemSetup& setup,
                                     const DataGraph& graph,
                                     const AdaptiveRelation& relation,
                                     const KRemDefinabilityOptions& options) {
  if (relation.num_nodes() != graph.NumNodes() ||
      setup.state_space().num_nodes() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation, setup and graph disagree on the node count");
  }
  if (!setup.Suits(options)) {
    return Status::InvalidArgument(
        "the k-REM setup was built for another engine or tuple store");
  }
  if (relation.Empty()) {
    return EmptyRelationOutcome();
  }
  return SearchWithSetup(setup, graph, relation, options);
}

Result<KRemSearchOutcome> SearchKRem(const DataGraph& graph,
                                     const BinaryRelation& relation,
                                     std::size_t k,
                                     const KRemDefinabilityOptions& options) {
  return SearchKRemDispatch(graph, relation, k, options);
}

Result<KRemSearchOutcome> SearchKRem(const DataGraph& graph,
                                     const AdaptiveRelation& relation,
                                     std::size_t k,
                                     const KRemDefinabilityOptions& options) {
  return SearchKRemDispatch(graph, relation, k, options);
}

Result<KRemDefinabilityResult> CheckKRemDefinability(
    const KRemSetup& setup, const DataGraph& graph,
    const AdaptiveRelation& relation,
    const KRemDefinabilityOptions& options) {
  return WithWitnesses(SearchKRem(setup, graph, relation, options));
}

Result<KRemDefinabilityResult> CheckKRemDefinability(
    const DataGraph& graph, const BinaryRelation& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  return WithWitnesses(SearchKRem(graph, relation, k, options));
}

Result<KRemDefinabilityResult> CheckKRemDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  return WithWitnesses(SearchKRem(graph, relation, k, options));
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

RemPtr BasicRemFromBlocks(std::span<const BasicRemBlock> blocks,
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
