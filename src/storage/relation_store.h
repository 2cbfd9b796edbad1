// Binary relation container (.gqdr): relations ship beside .gqdg graphs.
//
// PR 7's graph container made million-node graphs cheap to load; this is
// the matching store for the candidate relations `gqd check` consumes. A
// container is one little-endian file:
//
//   +------------------------------+ 0
//   | RelationContainerHeader      |  128 bytes, fixed
//   +------------------------------+ 128
//   | pairs  u32[2 * num_pairs]    |  row-major sorted (u, v) coordinates
//   +------------------------------+ file_size
//
// The pair list is the canonical sorted coordinate order every relation
// representation builds from and emits (graph/sparse_relation.h), so a
// reader can hand the section straight to AdaptiveRelation::FromPairs. The
// header carries nnz statistics (distinct sources, max row degree) so
// admission control can estimate the cost of every backend before touching
// the payload, plus the fingerprint of the graph the relation was generated
// against (0 = unbound) so a mismatched graph/relation pairing is caught at
// load time instead of producing nonsense verdicts.
//
// Validation mirrors the graph container: header sanity and structural
// bounds/sortedness scans always run (every later access is then
// memory-safe), and the FNV-1a payload checksum is re-checked on open —
// the section is O(nnz) bytes, so the scan costs what reading it costs.

#ifndef GQD_STORAGE_RELATION_STORE_H_
#define GQD_STORAGE_RELATION_STORE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "graph/data_graph.h"
#include "graph/sparse_relation.h"
#include "storage/format.h"

namespace gqd {

/// "GQDR" read as a little-endian u32.
inline constexpr std::uint32_t kRelationContainerMagic = 0x52445147u;

inline constexpr std::uint32_t kRelationContainerVersion = 1;

/// The fixed 128-byte relation container header.
struct RelationContainerHeader {
  std::uint32_t magic = kRelationContainerMagic;
  std::uint32_t version = kRelationContainerVersion;
  std::uint64_t file_size = 0;          ///< total bytes, header included
  std::uint64_t payload_checksum = 0;   ///< FNV-1a 64 of bytes after header
  std::uint64_t graph_fingerprint = 0;  ///< binding graph, 0 = unbound
  std::uint64_t num_nodes = 0;
  std::uint64_t num_pairs = 0;
  std::uint64_t distinct_sources = 0;  ///< rows with at least one pair
  std::uint64_t max_row_degree = 0;    ///< largest single-row cardinality
  SectionRange pairs;                  ///< u32[2 * num_pairs]
  std::uint8_t reserved[48] = {};
};

static_assert(sizeof(RelationContainerHeader) == 128,
              "relation container header must stay 128 bytes");

/// How a stored relation looks before any representation is built: the
/// header statistics plus load cost, surfaced by `gqd info` and used by
/// the admission estimate.
struct RelationStoreInfo {
  std::uint64_t num_nodes = 0;
  std::uint64_t num_pairs = 0;
  std::uint64_t distinct_sources = 0;
  std::uint64_t max_row_degree = 0;
  std::uint64_t graph_fingerprint = 0;  ///< 0 = unbound
  std::uint64_t source_bytes = 0;
  std::uint64_t load_micros = 0;
};

/// A loaded relation: canonical row-major sorted pairs plus store info.
struct StoredRelation {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  RelationStoreInfo info;
};

/// Writes `pairs` (canonicalized: row-major sorted, deduplicated) as a
/// relation container bound to `graph_fingerprint` (pass 0 to leave the
/// relation unbound). Traced as `relation.write`; failpoint
/// `relation.write`.
Status WriteRelationContainer(std::size_t num_nodes,
                              std::vector<std::pair<NodeId, NodeId>> pairs,
                              std::uint64_t graph_fingerprint,
                              const std::string& path);

/// Opens and fully validates the relation container at `path` (structural
/// bounds + strict row-major sortedness + payload checksum). If
/// `expected_graph_fingerprint` is nonzero and the container is bound, the
/// fingerprints must match. Traced as `relation.load`; failpoint
/// `relation.open`.
Result<StoredRelation> OpenRelationContainer(
    const std::string& path, std::uint64_t expected_graph_fingerprint = 0);

/// True iff `path` starts with the relation container magic.
bool IsRelationContainerFile(const std::string& path);

/// A check's relation after admission: built when `status` is OK.
struct RelationAdmission {
  /// The backend chosen for the relation (never kAuto).
  RelationBackend backend = RelationBackend::kDense;
  /// EstimateRelationBytes of that backend, charged to the budget.
  std::size_t estimate_bytes = 0;
  /// OK, or the budget's refusal; nothing is built when refused.
  Status status;
  AdaptiveRelation relation;
};

/// Admits and builds the relation of one definability check, for the CLI
/// and serve alike: resolves `choice` (kAuto: ChooseRelationBackend over
/// the pair count), charges the backend's estimated bytes to `budget` when
/// there is one and refuses before building if that exhausts it (counted
/// in RelationCounters::admission_refusals), else builds the relation,
/// notes its backend and adds its build time to RelationCounters. Traced
/// as `relation.build`.
RelationAdmission AdmitRelation(std::size_t num_nodes,
                                std::vector<std::pair<NodeId, NodeId>> pairs,
                                RelationBackend choice,
                                const ResourceBudget* budget);

}  // namespace gqd

#endif  // GQD_STORAGE_RELATION_STORE_H_
