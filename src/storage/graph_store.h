// GraphStore: one loading abstraction over two graph backends.
//
//  - resident: the classic path — parse the node/edge text format into an
//    owned DataGraph;
//  - mmap: map a binary graph container (format.h) and serve a zero-copy
//    view-mode DataGraph whose adjacency/value sections live in the mapping.
//
// Callers never branch on the backend: every entry point returns a
// StoredGraph holding a shared_ptr<const DataGraph> (the mmap keepalive is
// hidden in the pointer's control block) plus a GraphStoreInfo describing
// how the graph is stored — backend, fingerprint, file size, resident
// bytes, load time. OpenFile sniffs the container magic, so `gqd eval g.bin
// ...` and `gqd eval g.txt ...` are the same command.
//
// Opening a container always performs the structural checks that make every
// subsequent access memory-safe (header sanity, section bounds, offset
// monotonicity, id ranges) — linear sequential scans, no hashing. The
// optional deep validation (OpenOptions::validate / ValidateGraphContainer,
// surfaced as `gqd convert --validate`) additionally re-checks the payload
// checksum, the sorted-CSR invariant, CSR↔edge-list agreement, and the
// stored fingerprint. Corruption at either level fails with a Status; it
// never crashes.

#ifndef GQD_STORAGE_GRAPH_STORE_H_
#define GQD_STORAGE_GRAPH_STORE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/status.h"
#include "graph/data_graph.h"

namespace gqd {

/// How a loaded graph is stored in this process.
enum class GraphBackend {
  kResident,  ///< parsed text, owned vectors
  kMapped,    ///< binary container served zero-copy out of an mmap
};

/// Label-friendly backend name: "resident" or "mmap".
const char* GraphBackendName(GraphBackend backend);

/// How a StoredGraph is held: backend, identity, and cost of loading it.
struct GraphStoreInfo {
  GraphBackend backend = GraphBackend::kResident;
  std::string fingerprint;          ///< 16 lowercase hex digits
  std::uint64_t source_bytes = 0;   ///< file (or text) size in bytes
  std::uint64_t resident_bytes = 0; ///< heap footprint of the loaded form
  std::uint64_t load_micros = 0;    ///< parse / map + check latency
};

/// The storage block of `gqd info --json` and of serve's load/info
/// responses: backend, source_bytes, resident_bytes and load_micros.
JsonValue StorageInfoToJson(const GraphStoreInfo& info);

/// A loaded graph plus its storage description. The shared_ptr keeps any
/// backing mmap alive for as long as the graph is referenced.
struct StoredGraph {
  std::shared_ptr<const DataGraph> graph;
  GraphStoreInfo info;
};

struct OpenOptions {
  /// Run the deep integrity checks (checksum, sorted CSR, CSR↔edges,
  /// fingerprint) on containers before serving them.
  bool validate = false;
};

class GraphStore {
 public:
  /// Loads `path`, sniffing the format: a container magic selects the mmap
  /// backend, anything else parses as graph text into the resident backend.
  static Result<StoredGraph> OpenFile(const std::string& path,
                                      const OpenOptions& options = {});

  /// Maps the binary container at `path`. Traced as `storage.load`.
  static Result<StoredGraph> OpenContainer(const std::string& path,
                                           const OpenOptions& options = {});

  /// Parses graph text into the resident backend.
  static Result<StoredGraph> FromText(const std::string& text);

  /// Wraps an already-built graph (generators, tests) as a StoredGraph.
  static StoredGraph FromGraph(DataGraph graph);
};

/// True iff `path` starts with the graph container magic.
bool IsGraphContainerFile(const std::string& path);

/// Deep-validates the container at `path` (checksum, invariants,
/// fingerprint) without keeping it loaded. OK means a subsequent open
/// serves exactly the graph the writer fingerprinted.
Status ValidateGraphContainer(const std::string& path);

}  // namespace gqd

#endif  // GQD_STORAGE_GRAPH_STORE_H_
