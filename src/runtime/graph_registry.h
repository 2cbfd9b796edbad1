// Named, immutable, fingerprinted data graphs shared across requests.
//
// The batch CLI re-parses its graph file on every invocation; the serving
// layer instead loads each graph once into a GraphRegistry and hands out
// shared_ptr<const DataGraph> — concurrent requests share one parsed copy
// with no locking beyond the registry map itself.
//
// Graphs arrive through the GraphStore, so a registry entry may be resident
// (parsed text) or a zero-copy view of an mmap-mapped binary container; the
// entry's GraphStoreInfo says which. Every entry carries a content
// fingerprint: a 64-bit FNV-1a hash of the canonical text serialization
// (WriteGraphText), rendered as 16 hex digits. Result-cache keys embed the
// fingerprint rather than the name, so re-loading a name with different
// content can never serve stale cached relations — and loading identical
// content under any name dedupes onto the already-loaded copy instead of
// holding a second one.

#ifndef GQD_RUNTIME_GRAPH_REGISTRY_H_
#define GQD_RUNTIME_GRAPH_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/data_graph.h"
#include "runtime/check_setups.h"
#include "storage/graph_store.h"

namespace gqd {

/// One registered graph: the shared loaded form, its fingerprint, how the
/// store is holding it (backend, sizes, load time), and the checker setups
/// built for it so far (shared exactly as widely as the graph itself).
struct RegisteredGraph {
  std::shared_ptr<const DataGraph> graph;
  std::string fingerprint;  ///< 16 lowercase hex digits
  GraphStoreInfo info;
  std::shared_ptr<CheckSetups> setups;
};

class GraphRegistry {
 public:
  GraphRegistry() = default;
  GraphRegistry(const GraphRegistry&) = delete;
  GraphRegistry& operator=(const GraphRegistry&) = delete;

  /// Parses `text` (the node/edge format) and registers it under `name`,
  /// replacing any previous graph of that name. Returns the new entry.
  Result<RegisteredGraph> Load(const std::string& name,
                               const std::string& text);

  /// Loads the file at `path` through the GraphStore (container files map,
  /// text files parse) and registers it under `name`. This is how a serve
  /// worker attaches a multi-gigabyte on-disk graph without re-parsing.
  Result<RegisteredGraph> LoadFile(const std::string& name,
                                   const std::string& path);

  /// Registers an already-built graph (in-process embedding, tests).
  RegisteredGraph Register(const std::string& name, DataGraph graph);

  /// Registers a StoredGraph from the GraphStore under `name`.
  RegisteredGraph Register(const std::string& name, StoredGraph stored);

  /// Looks up a graph by name.
  Result<RegisteredGraph> Get(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  std::size_t size() const;

  /// Bytes of checker setups held for the registered graphs (each shared
  /// holder counted once): the gqd_check_setup_bytes gauge.
  std::size_t CheckSetupBytes() const;

  /// Content fingerprint of a graph: FNV-1a 64 over WriteGraphText.
  static std::string Fingerprint(const DataGraph& graph);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, RegisteredGraph> graphs_;
};

}  // namespace gqd

#endif  // GQD_RUNTIME_GRAPH_REGISTRY_H_
