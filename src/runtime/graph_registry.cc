#include "runtime/graph_registry.h"

#include <set>
#include <utility>

#include "graph/serialization.h"

namespace gqd {

Result<RegisteredGraph> GraphRegistry::Load(const std::string& name,
                                            const std::string& text) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must be non-empty");
  }
  GQD_ASSIGN_OR_RETURN(StoredGraph stored, GraphStore::FromText(text));
  return Register(name, std::move(stored));
}

Result<RegisteredGraph> GraphRegistry::LoadFile(const std::string& name,
                                                const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must be non-empty");
  }
  GQD_ASSIGN_OR_RETURN(StoredGraph stored, GraphStore::OpenFile(path));
  return Register(name, std::move(stored));
}

RegisteredGraph GraphRegistry::Register(const std::string& name,
                                        DataGraph graph) {
  return Register(name, GraphStore::FromGraph(std::move(graph)));
}

RegisteredGraph GraphRegistry::Register(const std::string& name,
                                        StoredGraph stored) {
  RegisteredGraph entry;
  entry.fingerprint = stored.info.fingerprint;
  entry.info = stored.info;
  std::lock_guard<std::mutex> lock(mutex_);
  // Dedupe by fingerprint: re-loading identical content under any name
  // shares the already-loaded copy (and drops the fresh one, along with
  // any mapping it holds) instead of keeping two.
  for (const auto& [other_name, other] : graphs_) {
    if (other.fingerprint == entry.fingerprint) {
      graphs_[name] = other;
      return other;
    }
  }
  entry.graph = std::move(stored.graph);
  entry.setups = std::make_shared<CheckSetups>();
  graphs_[name] = entry;
  return entry;
}

Result<RegisteredGraph> GraphRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("no graph named '" + name +
                            "' is loaded (use the load command first)");
  }
  return it->second;
}

std::vector<std::string> GraphRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& [name, entry] : graphs_) {
    names.push_back(name);
  }
  return names;
}

std::size_t GraphRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

std::size_t GraphRegistry::CheckSetupBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<const CheckSetups*> counted;
  std::size_t bytes = 0;
  for (const auto& [name, entry] : graphs_) {
    if (counted.insert(entry.setups.get()).second) {
      bytes += entry.setups->held_bytes();
    }
  }
  return bytes;
}

std::string GraphRegistry::Fingerprint(const DataGraph& graph) {
  // Computed line by line (FingerprintGraphText) so fingerprinting a mapped
  // million-node graph never materializes its full text form.
  return FingerprintToHex(FingerprintGraphText(graph));
}

}  // namespace gqd
