#include "storage/graph_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "graph/serialization.h"
#include "obs/trace.h"
#include "storage/format.h"
#include "storage/metrics.h"
#include "storage/mmap_file.h"

namespace gqd {

namespace {

/// Keepalive for a mapped graph: the shared_ptr<const DataGraph> handed to
/// callers aliases `graph` while owning this holder, so the mapping lives
/// exactly as long as any reference to the graph does.
struct MappedGraph {
  MmapFile file;
  DataGraph graph;
};

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IOError("corrupt graph container '" + path + "': " + what);
}

template <typename T>
const T* SectionPtr(const std::byte* base, const SectionRange& range) {
  return reinterpret_cast<const T*>(base + range.offset);
}

/// Header-level sanity: magic, version, declared sizes vs the mapped file.
/// After this returns OK every section pointer is in bounds.
Result<const GraphContainerHeader*> CheckHeader(const MmapFile& file,
                                                const std::string& path) {
  if (file.size() < sizeof(GraphContainerHeader)) {
    return Corrupt(path, "file smaller than the container header");
  }
  const auto* header =
      reinterpret_cast<const GraphContainerHeader*>(file.data());
  if (header->magic != kGraphContainerMagic) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a gqd graph container");
  }
  if (header->version != kGraphContainerVersion) {
    return Status::InvalidArgument(
        "unsupported container version " + std::to_string(header->version) +
        " in '" + path + "' (this build reads version " +
        std::to_string(kGraphContainerVersion) + ")");
  }
  if (header->file_size != file.size()) {
    return Corrupt(path, "header records " + std::to_string(header->file_size) +
                             " bytes but the file has " +
                             std::to_string(file.size()) + " (truncated?)");
  }
  // Count bounds before any size arithmetic, so the multiplications below
  // cannot overflow (each node/edge needs several bytes of sections).
  if (header->num_nodes > std::numeric_limits<NodeId>::max() ||
      header->num_nodes > file.size() ||
      header->num_edges > file.size() / sizeof(LabeledEdge)) {
    return Corrupt(path, "node/edge counts exceed the file size");
  }
  const std::uint64_t n = header->num_nodes;
  const std::uint64_t m = header->num_edges;
  const bool has_names = (header->flags & kFlagHasNodeNames) != 0;
  std::uint64_t expected[kNumGraphSections];
  constexpr std::uint64_t kAnySize = std::numeric_limits<std::uint64_t>::max();
  expected[kLabelNameOffsets] =
      (static_cast<std::uint64_t>(header->num_labels) + 1) * 8;
  expected[kLabelNameBlob] = kAnySize;
  expected[kValueNameOffsets] =
      (static_cast<std::uint64_t>(header->num_values) + 1) * 8;
  expected[kValueNameBlob] = kAnySize;
  expected[kNodeValues] = n * sizeof(ValueId);
  expected[kEdges] = m * sizeof(Edge);
  expected[kOutOffsets] = (n + 1) * 8;
  expected[kOutEntries] = m * sizeof(LabeledEdge);
  expected[kInOffsets] = (n + 1) * 8;
  expected[kInEntries] = m * sizeof(LabeledEdge);
  expected[kNodeNameOffsets] = has_names ? (n + 1) * 8 : 0;
  expected[kNodeNameBlob] = has_names ? kAnySize : 0;
  for (std::uint32_t s = 0; s < kNumGraphSections; s++) {
    const SectionRange& range = header->sections[s];
    if (range.offset % 8 != 0 ||
        range.offset < sizeof(GraphContainerHeader) ||
        range.size > file.size() ||
        range.offset > file.size() - range.size) {
      return Corrupt(path, "section " + std::to_string(s) +
                               " extends past the end of the file");
    }
    if (expected[s] != kAnySize && range.size != expected[s]) {
      return Corrupt(path, "section " + std::to_string(s) + " has " +
                               std::to_string(range.size) + " bytes, expected " +
                               std::to_string(expected[s]));
    }
  }
  return header;
}

/// Cumulative-offsets invariant: first 0, monotone, last == blob size.
Status CheckOffsets(const std::uint64_t* offsets, std::uint64_t count,
                    std::uint64_t blob_size, const std::string& path,
                    const char* what) {
  if (offsets[0] != 0) {
    return Corrupt(path, std::string(what) + " offsets do not start at 0");
  }
  for (std::uint64_t i = 0; i < count; i++) {
    if (offsets[i + 1] < offsets[i]) {
      return Corrupt(path, std::string(what) + " offsets are not monotone");
    }
  }
  if (offsets[count] != blob_size) {
    return Corrupt(path, std::string(what) +
                             " offsets do not cover their blob");
  }
  return Status::OK();
}

/// Structural checks that make every later access memory-safe: id ranges
/// in all columnar sections plus every cumulative-offsets invariant.
/// Linear sequential scans — the price of serving an untrusted file.
Status CheckStructure(const std::byte* base, const GraphContainerHeader& h,
                      const std::string& path) {
  const std::uint64_t n = h.num_nodes;
  const std::uint64_t m = h.num_edges;
  GQD_RETURN_NOT_OK(CheckOffsets(
      SectionPtr<std::uint64_t>(base, h.sections[kLabelNameOffsets]),
      h.num_labels, h.sections[kLabelNameBlob].size, path, "label-name"));
  GQD_RETURN_NOT_OK(CheckOffsets(
      SectionPtr<std::uint64_t>(base, h.sections[kValueNameOffsets]),
      h.num_values, h.sections[kValueNameBlob].size, path, "value-name"));
  if ((h.flags & kFlagHasNodeNames) != 0) {
    GQD_RETURN_NOT_OK(CheckOffsets(
        SectionPtr<std::uint64_t>(base, h.sections[kNodeNameOffsets]), n,
        h.sections[kNodeNameBlob].size, path, "node-name"));
  }
  const ValueId* values = SectionPtr<ValueId>(base, h.sections[kNodeValues]);
  for (std::uint64_t v = 0; v < n; v++) {
    if (values[v] >= h.num_values) {
      return Corrupt(path, "node data value out of range");
    }
  }
  const Edge* edges = SectionPtr<Edge>(base, h.sections[kEdges]);
  for (std::uint64_t e = 0; e < m; e++) {
    if (edges[e].from >= n || edges[e].to >= n ||
        edges[e].label >= h.num_labels) {
      return Corrupt(path, "edge endpoint or label out of range");
    }
  }
  for (GraphSectionId dir : {kOutOffsets, kInOffsets}) {
    const std::uint64_t* offsets = SectionPtr<std::uint64_t>(
        base, h.sections[dir]);
    GQD_RETURN_NOT_OK(CheckOffsets(offsets, n, m, path, "adjacency"));
    const LabeledEdge* entries = SectionPtr<LabeledEdge>(
        base, h.sections[dir == kOutOffsets ? kOutEntries : kInEntries]);
    for (std::uint64_t e = 0; e < m; e++) {
      if (entries[e].node >= n || entries[e].label >= h.num_labels) {
        return Corrupt(path, "adjacency entry out of range");
      }
    }
  }
  return Status::OK();
}

bool LabeledEdgeLess(const LabeledEdge& a, const LabeledEdge& b) {
  return a.label != b.label ? a.label < b.label : a.node < b.node;
}

/// Deep integrity: payload checksum, strictly-sorted per-node CSR, and
/// CSR membership of every edge in both directions.
Status CheckDeep(const std::byte* base, const GraphContainerHeader& h,
                 const std::string& path) {
  std::uint64_t checksum = Fnv1a64(base + sizeof(GraphContainerHeader),
                                   h.file_size - sizeof(GraphContainerHeader));
  if (checksum != h.payload_checksum) {
    return Corrupt(path, "payload checksum mismatch");
  }
  const std::uint64_t n = h.num_nodes;
  const std::uint64_t m = h.num_edges;
  for (GraphSectionId dir : {kOutOffsets, kInOffsets}) {
    const std::uint64_t* offsets =
        SectionPtr<std::uint64_t>(base, h.sections[dir]);
    const LabeledEdge* entries = SectionPtr<LabeledEdge>(
        base, h.sections[dir == kOutOffsets ? kOutEntries : kInEntries]);
    for (std::uint64_t v = 0; v < n; v++) {
      for (std::uint64_t e = offsets[v] + 1; e < offsets[v + 1]; e++) {
        if (!LabeledEdgeLess(entries[e - 1], entries[e])) {
          return Corrupt(path, "adjacency entries not strictly sorted");
        }
      }
    }
  }
  const Edge* edges = SectionPtr<Edge>(base, h.sections[kEdges]);
  const std::uint64_t* out_offsets =
      SectionPtr<std::uint64_t>(base, h.sections[kOutOffsets]);
  const LabeledEdge* out_entries =
      SectionPtr<LabeledEdge>(base, h.sections[kOutEntries]);
  const std::uint64_t* in_offsets =
      SectionPtr<std::uint64_t>(base, h.sections[kInOffsets]);
  const LabeledEdge* in_entries =
      SectionPtr<LabeledEdge>(base, h.sections[kInEntries]);
  for (std::uint64_t e = 0; e < m; e++) {
    LabeledEdge out_key{edges[e].label, edges[e].to};
    LabeledEdge in_key{edges[e].label, edges[e].from};
    if (!std::binary_search(out_entries + out_offsets[edges[e].from],
                            out_entries + out_offsets[edges[e].from + 1],
                            out_key, LabeledEdgeLess) ||
        !std::binary_search(in_entries + in_offsets[edges[e].to],
                            in_entries + in_offsets[edges[e].to + 1], in_key,
                            LabeledEdgeLess)) {
      return Corrupt(path, "edge list and CSR adjacency disagree");
    }
  }
  return Status::OK();
}

/// Interns `count` names sliced from an offsets/blob section pair.
StringInterner InternSection(const std::byte* base,
                             const GraphContainerHeader& h,
                             GraphSectionId offsets_id, GraphSectionId blob_id,
                             std::uint64_t count) {
  const std::uint64_t* offsets =
      SectionPtr<std::uint64_t>(base, h.sections[offsets_id]);
  const char* blob = SectionPtr<char>(base, h.sections[blob_id]);
  StringInterner interner;
  for (std::uint64_t i = 0; i < count; i++) {
    interner.Intern(std::string_view(
        blob + offsets[i], static_cast<std::size_t>(offsets[i + 1] -
                                                    offsets[i])));
  }
  return interner;
}

/// Maps, checks, and wraps a container; shared by OpenContainer and
/// ValidateGraphContainer. `deep` enables CheckDeep + fingerprint
/// verification.
Result<StoredGraph> OpenContainerImpl(const std::string& path, bool deep) {
  GQD_TRACE_SPAN(span, "storage.load");
  StorageCounters& counters = StorageCounters::Instance();
  auto started = std::chrono::steady_clock::now();
  auto file_or = MmapFile::Open(path);
  if (!file_or.ok()) {
    counters.open_failures.fetch_add(1, std::memory_order_relaxed);
    return file_or.status();
  }
  MmapFile file = std::move(file_or).value();
  auto fail = [&counters](Status status) {
    counters.open_failures.fetch_add(1, std::memory_order_relaxed);
    return status;
  };
  auto header_or = CheckHeader(file, path);
  if (!header_or.ok()) {
    return fail(header_or.status());
  }
  const GraphContainerHeader& header = *header_or.value();
  const std::byte* base = file.data();
  if (Status status = CheckStructure(base, header, path); !status.ok()) {
    return fail(std::move(status));
  }
  if (deep) {
    if (Status status = CheckDeep(base, header, path); !status.ok()) {
      return fail(std::move(status));
    }
  }

  StringInterner labels = InternSection(base, header, kLabelNameOffsets,
                                        kLabelNameBlob, header.num_labels);
  StringInterner values = InternSection(base, header, kValueNameOffsets,
                                        kValueNameBlob, header.num_values);
  if (labels.size() != header.num_labels ||
      values.size() != header.num_values) {
    return fail(Corrupt(path, "duplicate label or data-value name"));
  }
  GraphView view;
  view.num_nodes = static_cast<std::size_t>(header.num_nodes);
  view.num_edges = static_cast<std::size_t>(header.num_edges);
  view.node_values = SectionPtr<ValueId>(base, header.sections[kNodeValues]);
  view.edges = SectionPtr<Edge>(base, header.sections[kEdges]);
  view.out_offsets =
      SectionPtr<std::uint64_t>(base, header.sections[kOutOffsets]);
  view.out_entries =
      SectionPtr<LabeledEdge>(base, header.sections[kOutEntries]);
  view.in_offsets =
      SectionPtr<std::uint64_t>(base, header.sections[kInOffsets]);
  view.in_entries = SectionPtr<LabeledEdge>(base, header.sections[kInEntries]);
  if ((header.flags & kFlagHasNodeNames) != 0) {
    view.name_offsets =
        SectionPtr<std::uint64_t>(base, header.sections[kNodeNameOffsets]);
    view.name_blob = SectionPtr<char>(base, header.sections[kNodeNameBlob]);
  }
  DataGraph graph =
      DataGraph::FromView(std::move(labels), std::move(values), view);
  if (deep) {
    // Everything the writer fingerprinted is now reachable; recompute and
    // compare so `--validate` pins content, not just structure.
    if (FingerprintGraphText(graph) != header.fingerprint) {
      return fail(Corrupt(path, "stored fingerprint does not match content"));
    }
    if (Status status = graph.Validate(); !status.ok()) {
      return fail(std::move(status));
    }
  }

  StoredGraph stored;
  stored.info.backend = GraphBackend::kMapped;
  stored.info.fingerprint = FingerprintToHex(header.fingerprint);
  stored.info.source_bytes = file.size();
  stored.info.resident_bytes = graph.EstimateResidentBytes();
  stored.info.load_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  GQD_TRACE_SPAN_ATTR(span, "nodes", header.num_nodes);
  GQD_TRACE_SPAN_ATTR(span, "edges", header.num_edges);
  GQD_TRACE_SPAN_ATTR(span, "bytes", file.size());
  GQD_TRACE_SPAN_ATTR(span, "load_micros", stored.info.load_micros);
  counters.containers_opened.fetch_add(1, std::memory_order_relaxed);
  counters.bytes_mapped.fetch_add(file.size(), std::memory_order_relaxed);
  counters.load_micros.fetch_add(stored.info.load_micros,
                                 std::memory_order_relaxed);

  auto holder = std::make_shared<MappedGraph>();
  holder->file = std::move(file);
  holder->graph = std::move(graph);
  stored.graph = std::shared_ptr<const DataGraph>(holder, &holder->graph);
  return stored;
}

}  // namespace

const char* GraphBackendName(GraphBackend backend) {
  return backend == GraphBackend::kMapped ? "mmap" : "resident";
}

JsonValue StorageInfoToJson(const GraphStoreInfo& info) {
  JsonValue::Object storage;
  storage.emplace_back("backend", GraphBackendName(info.backend));
  storage.emplace_back("source_bytes",
                       static_cast<double>(info.source_bytes));
  storage.emplace_back("resident_bytes",
                       static_cast<double>(info.resident_bytes));
  storage.emplace_back("load_micros", static_cast<double>(info.load_micros));
  return JsonValue(std::move(storage));
}

Result<StoredGraph> GraphStore::OpenContainer(const std::string& path,
                                              const OpenOptions& options) {
  return OpenContainerImpl(path, options.validate);
}

bool IsGraphContainerFile(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  std::uint32_t magic = 0;
  probe.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return probe.gcount() == sizeof(magic) && magic == kGraphContainerMagic;
}

Result<StoredGraph> GraphStore::OpenFile(const std::string& path,
                                         const OpenOptions& options) {
  // Sniff the magic without reading the file body — the point of the
  // container is that a multi-hundred-megabyte graph never streams through
  // a parse buffer.
  if (IsGraphContainerFile(path)) {
    return OpenContainer(path, options);
  }
  GQD_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return FromText(text);
}

Result<StoredGraph> GraphStore::FromText(const std::string& text) {
  auto started = std::chrono::steady_clock::now();
  GQD_ASSIGN_OR_RETURN(DataGraph graph, ReadGraphText(text));
  StoredGraph stored = FromGraph(std::move(graph));
  stored.info.source_bytes = text.size();
  stored.info.load_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  return stored;
}

StoredGraph GraphStore::FromGraph(DataGraph graph) {
  StoredGraph stored;
  stored.info.backend = GraphBackend::kResident;
  stored.info.fingerprint = FingerprintToHex(FingerprintGraphText(graph));
  stored.info.resident_bytes = graph.EstimateResidentBytes();
  stored.graph = std::make_shared<const DataGraph>(std::move(graph));
  return stored;
}

Status ValidateGraphContainer(const std::string& path) {
  StorageCounters& counters = StorageCounters::Instance();
  counters.validations.fetch_add(1, std::memory_order_relaxed);
  Status status = OpenContainerImpl(path, /*deep=*/true).status();
  if (!status.ok()) {
    counters.validation_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

}  // namespace gqd
