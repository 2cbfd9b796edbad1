#include "storage/relation_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>

#include "common/failpoint.h"
#include "obs/trace.h"
#include "storage/metrics.h"
#include "storage/mmap_file.h"

namespace gqd {

GQD_FAILPOINT_DEFINE(fp_relation_write, "relation.write");
GQD_FAILPOINT_DEFINE(fp_relation_open, "relation.open");

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

/// Row statistics over canonical (sorted, deduplicated) pairs.
void ComputeRowStats(const std::vector<std::pair<NodeId, NodeId>>& pairs,
                     std::uint64_t* distinct_sources,
                     std::uint64_t* max_row_degree) {
  *distinct_sources = 0;
  *max_row_degree = 0;
  std::size_t i = 0;
  while (i < pairs.size()) {
    NodeId u = pairs[i].first;
    std::size_t degree = 0;
    for (; i < pairs.size() && pairs[i].first == u; ++i) {
      degree++;
    }
    (*distinct_sources)++;
    *max_row_degree = std::max<std::uint64_t>(*max_row_degree, degree);
  }
}

}  // namespace

Status WriteRelationContainer(std::size_t num_nodes,
                              std::vector<std::pair<NodeId, NodeId>> pairs,
                              std::uint64_t graph_fingerprint,
                              const std::string& path) {
  GQD_TRACE_SPAN(span, "relation.write");
  RelationCounters& counters = RelationCounters::Instance();
  if (GQD_FAILPOINT_FIRED(fp_relation_write)) {
    counters.write_failures.fetch_add(1, std::memory_order_relaxed);
    return fp_relation_write.InjectedFault();
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [u, v] : pairs) {
    if (u >= num_nodes || v >= num_nodes) {
      counters.write_failures.fetch_add(1, std::memory_order_relaxed);
      return Status::InvalidArgument(
          "relation pair (" + std::to_string(u) + "," + std::to_string(v) +
          ") out of range for " + std::to_string(num_nodes) + " nodes");
    }
  }

  RelationContainerHeader header;
  header.graph_fingerprint = graph_fingerprint;
  header.num_nodes = num_nodes;
  header.num_pairs = pairs.size();
  ComputeRowStats(pairs, &header.distinct_sources, &header.max_row_degree);

  // Flat u32 coordinate stream, row-major sorted — the exact bytes a reader
  // hands to AdaptiveRelation::FromPairs.
  std::vector<std::uint32_t> flat;
  flat.reserve(2 * pairs.size());
  for (const auto& [u, v] : pairs) {
    flat.push_back(u);
    flat.push_back(v);
  }
  std::uint64_t payload_bytes = flat.size() * sizeof(std::uint32_t);
  header.pairs =
      SectionRange{sizeof(RelationContainerHeader), payload_bytes};
  header.file_size = sizeof(RelationContainerHeader) + payload_bytes;
  header.payload_checksum = Fnv1a64(flat.data(), payload_bytes);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    counters.write_failures.fetch_add(1, std::memory_order_relaxed);
    return Status::IOError("cannot create '" + path + "'");
  }
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  if (payload_bytes > 0) {
    out.write(reinterpret_cast<const char*>(flat.data()),
              static_cast<std::streamsize>(payload_bytes));
  }
  out.close();
  if (!out) {
    counters.write_failures.fetch_add(1, std::memory_order_relaxed);
    return Status::IOError("write to '" + path + "' failed");
  }
  counters.relations_written.fetch_add(1, std::memory_order_relaxed);
  counters.pairs_written.fetch_add(pairs.size(), std::memory_order_relaxed);
  GQD_TRACE_SPAN_ATTR(span, "pairs", pairs.size());
  GQD_TRACE_SPAN_ATTR(span, "bytes", header.file_size);
  return Status::OK();
}

Result<StoredRelation> OpenRelationContainer(
    const std::string& path, std::uint64_t expected_graph_fingerprint) {
  GQD_TRACE_SPAN(span, "relation.load");
  RelationCounters& counters = RelationCounters::Instance();
  Clock::time_point start = Clock::now();
  auto fail = [&counters](Status status) -> Status {
    counters.open_failures.fetch_add(1, std::memory_order_relaxed);
    return status;
  };
  if (GQD_FAILPOINT_FIRED(fp_relation_open)) {
    return fail(fp_relation_open.InjectedFault());
  }
  auto mapped = MmapFile::Open(path);
  if (!mapped.ok()) {
    return fail(mapped.status());
  }
  const MmapFile& file = mapped.value();
  if (file.size() < sizeof(RelationContainerHeader)) {
    return fail(Status::InvalidArgument(
        "'" + path + "' is too small to be a relation container"));
  }
  RelationContainerHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (header.magic != kRelationContainerMagic) {
    return fail(Status::InvalidArgument(
        "'" + path + "' is not a relation container (bad magic)"));
  }
  if (header.version != kRelationContainerVersion) {
    return fail(Status::InvalidArgument(
        "unsupported relation container version " +
        std::to_string(header.version)));
  }
  if (header.file_size != file.size()) {
    return fail(Status::InvalidArgument(
        "relation container truncated: header says " +
        std::to_string(header.file_size) + " bytes, file has " +
        std::to_string(file.size())));
  }
  std::uint64_t expected_payload = header.num_pairs * 2 * sizeof(std::uint32_t);
  if (header.pairs.offset != sizeof(RelationContainerHeader) ||
      header.pairs.size != expected_payload ||
      header.pairs.offset + header.pairs.size != header.file_size) {
    return fail(
        Status::InvalidArgument("relation container section layout invalid"));
  }
  const std::uint32_t* flat =
      reinterpret_cast<const std::uint32_t*>(file.data() + header.pairs.offset);
  if (Fnv1a64(flat, header.pairs.size) != header.payload_checksum) {
    return fail(Status::InvalidArgument(
        "relation container payload checksum mismatch (corrupt file)"));
  }
  if (expected_graph_fingerprint != 0 && header.graph_fingerprint != 0 &&
      header.graph_fingerprint != expected_graph_fingerprint) {
    return fail(Status::InvalidArgument(
        "relation container is bound to a different graph (fingerprint "
        "mismatch)"));
  }

  StoredRelation stored;
  stored.pairs.reserve(header.num_pairs);
  for (std::uint64_t i = 0; i < header.num_pairs; ++i) {
    NodeId u = flat[2 * i];
    NodeId v = flat[2 * i + 1];
    if (u >= header.num_nodes || v >= header.num_nodes) {
      return fail(Status::InvalidArgument(
          "relation container pair out of node range (corrupt file)"));
    }
    if (i > 0 && !(stored.pairs.back() < std::make_pair(u, v))) {
      return fail(Status::InvalidArgument(
          "relation container pairs not strictly row-major sorted"));
    }
    stored.pairs.emplace_back(u, v);
  }
  stored.info.num_nodes = header.num_nodes;
  stored.info.num_pairs = header.num_pairs;
  stored.info.distinct_sources = header.distinct_sources;
  stored.info.max_row_degree = header.max_row_degree;
  stored.info.graph_fingerprint = header.graph_fingerprint;
  stored.info.source_bytes = file.size();
  stored.info.load_micros = MicrosSince(start);
  counters.relations_opened.fetch_add(1, std::memory_order_relaxed);
  counters.pairs_loaded.fetch_add(header.num_pairs,
                                  std::memory_order_relaxed);
  counters.load_micros.fetch_add(stored.info.load_micros,
                                 std::memory_order_relaxed);
  GQD_TRACE_SPAN_ATTR(span, "pairs", header.num_pairs);
  GQD_TRACE_SPAN_ATTR(span, "bytes", file.size());
  return stored;
}

bool IsRelationContainerFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.gcount() == sizeof(magic) && magic == kRelationContainerMagic;
}

RelationAdmission AdmitRelation(std::size_t num_nodes,
                                std::vector<std::pair<NodeId, NodeId>> pairs,
                                RelationBackend choice,
                                const ResourceBudget* budget) {
  RelationAdmission admission;
  admission.backend = choice == RelationBackend::kAuto
                          ? ChooseRelationBackend(num_nodes, pairs.size())
                          : choice;
  admission.estimate_bytes =
      EstimateRelationBytes(admission.backend, num_nodes, pairs.size());
  if (budget != nullptr) {
    budget->ChargeBytes(static_cast<std::int64_t>(admission.estimate_bytes));
    admission.status = budget->Check();
    if (!admission.status.ok()) {
      RelationCounters::Instance().admission_refusals.fetch_add(
          1, std::memory_order_relaxed);
      return admission;
    }
  }
  GQD_TRACE_SPAN(build_span, "relation.build");
  const auto build_start = Clock::now();
  admission.relation =
      AdaptiveRelation::FromPairs(num_nodes, std::move(pairs), choice);
  NoteRelationBackendSelected(admission.relation.backend());
  RelationCounters::Instance().build_micros.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - build_start)
              .count()),
      std::memory_order_relaxed);
  // Attrs are numeric; the backend is recorded as its enum value
  // (0 auto, 1 dense, 2 sparse, 3 blocked).
  GQD_TRACE_SPAN_ATTR(build_span, "backend", admission.relation.backend());
  GQD_TRACE_SPAN_ATTR(build_span, "nnz", admission.relation.Nnz());
  GQD_TRACE_SPAN_ATTR(build_span, "bytes", admission.relation.ByteSize());
  return admission;
}

}  // namespace gqd
