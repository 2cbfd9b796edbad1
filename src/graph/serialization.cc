#include "graph/serialization.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/json_util.h"

namespace gqd {

namespace {

/// Splits a line into whitespace-separated tokens.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

bool IsCommentOrBlank(const std::vector<std::string>& tokens) {
  return tokens.empty() || tokens[0][0] == '#';
}

/// Streams the canonical `node`/`edge` text of `graph` line by line into
/// `emit`. WriteGraphText and FingerprintGraphText must agree byte for byte
/// — this is the single definition both build on.
template <typename Emit>
void EmitGraphText(const DataGraph& graph, Emit&& emit) {
  std::string line;
  line = "# gqd data graph: " + std::to_string(graph.NumNodes()) +
         " nodes, " + std::to_string(graph.NumEdges()) +
         " edges, delta=" + std::to_string(graph.NumDataValues()) + "\n";
  emit(line);
  for (NodeId v = 0; v < graph.NumNodes(); v++) {
    line = "node " + graph.NodeName(v) + " " +
           graph.data_values().NameOf(graph.DataValueOf(v)) + "\n";
    emit(line);
  }
  for (const Edge& e : graph.edges()) {
    line = "edge " + graph.NodeName(e.from) + " " +
           graph.labels().NameOf(e.label) + " " + graph.NodeName(e.to) +
           "\n";
    emit(line);
  }
}

}  // namespace

std::string WriteGraphText(const DataGraph& graph) {
  std::string out;
  // node/edge lines run ~20 bytes; reserve to avoid growth churn on
  // million-node graphs.
  out.reserve(32 * (graph.NumNodes() + graph.NumEdges()) + 64);
  EmitGraphText(graph, [&out](const std::string& line) { out += line; });
  return out;
}

std::uint64_t FingerprintGraphText(const DataGraph& graph) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  EmitGraphText(graph, [&hash](const std::string& line) {
    for (unsigned char c : line) {
      hash ^= c;
      hash *= 0x100000001b3ULL;  // FNV prime
    }
  });
  return hash;
}

std::string FingerprintToHex(std::uint64_t fingerprint) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return std::string(buffer);
}

Result<DataGraph> ReadGraphText(const std::string& text) {
  DataGraph graph;
  // Parse-local name index: FindNode is a linear scan, which would make
  // edge resolution quadratic in the graph size; the map keeps a
  // million-line parse linear. "#<id>" names (the synthesized anonymous
  // form) still resolve through FindNode below.
  std::unordered_map<std::string, NodeId> nodes_by_name;
  std::istringstream is(text);
  std::string line;
  std::size_t line_number = 0;
  auto resolve = [&](const std::string& name) -> Result<NodeId> {
    auto it = nodes_by_name.find(name);
    if (it != nodes_by_name.end()) {
      return it->second;
    }
    return graph.FindNode(name);
  };
  while (std::getline(is, line)) {
    line_number++;
    std::vector<std::string> tokens = Tokenize(line);
    if (IsCommentOrBlank(tokens)) {
      continue;
    }
    auto error = [&](const std::string& msg) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + msg);
    };
    if (tokens[0] == "node") {
      if (tokens.size() != 3) {
        return error("expected: node <name> <data-value>");
      }
      if (nodes_by_name.count(tokens[1]) > 0) {
        return error("duplicate node '" + tokens[1] + "'");
      }
      NodeId id = graph.AddNodeWithValue(tokens[2], tokens[1]);
      nodes_by_name.emplace(tokens[1], id);
    } else if (tokens[0] == "edge") {
      if (tokens.size() != 4) {
        return error("expected: edge <from> <label> <to>");
      }
      auto from = resolve(tokens[1]);
      if (!from.ok()) {
        return error("unknown node '" + tokens[1] + "'");
      }
      auto to = resolve(tokens[3]);
      if (!to.ok()) {
        return error("unknown node '" + tokens[3] + "'");
      }
      graph.AddEdgeByName(from.value(), tokens[2], to.value());
    } else {
      return error("unknown directive '" + tokens[0] + "'");
    }
  }
  GQD_RETURN_NOT_OK(graph.Validate());
  return graph;
}

std::string WriteGraphDot(const DataGraph& graph) {
  std::ostringstream os;
  os << "digraph gqd {\n";
  for (NodeId v = 0; v < graph.NumNodes(); v++) {
    os << "  n" << v << " [label=\"" << graph.NodeName(v) << "\\n"
       << graph.data_values().NameOf(graph.DataValueOf(v)) << "\"];\n";
  }
  for (const Edge& e : graph.edges()) {
    os << "  n" << e.from << " -> n" << e.to << " [label=\""
       << graph.labels().NameOf(e.label) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string WriteGraphInfoJson(const DataGraph& graph) {
  std::ostringstream os;
  os << "{\"nodes\":" << graph.NumNodes() << ",\"edges\":" << graph.NumEdges()
     << ",\"alphabet\":[";
  const std::vector<std::string>& labels = graph.labels().names();
  for (std::size_t i = 0; i < labels.size(); i++) {
    os << (i > 0 ? "," : "") << JsonQuote(labels[i]);
  }
  os << "],\"data_values\":[";
  const std::vector<std::string>& values = graph.data_values().names();
  for (std::size_t i = 0; i < values.size(); i++) {
    os << (i > 0 ? "," : "") << JsonQuote(values[i]);
  }
  os << "],\"num_data_values\":" << graph.NumDataValues() << "}";
  return os.str();
}

std::string WriteRelationText(const DataGraph& graph,
                              const BinaryRelation& rel) {
  std::ostringstream os;
  for (const auto& [u, v] : rel.Pairs()) {
    os << "pair " << graph.NodeName(u) << " " << graph.NodeName(v) << "\n";
  }
  return os.str();
}

Result<BinaryRelation> ReadRelationText(const DataGraph& graph,
                                        const std::string& text) {
  auto pairs = ReadRelationPairsText(graph, text);
  GQD_RETURN_NOT_OK(pairs.status());
  BinaryRelation rel(graph.NumNodes());
  for (const auto& [u, v] : pairs.value()) {
    rel.Set(u, v);
  }
  return rel;
}

Result<std::vector<std::pair<NodeId, NodeId>>> ReadRelationPairsText(
    const DataGraph& graph, const std::string& text) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::istringstream is(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    line_number++;
    std::vector<std::string> tokens = Tokenize(line);
    if (IsCommentOrBlank(tokens)) {
      continue;
    }
    if (tokens[0] != "pair" || tokens.size() != 3) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": expected: pair <u> <v>");
    }
    auto u = graph.FindNode(tokens[1]);
    auto v = graph.FindNode(tokens[2]);
    if (!u.ok() || !v.ok()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": unknown node '" +
          (u.ok() ? tokens[2] : tokens[1]) + "'");
    }
    pairs.emplace_back(u.value(), v.value());
  }
  return pairs;
}

std::string WriteRelationPairsText(
    const DataGraph& graph, std::vector<std::pair<NodeId, NodeId>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::string out;
  out.reserve(24 * pairs.size());
  for (const auto& [u, v] : pairs) {
    out += "pair ";
    out += graph.NodeName(u);
    out += " ";
    out += graph.NodeName(v);
    out += "\n";
  }
  return out;
}

Result<TupleRelation> ReadTupleRelationText(const DataGraph& graph,
                                            const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t line_number = 0;
  std::vector<NodeTuple> tuples;
  std::size_t arity = 0;
  while (std::getline(is, line)) {
    line_number++;
    std::vector<std::string> tokens = Tokenize(line);
    if (IsCommentOrBlank(tokens)) {
      continue;
    }
    if (tokens[0] != "tuple" || tokens.size() < 2) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": expected: tuple <n1> ... <nr>");
    }
    NodeTuple tuple;
    for (std::size_t i = 1; i < tokens.size(); i++) {
      auto v = graph.FindNode(tokens[i]);
      if (!v.ok()) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": unknown node '" + tokens[i] + "'");
      }
      tuple.push_back(v.value());
    }
    if (arity == 0) {
      arity = tuple.size();
    } else if (tuple.size() != arity) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": inconsistent tuple arity");
    }
    tuples.push_back(std::move(tuple));
  }
  if (arity == 0) {
    return Status::InvalidArgument("relation file contains no tuples");
  }
  TupleRelation rel(arity);
  for (NodeTuple& t : tuples) {
    rel.Insert(std::move(t));
  }
  return rel;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "'");
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Status WriteStringToFile(const std::string& path,
                         const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << contents;
  out.close();
  if (!out) {
    return Status::IOError("failed writing '" + path + "'");
  }
  return Status::OK();
}

}  // namespace gqd
