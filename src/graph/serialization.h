// Text and DOT serialization for data graphs and relations.
//
// The text format is line-oriented and diff-friendly:
//
//   # comment
//   node <name> <data-value-name>
//   edge <from-name> <label> <to-name>
//
// Relation files list one tuple per line, nodes by name:
//
//   pair <u> <v>            (binary relations)
//   tuple <n1> <n2> ... <nr> (any arity; all lines must agree on arity)

#ifndef GQD_GRAPH_SERIALIZATION_H_
#define GQD_GRAPH_SERIALIZATION_H_

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/data_graph.h"
#include "graph/relation.h"

namespace gqd {

/// Renders the graph in the `node`/`edge` text format.
std::string WriteGraphText(const DataGraph& graph);

/// Parses the `node`/`edge` text format. Node-name lookup is hash-based,
/// so parsing stays linear in the file size (million-node text graphs are
/// the slow-but-feasible baseline the mmap container is benchmarked
/// against).
Result<DataGraph> ReadGraphText(const std::string& text);

/// FNV-1a 64 of the canonical text serialization (WriteGraphText), computed
/// line by line without materializing the text. This is THE content
/// fingerprint of a graph: GraphRegistry keys result caches with it and the
/// binary graph container (src/storage/) stores it in the header, so every
/// backend agrees on identity.
std::uint64_t FingerprintGraphText(const DataGraph& graph);

/// Renders a 64-bit fingerprint as 16 lowercase hex digits.
std::string FingerprintToHex(std::uint64_t fingerprint);

/// Renders a Graphviz DOT view (data values as node labels).
std::string WriteGraphDot(const DataGraph& graph);

/// Renders a one-object JSON summary of the graph's shape:
///   {"nodes":N,"edges":M,"alphabet":[...],"data_values":[...],
///    "num_data_values":D}
/// Shared by `gqd info --json` and the query service's `info`/`load`
/// responses so the CLI and the server emit one format.
std::string WriteGraphInfoJson(const DataGraph& graph);

/// Renders a binary relation in the `pair` text format (node names).
std::string WriteRelationText(const DataGraph& graph,
                              const BinaryRelation& rel);

/// Parses the `pair` text format against `graph`'s node names.
Result<BinaryRelation> ReadRelationText(const DataGraph& graph,
                                        const std::string& text);

/// Parses the `pair` text format into a raw pair list without materializing
/// an n×n matrix — the form the density-adaptive relation layer
/// (graph/sparse_relation.h) builds from, and the only one that works at
/// million-node scale. Pairs are returned in file order, possibly with
/// duplicates; AdaptiveRelation::FromPairs canonicalizes.
Result<std::vector<std::pair<NodeId, NodeId>>> ReadRelationPairsText(
    const DataGraph& graph, const std::string& text);

/// Renders a pair list in the `pair` text format (node names), row-major
/// sorted first so output is canonical.
std::string WriteRelationPairsText(
    const DataGraph& graph,
    std::vector<std::pair<NodeId, NodeId>> pairs);

/// Parses the `tuple` text format against `graph`'s node names.
Result<TupleRelation> ReadTupleRelationText(const DataGraph& graph,
                                            const std::string& text);

/// Reads a whole file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes `contents` to `path`, replacing any file there.
Status WriteStringToFile(const std::string& path, const std::string& contents);

}  // namespace gqd

#endif  // GQD_GRAPH_SERIALIZATION_H_
