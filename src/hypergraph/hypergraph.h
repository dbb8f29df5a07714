// Immutable hypergraph G = (V, E) in compressed sparse row form.
//
// Two incidence directions are stored: hyperedge -> member nodes (each edge
// span sorted ascending) and node -> incident hyperedges (sorted ascending).
// Both are needed by the paper's algorithms: Algorithm 1 walks node ->
// edges to build the projected graph, Lemma 2 membership-tests nodes
// against sorted edge spans.
//
// A Hypergraph is four read-only spans plus one shared owner that keeps
// their storage alive. The owner is either the arrays HypergraphBuilder
// filled (moved in, not copied) or a read-only mapping of a ".mhg" file
// (hypergraph/binary_format.h), whose sections are the same four arrays
// verbatim. Copies share the storage; a move is a copy, so a moved-from
// graph stays valid.
#ifndef MOCHY_HYPERGRAPH_HYPERGRAPH_H_
#define MOCHY_HYPERGRAPH_HYPERGRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "hypergraph/types.h"

namespace mochy {

class Hypergraph {
 public:
  /// The empty graph: no nodes, no edges.
  Hypergraph() = default;
  // Declared so that moves copy: the source keeps its storage alive.
  Hypergraph(const Hypergraph&) = default;
  Hypergraph& operator=(const Hypergraph&) = default;

  /// Number of nodes |V| (ids are dense, isolated nodes allowed).
  size_t num_nodes() const { return num_nodes_; }

  /// Number of hyperedges |E|.
  size_t num_edges() const { return edge_offsets_.size() - 1; }

  /// Members of hyperedge `e`, sorted ascending.
  std::span<const NodeId> edge(EdgeId e) const {
    return edge_nodes_.subspan(edge_offsets_[e], edge_size(e));
  }

  /// |e| — the number of nodes in hyperedge `e`.
  size_t edge_size(EdgeId e) const {
    return edge_offsets_[e + 1] - edge_offsets_[e];
  }

  /// E_v — hyperedges containing node `v`, sorted ascending.
  std::span<const EdgeId> edges_of(NodeId v) const {
    return node_edges_.subspan(node_offsets_[v], degree(v));
  }

  /// |E_v| — the degree of node `v`.
  size_t degree(NodeId v) const {
    return node_offsets_[v + 1] - node_offsets_[v];
  }

  /// The CSR arrays themselves: offsets u64[|E|+1] into members
  /// u32[pins], and offsets u64[|V|+1] into incidences u32[pins].
  std::span<const uint64_t> edge_offsets() const { return edge_offsets_; }
  std::span<const NodeId> edge_nodes() const { return edge_nodes_; }
  std::span<const uint64_t> node_offsets() const { return node_offsets_; }
  std::span<const EdgeId> node_edges() const { return node_edges_; }

  /// Whether hyperedge `e` contains node `v` (binary search, O(log |e|)).
  bool EdgeContains(EdgeId e, NodeId v) const;

  /// Sum of hyperedge sizes (the number of (node, edge) incidences).
  uint64_t num_pins() const { return edge_nodes_.size(); }

  /// Size of the largest hyperedge; 0 for an empty hypergraph.
  size_t max_edge_size() const;

  /// |e_a ∩ e_b| via sorted two-pointer merge.
  size_t IntersectionSize(EdgeId a, EdgeId b) const;

  /// |e_a ∩ e_b ∩ e_c|: scans the smallest of the three edges and
  /// membership-tests the other two (Lemma 2 of the paper).
  size_t TripleIntersectionSize(EdgeId a, EdgeId b, EdgeId c) const;

  /// Whether two hyperedges are adjacent (share at least one node).
  bool Adjacent(EdgeId a, EdgeId b) const {
    return IntersectionSize(a, b) > 0;
  }

  /// Validates internal consistency (offsets, sortedness, id ranges,
  /// matching directions). Safe on arbitrary arrays: offsets are checked
  /// before any span is formed. For tests and loaders, not hot paths.
  Status Validate() const;

 private:
  friend class HypergraphBuilder;
  friend Result<Hypergraph> LoadHypergraphBinary(const std::string& path);

  /// Views four CSR arrays kept alive by `storage`.
  Hypergraph(size_t num_nodes, std::span<const uint64_t> edge_offsets,
             std::span<const NodeId> edge_nodes,
             std::span<const uint64_t> node_offsets,
             std::span<const EdgeId> node_edges,
             std::shared_ptr<const void> storage);

  /// Adopts four CSR arrays; their buffers move into the owner.
  Hypergraph(size_t num_nodes, std::vector<uint64_t> edge_offsets,
             std::vector<NodeId> edge_nodes,
             std::vector<uint64_t> node_offsets,
             std::vector<EdgeId> node_edges);

  static constexpr uint64_t kNoOffsets[1] = {0};

  size_t num_nodes_ = 0;
  std::span<const uint64_t> edge_offsets_{kNoOffsets};
  std::span<const NodeId> edge_nodes_;
  std::span<const uint64_t> node_offsets_{kNoOffsets};
  std::span<const EdgeId> node_edges_;
  std::shared_ptr<const void> storage_;
};

/// Size of the intersection of two sorted id spans.
size_t SortedIntersectionSize(std::span<const NodeId> a,
                              std::span<const NodeId> b);

}  // namespace mochy

#endif  // MOCHY_HYPERGRAPH_HYPERGRAPH_H_
