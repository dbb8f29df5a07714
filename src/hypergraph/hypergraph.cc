#include "hypergraph/hypergraph.h"

#include <algorithm>

#include "common/logging.h"

namespace mochy {

bool Hypergraph::EdgeContains(EdgeId e, NodeId v) const {
  const auto span = edge(e);
  return std::binary_search(span.begin(), span.end(), v);
}

size_t Hypergraph::max_edge_size() const {
  size_t best = 0;
  for (EdgeId e = 0; e < num_edges(); ++e) best = std::max(best, edge_size(e));
  return best;
}

size_t SortedIntersectionSize(std::span<const NodeId> a,
                              std::span<const NodeId> b) {
  size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

size_t Hypergraph::IntersectionSize(EdgeId a, EdgeId b) const {
  return SortedIntersectionSize(edge(a), edge(b));
}

size_t Hypergraph::TripleIntersectionSize(EdgeId a, EdgeId b, EdgeId c) const {
  // Scan the smallest edge, test membership in the two others.
  const size_t sa = edge_size(a), sb = edge_size(b), sc = edge_size(c);
  EdgeId small, other1, other2;
  if (sa <= sb && sa <= sc) {
    small = a;
    other1 = b;
    other2 = c;
  } else if (sb <= sc) {
    small = b;
    other1 = a;
    other2 = c;
  } else {
    small = c;
    other1 = a;
    other2 = b;
  }
  size_t count = 0;
  for (NodeId v : edge(small)) {
    if (EdgeContains(other1, v) && EdgeContains(other2, v)) ++count;
  }
  return count;
}

namespace {

/// The arrays behind a built (not mapped) graph.
struct OwnedCsr {
  std::vector<uint64_t> edge_offsets;
  std::vector<NodeId> edge_nodes;
  std::vector<uint64_t> node_offsets;
  std::vector<EdgeId> node_edges;
};

/// Whether `offsets` starts at 0, never decreases and ends at `size`, so
/// every span it delimits lies inside an array of `size` elements.
bool OffsetsDelimit(std::span<const uint64_t> offsets, size_t size) {
  return !offsets.empty() && offsets.front() == 0 && offsets.back() == size &&
         std::is_sorted(offsets.begin(), offsets.end());
}

}  // namespace

Hypergraph::Hypergraph(size_t num_nodes, std::span<const uint64_t> edge_offsets,
                       std::span<const NodeId> edge_nodes,
                       std::span<const uint64_t> node_offsets,
                       std::span<const EdgeId> node_edges,
                       std::shared_ptr<const void> storage)
    : num_nodes_(num_nodes),
      edge_offsets_(edge_offsets),
      edge_nodes_(edge_nodes),
      node_offsets_(node_offsets),
      node_edges_(node_edges),
      storage_(std::move(storage)) {}

Hypergraph::Hypergraph(size_t num_nodes, std::vector<uint64_t> edge_offsets,
                       std::vector<NodeId> edge_nodes,
                       std::vector<uint64_t> node_offsets,
                       std::vector<EdgeId> node_edges) {
  auto owned = std::make_shared<OwnedCsr>(
      OwnedCsr{std::move(edge_offsets), std::move(edge_nodes),
               std::move(node_offsets), std::move(node_edges)});
  *this = Hypergraph(num_nodes, owned->edge_offsets, owned->edge_nodes,
                     owned->node_offsets, owned->node_edges, owned);
}

Status Hypergraph::Validate() const {
  if (!OffsetsDelimit(edge_offsets_, edge_nodes_.size())) {
    return Status::Internal("edge offsets inconsistent with node array");
  }
  if (node_offsets_.size() != num_nodes_ + 1 ||
      !OffsetsDelimit(node_offsets_, node_edges_.size())) {
    return Status::Internal("node offsets inconsistent with edge array");
  }
  if (node_edges_.size() != num_pins()) {
    return Status::Internal("pin counts disagree between directions");
  }
  for (size_t e = 0; e < num_edges(); ++e) {
    const auto span = edge(static_cast<EdgeId>(e));
    if (span.empty()) return Status::Internal("empty hyperedge");
    for (size_t i = 0; i < span.size(); ++i) {
      if (span[i] >= num_nodes_) {
        return Status::Internal("node id out of range in edge");
      }
      if (i > 0 && span[i - 1] >= span[i]) {
        return Status::Internal("edge members not strictly sorted");
      }
    }
  }
  for (size_t v = 0; v < num_nodes_; ++v) {
    const auto span = edges_of(static_cast<NodeId>(v));
    for (size_t i = 0; i < span.size(); ++i) {
      if (span[i] >= num_edges()) {
        return Status::Internal("edge id out of range in incidence");
      }
      if (i > 0 && span[i - 1] >= span[i]) {
        return Status::Internal("incidence list not strictly sorted");
      }
      if (!EdgeContains(span[i], static_cast<NodeId>(v))) {
        return Status::Internal("incidence lists disagree with edges");
      }
    }
  }
  return Status::OK();
}

}  // namespace mochy
