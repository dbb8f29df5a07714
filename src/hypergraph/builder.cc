#include "hypergraph/builder.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"

namespace mochy {

void HypergraphBuilder::AddEdge(std::span<const NodeId> nodes) {
  pool_.insert(pool_.end(), nodes.begin(), nodes.end());
  sizes_.push_back(static_cast<uint32_t>(nodes.size()));
}

void HypergraphBuilder::AddEdge(std::initializer_list<NodeId> nodes) {
  AddEdge(std::span<const NodeId>(nodes.begin(), nodes.size()));
}

Result<Hypergraph> HypergraphBuilder::Build(const BuildOptions& options) && {
  std::vector<uint64_t> edge_offsets = {0};
  std::vector<NodeId> edge_nodes;
  edge_nodes.reserve(pool_.size());

  // Duplicate detection: hash of sorted members -> candidate edge ids.
  std::unordered_map<uint64_t, std::vector<EdgeId>> seen;
  if (options.dedup_edges) seen.reserve(sizes_.size() * 2);

  std::vector<NodeId> scratch;
  size_t cursor = 0;
  NodeId max_node = 0;
  bool any_node = false;
  for (uint32_t raw_size : sizes_) {
    scratch.assign(pool_.begin() + cursor, pool_.begin() + cursor + raw_size);
    cursor += raw_size;
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    if (scratch.empty()) {
      if (options.drop_empty) continue;
      return Status::InvalidArgument("empty hyperedge not allowed");
    }
    any_node = true;
    max_node = std::max(max_node, scratch.back());

    if (options.dedup_edges) {
      const uint64_t h = HashIdSpan(scratch.data(), scratch.size());
      auto& bucket = seen[h];
      bool duplicate = false;
      for (EdgeId prev : bucket) {
        if (std::equal(edge_nodes.begin() + edge_offsets[prev],
                       edge_nodes.begin() + edge_offsets[prev + 1],
                       scratch.begin(), scratch.end())) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      bucket.push_back(static_cast<EdgeId>(edge_offsets.size() - 1));
    }

    edge_nodes.insert(edge_nodes.end(), scratch.begin(), scratch.end());
    edge_offsets.push_back(edge_nodes.size());
  }

  size_t num_nodes = options.num_nodes;
  if (num_nodes == 0) {
    num_nodes = any_node ? static_cast<size_t>(max_node) + 1 : 0;
  } else if (any_node && max_node >= num_nodes) {
    return Status::InvalidArgument("node id exceeds declared num_nodes");
  }

  // Build node -> edges incidence by counting then filling.
  std::vector<uint64_t> node_offsets(num_nodes + 1, 0);
  for (NodeId v : edge_nodes) node_offsets[v + 1]++;
  for (size_t v = 0; v < num_nodes; ++v) {
    node_offsets[v + 1] += node_offsets[v];
  }
  std::vector<EdgeId> node_edges(edge_nodes.size());
  std::vector<uint64_t> fill(node_offsets.begin(), node_offsets.end() - 1);
  for (size_t e = 0; e + 1 < edge_offsets.size(); ++e) {
    for (uint64_t i = edge_offsets[e]; i < edge_offsets[e + 1]; ++i) {
      node_edges[fill[edge_nodes[i]]++] = static_cast<EdgeId>(e);
    }
  }
  // Edges are appended in increasing id order, so each node's incidence
  // list is already sorted ascending.
  return Hypergraph(num_nodes, std::move(edge_offsets), std::move(edge_nodes),
                    std::move(node_offsets), std::move(node_edges));
}

Result<Hypergraph> MakeHypergraph(
    const std::vector<std::vector<NodeId>>& edges,
    const BuildOptions& options) {
  HypergraphBuilder builder;
  for (const auto& edge : edges) {
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
  }
  return std::move(builder).Build(options);
}

}  // namespace mochy
