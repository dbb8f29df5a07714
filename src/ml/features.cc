#include "ml/features.h"

#include <algorithm>
#include <unordered_set>

#include "common/parallel.h"
#include "gen/perturb.h"
#include "hypergraph/builder.h"
#include "hypergraph/projection.h"
#include "motif/stamp_kernels.h"

namespace mochy {

std::vector<std::vector<NodeId>> PredictionCandidates(const Hypergraph& graph) {
  std::vector<std::vector<NodeId>> candidates;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const auto span = graph.edge(e);
    if (span.size() >= 2) candidates.emplace_back(span.begin(), span.end());
  }
  return candidates;
}

std::vector<std::vector<double>> ComputeHandcraftedFeatures(
    const Hypergraph& graph) {
  // Per-node neighbor counts (distinct co-members over incident edges).
  std::vector<double> node_neighbors(graph.num_nodes(), 0.0);
  std::unordered_set<NodeId> seen;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    seen.clear();
    for (EdgeId e : graph.edges_of(v)) {
      for (NodeId u : graph.edge(e)) {
        if (u != v) seen.insert(u);
      }
    }
    node_neighbors[v] = static_cast<double>(seen.size());
  }

  std::vector<std::vector<double>> rows(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const auto members = graph.edge(e);
    double deg_sum = 0.0, deg_max = 0.0, deg_min = 1e18;
    double nbr_sum = 0.0, nbr_max = 0.0, nbr_min = 1e18;
    for (NodeId v : members) {
      const double d = static_cast<double>(graph.degree(v));
      deg_sum += d;
      deg_max = std::max(deg_max, d);
      deg_min = std::min(deg_min, d);
      const double nb = node_neighbors[v];
      nbr_sum += nb;
      nbr_max = std::max(nbr_max, nb);
      nbr_min = std::min(nbr_min, nb);
    }
    const double size = static_cast<double>(members.size());
    rows[e] = {deg_sum / size, deg_max, deg_min,
               nbr_sum / size, nbr_max, nbr_min, size};
  }
  return rows;
}

Result<PredictionTask> BuildHyperedgePredictionTask(
    const Hypergraph& history,
    const std::vector<std::vector<NodeId>>& candidates,
    const PredictionTaskOptions& options) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate hyperedges");
  }

  // Fabricate one fake per candidate by member replacement. Reuse the
  // perturbation module by building a candidates-only hypergraph that
  // shares the node universe.
  BuildOptions candidate_build;
  candidate_build.dedup_edges = false;
  candidate_build.num_nodes = history.num_nodes();
  MOCHY_ASSIGN_OR_RETURN(Hypergraph candidate_graph,
                         MakeHypergraph(candidates, candidate_build));
  if (candidate_graph.num_edges() != candidates.size()) {
    return Status::InvalidArgument("candidate edges may not be empty");
  }
  PerturbOptions perturb;
  perturb.replace_fraction = options.replace_fraction;
  perturb.seed = options.seed;
  MOCHY_ASSIGN_OR_RETURN(std::vector<std::vector<NodeId>> fakes,
                         MakeFakeHyperedges(candidate_graph, perturb));

  // Combined hypergraph: history edges first, then real candidates, then
  // fakes. Dedup must stay off so edge ids stay aligned with rows.
  HypergraphBuilder builder;
  for (EdgeId e = 0; e < history.num_edges(); ++e) {
    const auto span = history.edge(e);
    builder.AddEdge(span);
  }
  for (const auto& edge : candidates) {
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
  }
  for (const auto& edge : fakes) {
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
  }
  BuildOptions combined_build;
  combined_build.dedup_edges = false;
  combined_build.num_nodes = history.num_nodes();
  MOCHY_ASSIGN_OR_RETURN(Hypergraph combined,
                         std::move(builder).Build(combined_build));

  auto projection = ProjectedGraph::Build(combined, options.num_threads);
  if (!projection.ok()) return projection.status();
  const auto hc_rows = ComputeHandcraftedFeatures(combined);

  // HM26 rows: a candidate's row is exactly the instances containing it
  // in the combined graph — the core's containing-edge census over the
  // combined projection, candidates claimed in degree-balanced chunks on
  // the pool. Rows are integer censuses, so they are bit-identical at any
  // thread count.
  const size_t base = history.num_edges();
  const size_t num_candidates = candidates.size();
  const ProjectedGraph& combined_projection = projection.value();
  const internal::ProjectionSource source(combined, combined_projection);
  const MotifClassifier classify;
  const uint64_t max_edge_size = internal::MaxEdgeSize(source.size_of);
  std::vector<std::vector<double>> hm26_rows(2 * num_candidates);
  std::vector<uint64_t> cost(hm26_rows.size());
  for (size_t i = 0; i < cost.size(); ++i) {
    cost[i] = 1 + combined_projection.degree(static_cast<EdgeId>(base + i));
  }
  const size_t num_threads =
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads;
  ParallelWorkChunks(cost, num_threads, [&](size_t, size_t begin, size_t end) {
    ScratchArena& arena = internal::ArenaFor(combined);
    internal::OpenPairBuckets buckets(max_edge_size);
    for (size_t i = begin; i < end; ++i) {
      const EdgeId candidate = static_cast<EdgeId>(base + i);
      internal::MotifCensus census{};
      internal::ContainingCensus(source, classify, candidate,
                                 combined_projection.neighbors(candidate),
                                 buckets, arena, census);
      hm26_rows[i].assign(census.begin() + 1, census.end());
    }
  });

  PredictionTask task;
  auto append = [&](size_t item, int label) {
    task.hm26.features.push_back(std::move(hm26_rows[item]));
    task.hm26.labels.push_back(label);
    task.hc.features.push_back(hc_rows[base + item]);
    task.hc.labels.push_back(label);
  };
  for (size_t i = 0; i < num_candidates; ++i) append(i, 1);
  for (size_t i = 0; i < num_candidates; ++i) append(num_candidates + i, 0);

  // HM7: the seven highest-variance HM26 features.
  std::array<double, kNumHMotifs> mean{}, var{};
  const double n = static_cast<double>(task.hm26.size());
  for (const auto& row : task.hm26.features) {
    for (int f = 0; f < kNumHMotifs; ++f) mean[f] += row[f];
  }
  for (double& m : mean) m /= n;
  for (const auto& row : task.hm26.features) {
    for (int f = 0; f < kNumHMotifs; ++f) {
      const double d = row[f] - mean[f];
      var[f] += d * d;
    }
  }
  std::array<int, kNumHMotifs> order{};
  for (int f = 0; f < kNumHMotifs; ++f) order[f] = f;
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return var[a] > var[b]; });
  std::copy(order.begin(), order.begin() + 7,
            task.hm7_feature_indices.begin());
  for (const auto& row : task.hm26.features) {
    std::vector<double> selected(7);
    for (int f = 0; f < 7; ++f) {
      selected[f] = row[static_cast<size_t>(task.hm7_feature_indices[f])];
    }
    task.hm7.features.push_back(std::move(selected));
  }
  task.hm7.labels = task.hm26.labels;
  return task;
}

}  // namespace mochy
