#include "motif/mochy_e.h"

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "motif/stamp_kernels.h"

namespace mochy {

MotifCounts CountMotifsExact(const Hypergraph& graph,
                             const ProjectedGraph& projection,
                             size_t num_threads) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges())
      << "projection does not match hypergraph";
  if (num_threads == 0) num_threads = DefaultThreadCount();

  // One integer census per worker; slot 0 collects id 0 (duplicated
  // hyperedges, paper Figure 4, or an as-if-open class that names no
  // h-motif) and is dropped.
  std::vector<internal::PaddedCensus> partial(num_threads);
  internal::ForEachHubClassParallel(
      graph, projection, num_threads,
      [&partial](size_t worker, EdgeId,
                 const internal::OpenPairBuckets& buckets) {
        auto& n = partial[worker].n;
        buckets.ForEachKeyPair([&n](size_t, size_t, uint64_t pairs, int id) {
          n[id] += static_cast<int64_t>(pairs);
        });
      },
      [&partial](size_t worker, EdgeId, EdgeId, EdgeId, int id, int open_i,
                 int open_j, int open_k) {
        auto& n = partial[worker].n;
        n[id] += 1;
        n[open_i] -= 1;
        n[open_j] -= 1;
        n[open_k] -= 1;
      });
  return internal::SumCensus(partial);
}

MotifCounts CountMotifsExact(const Hypergraph& graph, size_t num_threads) {
  auto projection = ProjectedGraph::Build(graph, num_threads);
  MOCHY_CHECK(projection.ok()) << projection.status().ToString();
  return CountMotifsExact(graph, projection.value(), num_threads);
}

}  // namespace mochy
