#include "motif/mochy_e.h"

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

  std::vector<MotifCounts> partial(num_threads);
  internal::ForEachInstanceParallel(
      graph, projection, num_threads,
      [&partial](size_t worker, EdgeId, EdgeId, EdgeId, int id) {
        // id 0: a triple with duplicated hyperedges, which corresponds to
        // no h-motif (paper Figure 4). Null models that keep duplicate
        // hyperedges produce them.
        if (id != 0) partial[worker][id] += 1.0;
      });

  MotifCounts total;
  for (const MotifCounts& part : partial) total += part;
  return total;
}

MotifCounts CountMotifsExact(const Hypergraph& graph, size_t num_threads) {
  auto projection = ProjectedGraph::Build(graph, num_threads);
  MOCHY_CHECK(projection.ok()) << projection.status().ToString();
  return CountMotifsExact(graph, projection.value(), num_threads);
}

}  // namespace mochy
