#include "motif/enumerate.h"

#include "common/logging.h"
#include "motif/stamp_kernels.h"

namespace mochy {

void EnumerateInstances(const Hypergraph& graph,
                        const ProjectedGraph& projection,
                        const std::function<void(const MotifInstance&)>& fn) {
  EnumerateInstancesParallel(
      graph, projection, /*num_threads=*/1,
      [&fn](size_t, const MotifInstance& instance) { fn(instance); });
}

void EnumerateInstancesParallel(
    const Hypergraph& graph, const ProjectedGraph& projection,
    size_t num_threads,
    const std::function<void(size_t thread, const MotifInstance&)>& fn) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges());
  internal::ForEachInstanceParallel(
      graph, projection, num_threads,
      [&fn](size_t worker, EdgeId ei, EdgeId ej, EdgeId ek, int id) {
        // id 0 = triple with duplicated hyperedges (no h-motif, Figure 4).
        if (id != 0) fn(worker, MotifInstance{ei, ej, ek, id});
      });
}

std::vector<MotifInstance> CollectInstances(const Hypergraph& graph,
                                            const ProjectedGraph& projection) {
  std::vector<MotifInstance> out;
  EnumerateInstances(graph, projection,
                     [&](const MotifInstance& inst) { out.push_back(inst); });
  return out;
}

}  // namespace mochy
