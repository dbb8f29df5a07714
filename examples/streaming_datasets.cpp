// Working with on-disk datasets and memory-bounded counting.
//
// Demonstrates the I/O layer (the text format of the public Benson et al.
// datasets), Table 2-style statistics, and the on-the-fly MoCHy-A+ variant
// that avoids materializing the projected graph (paper Section 3.4) —
// useful when |∧| is much larger than the memory budget. ("Streaming"
// here means streaming *over a stored dataset* with bounded memory; for
// incremental counting over live hyperedge *arrivals*, see
// motif/streaming.h and docs/STREAMING.md.)
//
//   $ ./build/examples/streaming_datasets
#include <cstdio>
#include <filesystem>

#include "common/timer.h"
#include "gen/generators.h"
#include "hypergraph/io.h"
#include "hypergraph/projection.h"
#include "hypergraph/stats.h"
#include "motif/engine.h"
#include "motif/mochy_e.h"

int main() {
  using namespace mochy;

  // Write a dataset to disk in the standard text format, then re-load it.
  GeneratorConfig config = DefaultConfig(Domain::kTags, 0.4);
  config.seed = 77;
  const Hypergraph generated = GenerateDomainHypergraph(config).value();
  const std::string path =
      (std::filesystem::temp_directory_path() / "tags-demo.txt").string();
  if (Status s = SaveHypergraph(generated, path); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const Hypergraph graph = LoadHypergraph(path).value();
  std::printf("loaded %s\n", path.c_str());

  const DatasetStats stats = ComputeStats(graph, 2);
  std::printf("%-18s %9s %9s %5s %6s %12s %9s\n", "dataset", "|V|", "|E|",
              "max|e|", "avg|e|", "|wedges|", "maxdeg");
  std::printf("%s\n", FormatStatsRow("tags-demo", stats).c_str());

  // Exact counts as the reference.
  const MotifCounts exact = CountMotifsExact(graph, 2);

  // On-the-fly MoCHy-A+ (the engine's lazy projection policy) under
  // three memoization budgets: ~none, 64 KiB and 16 MiB.
  EngineOptions sampling;
  sampling.algorithm = Algorithm::kLinkSample;
  sampling.projection = ProjectionPolicy::kLazy;
  sampling.num_samples = ComputeProjectedDegrees(graph, 2).num_wedges / 20;
  sampling.seed = 5;
  sampling.num_threads = 2;
  std::printf("\non-the-fly MoCHy-A+ (r = %llu wedge samples):\n",
              static_cast<unsigned long long>(sampling.num_samples));
  std::printf("%12s %12s %12s %10s %8s\n", "budget", "computes", "hits",
              "rel.err", "time(s)");
  for (uint64_t budget : {1ull, 64ull << 10, 16ull << 20}) {
    sampling.memory_budget = budget;
    Timer timer;
    const MotifEngine engine = MotifEngine::Create(graph, sampling).value();
    const EngineResult estimate = engine.Count(sampling).value();
    std::printf("%12llu %12llu %12llu %10.4f %8.3f\n",
                static_cast<unsigned long long>(budget),
                static_cast<unsigned long long>(estimate.stats.lazy_recomputes),
                static_cast<unsigned long long>(estimate.stats.lazy_memo_hits),
                estimate.counts.RelativeError(exact), timer.Seconds());
  }
  std::remove(path.c_str());
  return 0;
}
