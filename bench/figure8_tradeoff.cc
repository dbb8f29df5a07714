// Regenerates Figure 8: the speed/accuracy trade-off of MoCHy-E, MoCHy-A
// and MoCHy-A+ at matched sampling ratios.
//
// Paper shape to verify: at the same ratio alpha = s/|E| = r/|∧|,
// MoCHy-A+ is substantially more accurate than MoCHy-A (paper: up to 25x)
// and much faster than MoCHy-E with small error (paper: up to 32x).
//
// All three variants run through the MotifEngine facade; the engine's run
// statistics provide the timings. The errors are determined by the seeds,
// so the accuracy half of the shape is checked: the program exits 1
// unless the A+ error is below the A error in every (domain, ratio) cell.
// The timings are printed, not checked.
#include "bench/bench_util.h"
#include "gen/generators.h"
#include "motif/engine.h"

int main() {
  using namespace mochy;
  bench::PrintHeader("Figure 8: speed vs accuracy of MoCHy variants");

  const Domain domains[] = {Domain::kContact, Domain::kEmail, Domain::kTags};
  const int kTrials = 5;
  int failed_cells = 0;
  for (Domain domain : domains) {
    GeneratorConfig config = DefaultConfig(domain, bench::BenchScale());
    config.seed = 5;
    const Hypergraph graph = GenerateDomainHypergraph(config).value();
    EngineOptions build;
    build.num_threads = 2;
    const MotifEngine engine = MotifEngine::Create(graph, build).value();

    EngineOptions exact_options;
    exact_options.algorithm = Algorithm::kExact;
    const EngineResult exact = engine.Count(exact_options).value();
    std::printf("\n--- %s: |E| = %zu, |wedges| = %llu ---\n",
                DomainName(domain).c_str(), graph.num_edges(),
                static_cast<unsigned long long>(engine.projection().num_wedges()));
    std::printf("MoCHy-E: %.3fs (exact reference)\n",
                exact.stats.elapsed_seconds);
    std::printf("%7s | %10s %10s | %10s %10s | %8s %8s\n", "ratio",
                "A time(s)", "A err", "A+ time(s)", "A+ err", "A+/E", "A/A+");

    for (double ratio : {0.025, 0.05, 0.10, 0.15, 0.20, 0.25}) {
      double time_a = 0.0, err_a = 0.0, time_ap = 0.0, err_ap = 0.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        EngineOptions options;
        options.sampling_ratio = ratio;
        options.seed = 40 + static_cast<uint64_t>(trial);

        options.algorithm = Algorithm::kEdgeSample;
        const EngineResult a = engine.Count(options).value();
        time_a += a.stats.elapsed_seconds / kTrials;
        err_a += a.counts.RelativeError(exact.counts) / kTrials;

        options.algorithm = Algorithm::kLinkSample;
        const EngineResult ap = engine.Count(options).value();
        time_ap += ap.stats.elapsed_seconds / kTrials;
        err_ap += ap.counts.RelativeError(exact.counts) / kTrials;
      }
      std::printf("%6.1f%% | %10.3f %10.4f | %10.3f %10.4f | %7.1fx %7.1fx\n",
                  100 * ratio, time_a, err_a, time_ap, err_ap,
                  time_ap > 0 ? exact.stats.elapsed_seconds / time_ap : 0.0,
                  err_ap > 0 ? err_a / err_ap : 0.0);
      if (!(err_ap < err_a)) {
        std::printf("FAIL: %s at %.1f%%: A+ error %.4f is not below A error "
                    "%.4f\n",
                    DomainName(domain).c_str(), 100 * ratio, err_ap, err_a);
        ++failed_cells;
      }
    }
  }
  if (failed_cells > 0) {
    std::printf("\nshape check FAILED: A+ error not below A in %d cell(s)\n",
                failed_cells);
    return 1;
  }
  std::printf("\nshape check passed: A+ errors are below A at equal ratio in\n"
              "every cell (timings printed, not checked).\n");
  return 0;
}
