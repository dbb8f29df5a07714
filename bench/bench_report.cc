// Reproducible perf harness for the MoCHy hot paths: runs the production
// stamp-array kernels AND the retained pre-stamp baselines
// (motif/reference.h) for E/A/A+ on the example graphs and writes one
// machine-readable BENCH_*.json — wall time (min over repeats), hubs/s,
// samples/s, per-kernel timers and stamped-vs-reference speedups — so
// every PR leaves a measured trajectory behind. Counts from both kernel
// generations are compared bit-for-bit in-run; a mismatch fails the
// harness.
//
// Driven by tools/run_bench.py (which also owns the CI smoke-regression
// check); run it directly for ad-hoc measurements:
//
//   bench_report --out BENCH_pr3.json --scale 1.0 --threads 1 --repeat 3
//   bench_report --smoke --out BENCH_smoke.json
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "gen/generators.h"
#include "hypergraph/binary_format.h"
#include "hypergraph/projection.h"
#include "motif/counts.h"
#include "motif/engine.h"
#include "motif/mochy_a.h"
#include "motif/mochy_aplus.h"
#include "motif/mochy_e.h"
#include "motif/mochy_weighted.h"
#include "motif/reference.h"
#include "motif/streaming.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace mochy::bench {
namespace {

// Memo budgets of the memory and out-of-core scenarios, as fractions of
// the adjacency (Σ_e |N_e| entries at kNeighborEntryBytes each).
constexpr uint64_t kNeighborEntryBytes = 8;
constexpr uint64_t kLazyBudgetDivisor = 3;
constexpr uint64_t kSpillBudgetDivisor = 4;

struct Config {
  std::string out = "BENCH_report.json";
  std::string tag = "report";
  // scale/repeat <= 0 mean "not set on the command line"; resolved after
  // parsing so --smoke provides defaults without clobbering explicit
  // flags.
  double scale = 0.0;
  size_t threads = 1;
  int repeat = 0;
  bool smoke = false;
  double sample_ratio = 0.1;
  // Sampler budget cap: on dense domains the projection is near-complete
  // and 0.1·|∧| would be millions of samples; the throughput metric does
  // not need that many.
  uint64_t max_samples = 50'000;
  // Sampler budget floor: the smoke gate needs every measured kernel in
  // the multi-millisecond range, above shared-runner timer jitter.
  uint64_t min_samples = 1;
};

struct KernelRow {
  std::string kernel;       // e.g. "mochy-e/stamped"
  size_t threads = 1;
  double wall_s = 0.0;      // min over repeats
  uint64_t samples = 0;     // 0 for exact kernels
  double hubs_per_s = 0.0;  // exact kernels: hubs (= |E|) per second
  double samples_per_s = 0.0;
};

struct GraphReport {
  std::string name;
  size_t nodes = 0;
  size_t edges = 0;
  uint64_t pins = 0;
  uint64_t wedges = 0;
  double projection_s = 0.0;
  std::vector<KernelRow> kernels;
  double exact_speedup = 0.0;  // reference wall / stamped wall, 0 if absent
  // Streaming scenario: the graph's edges replayed as an arrival stream
  // through StreamingEngine (one O(Δ) delta pass each), final counts
  // verified bit-identical to the exact kernels in-run.
  uint64_t stream_arrivals = 0;
  double stream_wall_s = 0.0;           // min over repeats
  double stream_arrivals_per_s = 0.0;
  double stream_mean_arrival_us = 0.0;  // mean per-arrival latency
  // (projection build + reference exact recount) / mean per-arrival cost:
  // what maintaining exact counts on one arrival costs with a recount
  // vs. with the incremental delta pass, at this graph's size.
  double stream_speedup_vs_recount = 0.0;
  // Decremental scenario: the populated graph drained back to empty,
  // one reverse delta pass per removal; the end state is verified to be
  // exactly the zero vector in-run.
  uint64_t stream_removals = 0;
  double stream_remove_wall_s = 0.0;    // min over repeats
  double stream_removals_per_s = 0.0;
  double stream_mean_removal_us = 0.0;
  // Sliding-window scenario: the edges replayed as a one-arrival-per-
  // tick trace through WindowMode::kSliding (horizon = 2 widths), so
  // every emitted window pays both the arrival and the eviction pass.
  uint64_t stream_windows = 0;
  uint64_t stream_evictions = 0;
  double stream_sliding_wall_s = 0.0;   // min over repeats
  double stream_windows_per_s = 0.0;
  // Multi-producer scenario: producer threads round-robin the edges
  // into a ShardedStreamingEngine while a drainer folds them in; final
  // counts verified bit-identical to the exact kernels in-run.
  uint64_t ingest_producers = 0;
  double ingest_wall_s = 0.0;           // min over repeats
  double ingest_edges_per_s = 0.0;
  // Memory scenario: MoCHy-A+ through the engine's lazy projection policy
  // under a budget of 1/3 of the adjacency; estimates verified
  // bit-identical to the materialized kernel in-run.
  uint64_t mem_materialized_bytes = 0;  // full ProjectedGraph footprint
  uint64_t mem_budget_bytes = 0;        // configured memo budget
  uint64_t mem_lazy_peak_bytes = 0;     // memo peak + wedge index
  uint64_t mem_lazy_resident_bytes = 0; // memo resident + wedge index
  double mem_lazy_hit_rate = 0.0;       // warm-run memo hit rate
  uint64_t mem_lazy_recomputes = 0;     // warm-run recomputations
  double mem_lazy_wall_ratio = 0.0;     // lazy wall / materialized a+ wall
  // Out-of-core scenario: the graph round-tripped through the mmap-able
  // binary container (hypergraph/binary_format.h), then MoCHy-A+ at a
  // budget of 1/4 of the adjacency with the spill-to-disk
  // tier attached; estimates verified bit-identical to the materialized
  // kernel in-run.
  uint64_t ooc_file_bytes = 0;          // size of the .mhg container
  uint64_t ooc_budget_bytes = 0;        // configured memo budget
  uint64_t ooc_spills = 0;              // records appended to spill logs
  uint64_t ooc_readmits = 0;            // neighborhoods served from disk
  uint64_t ooc_fallbacks = 0;           // corrupt/short reads -> recompute
  double ooc_hit_rate = 0.0;            // disk-tier hit rate:
                                        // readmits / (readmits + recomputes)
  double ooc_wall_ratio = 0.0;          // spill wall / materialized a+ wall
  uint64_t ooc_peak_rss_kb = 0;         // process peak RSS after the run
  // Serving scenario: a deterministic mixed count/profile workload driven
  // through MotifServer::HandleRequest in-process (no sockets, so the
  // numbers measure the serving layer, not the kernel or the transport).
  // Served counts are verified bit-identical to the direct kernel runs
  // above — both on the cold round and on the cached rounds.
  uint64_t serve_queries = 0;
  double serve_wall_s = 0.0;
  double serve_queries_per_s = 0.0;
  double serve_hit_rate = 0.0;  // result-cache hit rate over the workload
  double serve_p50_us = 0.0;    // per-query latency percentiles
  double serve_p99_us = 0.0;
  // Fault-resilience scenario: the same query mix over a real unix
  // socket, once clean and once under a seeded 1% fault schedule on
  // every frame-I/O point, with the client retrying transient failures.
  // Every response (clean or faulty) is verified bit-identical to the
  // direct kernel runs; the delta between the rows is the price of
  // riding out the faults (reconnects + backoff).
  uint64_t faults_queries = 0;
  double faults_clean_wall_s = 0.0;
  double faults_clean_qps = 0.0;
  double faults_clean_p99_us = 0.0;
  double faults_wall_s = 0.0;
  double faults_qps = 0.0;
  double faults_p99_us = 0.0;
  uint64_t faults_fired = 0;      // injected faults in the fastest faulty phase
  uint64_t faults_dropped = 0;    // connections the server cut because of them
};

/// Minimum wall time of `fn` over `repeat` runs; the first run's result is
/// kept for the bit-identity check.
template <typename Fn>
double MinWall(int repeat, MotifCounts* out, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    Timer timer;
    MotifCounts counts = fn();
    const double elapsed = timer.Seconds();
    if (r == 0) {
      if (out != nullptr) *out = counts;
      best = elapsed;
    } else {
      best = std::min(best, elapsed);
    }
  }
  return best;
}

bool BitIdentical(const MotifCounts& a, const MotifCounts& b) {
  for (int t = 1; t <= kNumHMotifs; ++t) {
    if (a[t] != b[t]) return false;
  }
  return true;
}

GraphReport MeasureGraph(const std::string& name, const Hypergraph& graph,
                         const Config& config) {
  std::fprintf(stderr, "measuring %s (|E|=%zu)...\n", name.c_str(),
               graph.num_edges());
  GraphReport report;
  report.name = name;
  report.nodes = graph.num_nodes();
  report.edges = graph.num_edges();
  report.pins = graph.num_pins();

  Timer projection_timer;
  const ProjectedGraph projection =
      ProjectedGraph::Build(graph, config.threads).value();
  report.projection_s = projection_timer.Seconds();
  report.wedges = projection.num_wedges();

  const double m = static_cast<double>(graph.num_edges());
  auto add_exact = [&](const char* kernel, MotifCounts* counts, auto&& fn) {
    KernelRow row;
    row.kernel = kernel;
    row.threads = config.threads;
    row.wall_s = MinWall(config.repeat, counts, fn);
    row.hubs_per_s = row.wall_s > 0.0 ? m / row.wall_s : 0.0;
    report.kernels.push_back(row);
    return row.wall_s;
  };
  auto add_sampler = [&](const char* kernel, uint64_t samples,
                         MotifCounts* counts, auto&& fn) {
    KernelRow row;
    row.kernel = kernel;
    row.threads = config.threads;
    row.samples = samples;
    row.wall_s = MinWall(config.repeat, counts, fn);
    row.samples_per_s =
        row.wall_s > 0.0 ? static_cast<double>(samples) / row.wall_s : 0.0;
    report.kernels.push_back(row);
    return row.wall_s;
  };

  MotifCounts exact_stamped, exact_reference;
  const double stamped_wall =
      add_exact("mochy-e/stamped", &exact_stamped, [&] {
        return CountMotifsExact(graph, projection, config.threads);
      });
  const double reference_wall =
      add_exact("mochy-e/reference", &exact_reference, [&] {
        return reference::CountMotifsExact(graph, projection, config.threads);
      });
  if (!BitIdentical(exact_stamped, exact_reference)) {
    std::fprintf(stderr, "FATAL: %s: stamped exact counts diverge from the "
                         "reference kernel\n",
                 name.c_str());
    std::exit(1);
  }
  if (stamped_wall > 0.0) {
    report.exact_speedup = reference_wall / stamped_wall;
  }

  MochyAOptions a;
  a.num_samples = std::clamp(
      static_cast<uint64_t>(config.sample_ratio * m), config.min_samples,
      config.max_samples);
  a.num_threads = config.threads;
  MotifCounts a_stamped, a_reference;
  add_sampler("mochy-a/stamped", a.num_samples, &a_stamped, [&] {
    return CountMotifsEdgeSample(graph, projection, a);
  });
  add_sampler("mochy-a/reference", a.num_samples, &a_reference, [&] {
    return reference::CountMotifsEdgeSample(graph, projection, a);
  });
  if (!BitIdentical(a_stamped, a_reference)) {
    std::fprintf(stderr, "FATAL: %s: stamped MoCHy-A diverges from the "
                         "reference kernel\n",
                 name.c_str());
    std::exit(1);
  }

  MochyAPlusOptions aplus;
  aplus.num_samples = std::clamp(
      static_cast<uint64_t>(config.sample_ratio *
                            static_cast<double>(projection.num_wedges())),
      config.min_samples, config.max_samples);
  aplus.num_threads = config.threads;
  MotifCounts aplus_stamped, aplus_reference;
  const double aplus_wall =
      add_sampler("mochy-a+/stamped", aplus.num_samples, &aplus_stamped, [&] {
        return CountMotifsWedgeSample(graph, projection, aplus);
      });
  add_sampler("mochy-a+/reference", aplus.num_samples, &aplus_reference, [&] {
    return reference::CountMotifsWedgeSample(graph, projection, aplus);
  });
  if (!BitIdentical(aplus_stamped, aplus_reference)) {
    std::fprintf(stderr, "FATAL: %s: stamped MoCHy-A+ diverges from the "
                         "reference kernel\n",
                 name.c_str());
    std::exit(1);
  }

  // Weighted estimator (MoCHy-A+W) through the engine facade, verified
  // bit-identical to the projection-free kernel it promotes.
  {
    EngineOptions weighted_options;
    weighted_options.algorithm = Algorithm::kWeighted;
    weighted_options.num_samples = aplus.num_samples;
    weighted_options.seed = 1;
    const MotifEngine weighted_engine =
        MotifEngine::Create(graph, weighted_options).value();
    MotifCounts weighted_counts;
    add_sampler("mochy-w/engine", aplus.num_samples, &weighted_counts, [&] {
      return weighted_engine.Count(weighted_options).value().counts;
    });
    MochyWeightedOptions kernel_options;
    kernel_options.num_samples = aplus.num_samples;
    kernel_options.seed = 1;
    const MotifCounts weighted_kernel =
        CountMotifsWeightedWedge(graph, kernel_options).value().counts;
    if (!BitIdentical(weighted_counts, weighted_kernel)) {
      std::fprintf(stderr, "FATAL: %s: engine MoCHy-A+W diverges from the "
                           "projection-free kernel\n",
                   name.c_str());
      std::exit(1);
    }
  }

  // Per-edge strategy (the Table-4 HM26 rows) through the engine
  // facade. Two in-run oracles: bit-identity against the free-function
  // kernel, and every motif's column summing to exactly 3x the global
  // exact count (each instance credits its three member rows).
  {
    EngineOptions pe_options;
    pe_options.projection = ProjectionPolicy::kMaterialized;
    pe_options.num_threads = config.threads;
    const MotifEngine pe_engine =
        MotifEngine::Create(graph, pe_options).value();
    KernelRow row;
    row.kernel = "per_edge/engine";
    row.threads = config.threads;
    PerEdgeCounts engine_rows;
    for (int rep = 0; rep < std::max(config.repeat, 1); ++rep) {
      Timer timer;
      auto result = pe_engine.CountPerEdge(pe_options);
      const double wall = timer.Seconds();
      if (!result.ok()) {
        std::fprintf(stderr, "FATAL: %s: engine per-edge failed: %s\n",
                     name.c_str(), result.status().ToString().c_str());
        std::exit(1);
      }
      if (rep == 0) {
        engine_rows = std::move(result.value().rows);
        row.wall_s = wall;
      } else {
        row.wall_s = std::min(row.wall_s, wall);
      }
    }
    row.hubs_per_s = row.wall_s > 0.0 ? m / row.wall_s : 0.0;
    report.kernels.push_back(row);
    const PerEdgeCounts oracle_rows =
        reference::ComputePerEdgeMotifCounts(graph, projection);
    if (engine_rows != oracle_rows) {
      std::fprintf(stderr, "FATAL: %s: engine per-edge rows diverge from "
                           "the reference oracle\n",
                   name.c_str());
      std::exit(1);
    }
    for (int t = 1; t <= kNumHMotifs; ++t) {
      double column = 0.0;
      for (const auto& edge_row : engine_rows) column += edge_row[t - 1];
      if (column != 3.0 * exact_stamped[t]) {
        std::fprintf(stderr, "FATAL: %s: per-edge column for motif %d sums "
                             "to %g, want 3x the exact count %g\n",
                     name.c_str(), t, column, exact_stamped[t]);
        std::exit(1);
      }
    }
  }

  // Streaming scenario: replay the graph's own edges as an arrival
  // stream. The end state is the measured graph itself, so the final
  // incremental counts must equal the exact kernels bit-for-bit.
  MotifCounts streamed;
  KernelRow stream_row;
  stream_row.kernel = "streaming/replay";
  stream_row.threads = config.threads;
  stream_row.samples = graph.num_edges();
  stream_row.wall_s = MinWall(config.repeat, &streamed, [&] {
    StreamingOptions streaming;
    streaming.num_threads = config.threads;
    StreamingEngine engine(streaming);
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      auto added = engine.AddEdge(graph.edge(e));
      if (!added.ok()) {
        std::fprintf(stderr, "FATAL: %s: streaming AddEdge failed: %s\n",
                     name.c_str(), added.status().ToString().c_str());
        std::exit(1);
      }
    }
    return engine.counts();
  });
  stream_row.samples_per_s =
      stream_row.wall_s > 0.0 ? m / stream_row.wall_s : 0.0;
  report.kernels.push_back(stream_row);
  if (!BitIdentical(streamed, exact_stamped)) {
    std::fprintf(stderr, "FATAL: %s: streaming replay counts diverge from "
                         "the exact kernel\n",
                 name.c_str());
    std::exit(1);
  }
  report.stream_arrivals = graph.num_edges();
  report.stream_wall_s = stream_row.wall_s;
  report.stream_arrivals_per_s = stream_row.samples_per_s;
  const double mean_arrival_s =
      graph.num_edges() > 0 ? stream_row.wall_s / m : 0.0;
  report.stream_mean_arrival_us = mean_arrival_s * 1e6;
  if (mean_arrival_s > 0.0) {
    report.stream_speedup_vs_recount =
        (report.projection_s + reference_wall) / mean_arrival_s;
  }

  // Decremental scenario: drain the streamed graph back down through
  // the reverse delta pass. Each repeat repopulates a fresh engine
  // (untimed) and times only the removals; finishing at exactly the
  // zero vector pins every reverse enumeration to its forward twin
  // across the whole graph.
  {
    KernelRow remove_row;
    remove_row.kernel = "streaming/remove";
    remove_row.threads = config.threads;
    remove_row.samples = graph.num_edges();
    for (int rep = 0; rep < std::max(config.repeat, 1); ++rep) {
      StreamingOptions streaming;
      streaming.num_threads = config.threads;
      StreamingEngine engine(streaming);
      for (EdgeId e = 0; e < graph.num_edges(); ++e) {
        if (!engine.AddEdge(graph.edge(e)).ok()) {
          std::fprintf(stderr, "FATAL: %s: decremental repopulate failed\n",
                       name.c_str());
          std::exit(1);
        }
      }
      Timer timer;
      for (EdgeId e = 0; e < graph.num_edges(); ++e) {
        if (!engine.RemoveEdge(e).ok()) {
          std::fprintf(stderr, "FATAL: %s: RemoveEdge(%llu) failed\n",
                       name.c_str(), static_cast<unsigned long long>(e));
          std::exit(1);
        }
      }
      const double wall = timer.Seconds();
      if (rep == 0 || wall < remove_row.wall_s) remove_row.wall_s = wall;
      if (!BitIdentical(engine.counts(), MotifCounts())) {
        std::fprintf(stderr, "FATAL: %s: decremental drain did not return "
                             "the counts to zero\n",
                     name.c_str());
        std::exit(1);
      }
    }
    remove_row.samples_per_s =
        remove_row.wall_s > 0.0 ? m / remove_row.wall_s : 0.0;
    report.kernels.push_back(remove_row);
    report.stream_removals = graph.num_edges();
    report.stream_remove_wall_s = remove_row.wall_s;
    report.stream_removals_per_s = remove_row.samples_per_s;
    report.stream_mean_removal_us =
        graph.num_edges() > 0 ? remove_row.wall_s / m * 1e6 : 0.0;
  }

  // Sliding-window scenario: one arrival per time tick, window width
  // |E|/16, horizon two widths — every window close both ingests and
  // evicts, the steady state of a production sliding counter.
  {
    TemporalTrace trace;
    trace.arrivals.reserve(graph.num_edges());
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      TimedEdge arrival;
      arrival.time = e;
      const auto span = graph.edge(e);
      arrival.nodes.assign(span.begin(), span.end());
      trace.arrivals.push_back(std::move(arrival));
    }
    ReplayOptions sliding;
    sliding.streaming.num_threads = config.threads;
    sliding.window_width = std::max<uint64_t>(1, graph.num_edges() / 16);
    sliding.horizon = 2 * sliding.window_width;
    sliding.mode = WindowMode::kSliding;
    double wall = 0.0;
    for (int rep = 0; rep < std::max(config.repeat, 1); ++rep) {
      Timer timer;
      auto replayed = ReplayTrace(trace, sliding);
      const double elapsed = timer.Seconds();
      if (!replayed.ok()) {
        std::fprintf(stderr, "FATAL: %s: sliding replay failed: %s\n",
                     name.c_str(), replayed.status().ToString().c_str());
        std::exit(1);
      }
      if (rep == 0 || elapsed < wall) wall = elapsed;
      if (rep == 0) {
        report.stream_windows = replayed.value().windows.size();
        for (const WindowResult& window : replayed.value().windows) {
          report.stream_evictions += window.evictions;
        }
      }
    }
    report.stream_sliding_wall_s = wall;
    report.stream_windows_per_s =
        wall > 0.0 ? static_cast<double>(report.stream_windows) / wall : 0.0;
  }

  // Multi-producer scenario: 4 producer threads round-robin the edges
  // into a sharded engine while a drainer folds staged arrivals in;
  // whatever the interleaving, the final counts must equal the exact
  // kernels bit-for-bit.
  {
    constexpr size_t kProducers = 4;
    double wall = 0.0;
    for (int rep = 0; rep < std::max(config.repeat, 1); ++rep) {
      StreamingOptions streaming;
      streaming.num_threads = 1;  // producers supply the parallelism
      ShardedStreamingEngine sharded(kProducers, streaming);
      Timer timer;
      std::vector<std::thread> producers;
      for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          for (size_t e = p; e < graph.num_edges(); e += kProducers) {
            if (!sharded.Submit(p, graph.edge(static_cast<EdgeId>(e))).ok()) {
              std::fprintf(stderr, "FATAL: %s: sharded Submit failed\n",
                           name.c_str());
              std::exit(1);
            }
          }
        });
      }
      std::thread drainer([&] {
        for (int round = 0; round < 16; ++round) sharded.Drain();
      });
      for (std::thread& t : producers) t.join();
      drainer.join();
      const MotifCounts counts = sharded.Counts();  // final drain + read
      const double elapsed = timer.Seconds();
      if (rep == 0 || elapsed < wall) wall = elapsed;
      if (!BitIdentical(counts, exact_stamped)) {
        std::fprintf(stderr, "FATAL: %s: sharded ingest counts diverge from "
                             "the exact kernel\n",
                     name.c_str());
        std::exit(1);
      }
    }
    report.ingest_producers = kProducers;
    report.ingest_wall_s = wall;
    report.ingest_edges_per_s = wall > 0.0 ? m / wall : 0.0;
  }

  // The memory and out-of-core scenarios size their memo budgets from the
  // wedge index — Σ_e |N_e| neighbor entries at 8 bytes each, the
  // adjacency a memo can hold — not from ProjectedGraph::MemoryBytes(),
  // so a change of projection layout cannot move the workload they gate.
  uint64_t adjacency_bytes = 0;
  for (const uint32_t degree : ComputeProjectedDegrees(graph).degree) {
    adjacency_bytes += kNeighborEntryBytes * degree;
  }

  // Memory scenario: the same MoCHy-A+ workload through the engine's lazy
  // projection policy, budgeted to 1/3 of the adjacency. The engine is
  // built once (cold memo); repeats measure the steady state, so hit rate
  // and wall time reflect a warm, budget-resident memo. Estimates must
  // match the materialized kernel bit-for-bit.
  {
    report.mem_materialized_bytes = projection.MemoryBytes();
    EngineOptions lazy_options;
    lazy_options.algorithm = Algorithm::kLinkSample;
    lazy_options.projection = ProjectionPolicy::kLazy;
    lazy_options.num_samples = aplus.num_samples;
    lazy_options.num_threads = config.threads;
    lazy_options.seed = 1;  // = MochyAPlusOptions default the kernels used
    lazy_options.memory_budget =
        std::max<uint64_t>(1, adjacency_bytes / kLazyBudgetDivisor);
    report.mem_budget_bytes = lazy_options.memory_budget;
    const MotifEngine engine =
        MotifEngine::Create(graph, lazy_options).value();
    MotifCounts lazy_counts;
    EngineStats lazy_stats;
    KernelRow lazy_row;
    lazy_row.kernel = "mochy-a+/lazy";
    lazy_row.threads = config.threads;
    lazy_row.samples = aplus.num_samples;
    lazy_row.wall_s = MinWall(config.repeat, &lazy_counts, [&] {
      EngineResult counted = engine.Count(lazy_options).value();
      lazy_stats = counted.stats;
      return counted.counts;
    });
    lazy_row.samples_per_s =
        lazy_row.wall_s > 0.0
            ? static_cast<double>(aplus.num_samples) / lazy_row.wall_s
            : 0.0;
    report.kernels.push_back(lazy_row);
    if (!BitIdentical(lazy_counts, aplus_stamped)) {
      std::fprintf(stderr, "FATAL: %s: lazy-projection MoCHy-A+ diverges "
                           "from the materialized kernel\n",
                   name.c_str());
      std::exit(1);
    }
    if (lazy_stats.projection_peak_bytes >= report.mem_materialized_bytes) {
      std::fprintf(stderr, "FATAL: %s: lazy peak projection bytes (%llu) "
                           "not below the materialized footprint (%llu)\n",
                   name.c_str(),
                   static_cast<unsigned long long>(
                       lazy_stats.projection_peak_bytes),
                   static_cast<unsigned long long>(
                       report.mem_materialized_bytes));
      std::exit(1);
    }
    report.mem_lazy_peak_bytes = lazy_stats.projection_peak_bytes;
    report.mem_lazy_resident_bytes = lazy_stats.projection_bytes;
    report.mem_lazy_hit_rate = lazy_stats.lazy_hit_rate;
    report.mem_lazy_recomputes = lazy_stats.lazy_recomputes;
    if (aplus_wall > 0.0) {
      report.mem_lazy_wall_ratio = lazy_row.wall_s / aplus_wall;
    }
  }

  // Out-of-core scenario: the graph saved as an .mhg container, loaded
  // back through the binary reader, and counted at a budget of 1/4 of the
  // adjacency with the spill tier attached — the full
  // storage stack (format round trip + disk-backed memo) priced in one
  // row. Estimates must match the materialized kernel bit-for-bit.
  {
    const std::string stem = "mochy_bench_ooc_" + std::to_string(::getpid());
    const std::string mhg_path =
        (std::filesystem::temp_directory_path() / (stem + ".mhg")).string();
    const std::string spill_dir =
        (std::filesystem::temp_directory_path() / (stem + "_spill")).string();
    if (Status s = SaveHypergraphBinary(graph, mhg_path); !s.ok()) {
      std::fprintf(stderr, "FATAL: %s: binary save failed: %s\n",
                   name.c_str(), s.ToString().c_str());
      std::exit(1);
    }
    std::error_code ec;
    report.ooc_file_bytes = std::filesystem::file_size(mhg_path, ec);
    auto from_disk = LoadHypergraphBinary(mhg_path);
    if (!from_disk.ok()) {
      std::fprintf(stderr, "FATAL: %s: binary load failed: %s\n",
                   name.c_str(), from_disk.status().ToString().c_str());
      std::exit(1);
    }
    EngineOptions spill_options;
    spill_options.algorithm = Algorithm::kLinkSample;
    spill_options.projection = ProjectionPolicy::kLazy;
    spill_options.num_samples = aplus.num_samples;
    spill_options.num_threads = config.threads;
    spill_options.seed = 1;  // = MochyAPlusOptions default the kernels used
    spill_options.memory_budget =
        std::max<uint64_t>(1, adjacency_bytes / kSpillBudgetDivisor);
    spill_options.spill_dir = spill_dir;
    report.ooc_budget_bytes = spill_options.memory_budget;
    {
      const MotifEngine engine =
          MotifEngine::Create(from_disk.value(), spill_options).value();
      MotifCounts spill_counts;
      EngineStats spill_stats;
      KernelRow spill_row;
      spill_row.kernel = "mochy-a+/spill";
      spill_row.threads = config.threads;
      spill_row.samples = aplus.num_samples;
      spill_row.wall_s = MinWall(config.repeat, &spill_counts, [&] {
        EngineResult counted = engine.Count(spill_options).value();
        spill_stats = counted.stats;
        return counted.counts;
      });
      spill_row.samples_per_s =
          spill_row.wall_s > 0.0
              ? static_cast<double>(aplus.num_samples) / spill_row.wall_s
              : 0.0;
      report.kernels.push_back(spill_row);
      if (!BitIdentical(spill_counts, aplus_stamped)) {
        std::fprintf(stderr, "FATAL: %s: out-of-core MoCHy-A+ (mmap load + "
                             "spill tier) diverges from the materialized "
                             "kernel\n",
                     name.c_str());
        std::exit(1);
      }
      report.ooc_spills = spill_stats.lazy_spills;
      report.ooc_readmits = spill_stats.lazy_spill_readmits;
      report.ooc_fallbacks = spill_stats.lazy_spill_fallbacks;
      const double disk_touches =
          static_cast<double>(spill_stats.lazy_spill_readmits) +
          static_cast<double>(spill_stats.lazy_recomputes);
      report.ooc_hit_rate =
          disk_touches > 0.0
              ? static_cast<double>(spill_stats.lazy_spill_readmits) /
                    disk_touches
              : 0.0;
      if (aplus_wall > 0.0) {
        report.ooc_wall_ratio = spill_row.wall_s / aplus_wall;
      }
    }  // engine destroyed: its spill logs unlink themselves
    struct rusage usage {};
    if (::getrusage(RUSAGE_SELF, &usage) == 0) {
      report.ooc_peak_rss_kb = static_cast<uint64_t>(usage.ru_maxrss);
    }
    std::filesystem::remove(mhg_path, ec);
    std::filesystem::remove_all(spill_dir, ec);
  }

  // Serving scenario: the graph loaded into a MotifServer, then a mixed
  // workload of distinct count/profile queries replayed for several
  // rounds — round 0 is all cache misses, later rounds all hits, so the
  // workload exercises both sides of the result cache. Every count
  // response (cold and cached) is decoded and compared bit-for-bit
  // against the direct kernel runs above. Each of `repeat` passes loads a
  // fresh server, so round 0 stays cold; the row is the fastest pass.
  {
    const std::string threads = std::to_string(config.threads);
    const std::vector<std::pair<std::string, const MotifCounts*>> queries = {
        {"count " + name + " algorithm=exact threads=" + threads,
         &exact_stamped},
        {"count " + name + " algorithm=edge-sample samples=" +
             std::to_string(a.num_samples) + " seed=1 threads=" + threads,
         &a_stamped},
        {"count " + name + " algorithm=link-sample samples=" +
             std::to_string(aplus.num_samples) + " seed=1 threads=" + threads,
         &aplus_stamped},
        {"count " + name + " algorithm=link-sample samples=" +
             std::to_string(aplus.num_samples) + " seed=7 threads=" + threads,
         nullptr},
        {"profile " + name + " random=2 seed=1 ratio=0.1 threads=" + threads,
         nullptr},
    };
    constexpr int kRounds = 4;
    double serve_wall = 0.0;
    std::vector<double> latencies;
    ServerStats stats;
    for (int rep = 0; rep < std::max(config.repeat, 1); ++rep) {
      MotifServer server{ServeOptions{}};
      if (Status s = server.LoadGraph(name, graph); !s.ok()) {
        std::fprintf(stderr, "FATAL: %s: serve load failed: %s\n",
                     name.c_str(), s.ToString().c_str());
        std::exit(1);
      }
      std::vector<double> pass_latencies;
      pass_latencies.reserve(queries.size() * kRounds);
      Timer serve_timer;
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& [request, expected] : queries) {
          Timer query_timer;
          const std::string response = server.HandleRequest(request);
          pass_latencies.push_back(query_timer.Seconds());
          if (response.rfind("ok ", 0) != 0) {
            std::fprintf(stderr, "FATAL: %s: serve query failed: %s\n",
                         name.c_str(), response.c_str());
            std::exit(1);
          }
          if (expected == nullptr) continue;
          MotifCounts served;
          bool decoded = false;
          for (const std::string_view line : SplitLines(response)) {
            if (line.rfind("counts ", 0) == 0) {
              auto counts = DecodeCounts(line.substr(7));
              if (counts.ok()) {
                served = counts.value();
                decoded = true;
              }
            }
          }
          if (!decoded || !BitIdentical(served, *expected)) {
            std::fprintf(stderr, "FATAL: %s: served counts diverge from the "
                                 "direct kernel run (%s round %d)\n",
                         name.c_str(), round == 0 ? "cold" : "cached", round);
            std::exit(1);
          }
        }
      }
      const double pass_wall = serve_timer.Seconds();
      if (rep == 0 || pass_wall < serve_wall) {
        serve_wall = pass_wall;
        latencies = std::move(pass_latencies);
        stats = server.stats();
      }
    }
    report.serve_queries = latencies.size();
    report.serve_wall_s = serve_wall;
    report.serve_queries_per_s =
        serve_wall > 0.0 ? static_cast<double>(latencies.size()) / serve_wall
                         : 0.0;
    report.serve_hit_rate = stats.cache.HitRate();
    std::sort(latencies.begin(), latencies.end());
    report.serve_p50_us = latencies[latencies.size() / 2] * 1e6;
    report.serve_p99_us =
        latencies[std::min(latencies.size() - 1, latencies.size() * 99 / 100)] *
        1e6;

    KernelRow serve_row;
    serve_row.kernel = "serve/mixed";
    serve_row.threads = config.threads;
    serve_row.samples = latencies.size();
    serve_row.wall_s = serve_wall;
    serve_row.samples_per_s = report.serve_queries_per_s;
    report.kernels.push_back(serve_row);
  }

  // Fault-resilience scenario: the mixed workload again, but over a real
  // unix socket (frames, deadlines, reconnects — the transport the
  // in-process scenario skips), measured clean and then under a seeded
  // 1% fault schedule on every frame-I/O point. The retrying client must
  // land a bit-identical answer either way; the faulty row prices what
  // the retries cost.
  {
    ServeOptions serve_options;
    serve_options.socket_path =
        "/tmp/mochy_bench_serve_" + std::to_string(::getpid()) + ".sock";
    MotifServer server(serve_options);
    if (Status s = server.LoadGraph(name, graph); !s.ok()) {
      std::fprintf(stderr, "FATAL: %s: serve/faults load failed: %s\n",
                   name.c_str(), s.ToString().c_str());
      std::exit(1);
    }
    std::thread serving([&server] { (void)server.Serve(); });
    const std::string threads = std::to_string(config.threads);
    const std::vector<std::pair<std::string, const MotifCounts*>> queries = {
        {"count " + name + " algorithm=exact threads=" + threads,
         &exact_stamped},
        {"count " + name + " algorithm=edge-sample samples=" +
             std::to_string(a.num_samples) + " seed=1 threads=" + threads,
         &a_stamped},
        {"count " + name + " algorithm=link-sample samples=" +
             std::to_string(aplus.num_samples) + " seed=1 threads=" + threads,
         &aplus_stamped},
    };
    ClientOptions client_options;
    client_options.backoff.max_attempts = 12;
    client_options.backoff.initial_delay_ms = 1.0;
    client_options.backoff.max_delay_ms = 20.0;
    MotifClient client(serve_options.socket_path, 0, client_options);
    for (int attempt = 0; attempt < 250 && !client.Connect().ok(); ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    constexpr int kFaultRounds = 6;
    auto run_phase = [&](const char* phase, double* wall_out,
                         double* p99_out) {
      std::vector<double> latencies;
      latencies.reserve(queries.size() * kFaultRounds);
      Timer phase_timer;
      for (int round = 0; round < kFaultRounds; ++round) {
        for (const auto& [request, expected] : queries) {
          Timer query_timer;
          auto response = client.RequestWithRetry(request);
          latencies.push_back(query_timer.Seconds());
          if (!response.ok() || response.value().rfind("ok ", 0) != 0) {
            std::fprintf(stderr, "FATAL: %s: serve/faults %s query failed: %s\n",
                         name.c_str(), phase,
                         response.ok() ? response.value().c_str()
                                       : response.status().ToString().c_str());
            std::exit(1);
          }
          MotifCounts served;
          bool decoded = false;
          for (const std::string_view line : SplitLines(response.value())) {
            if (line.rfind("counts ", 0) == 0) {
              auto counts = DecodeCounts(line.substr(7));
              if (counts.ok()) {
                served = counts.value();
                decoded = true;
              }
            }
          }
          if (!decoded || !BitIdentical(served, *expected)) {
            std::fprintf(stderr, "FATAL: %s: serve/faults %s response diverges "
                                 "from the direct kernel run\n",
                         name.c_str(), phase);
            std::exit(1);
          }
        }
      }
      *wall_out = phase_timer.Seconds();
      std::sort(latencies.begin(), latencies.end());
      *p99_out = latencies[std::min(latencies.size() - 1,
                                    latencies.size() * 99 / 100)] * 1e6;
      return latencies.size();
    };

    // Warm the server's result cache first so both phases price the
    // transport + retries, not a one-time cold kernel run.
    for (const auto& [request, expected] : queries) {
      (void)expected;
      (void)client.RequestWithRetry(request);
    }

    report.faults_queries =
        run_phase("clean", &report.faults_clean_wall_s,
                  &report.faults_clean_p99_us);
    report.faults_clean_qps =
        report.faults_clean_wall_s > 0.0
            ? static_cast<double>(report.faults_queries) /
                  report.faults_clean_wall_s
            : 0.0;

    // One faulty phase is a few milliseconds, so it is timed like every
    // other row: the minimum over `repeat` phases, each under the same
    // plan re-armed (Arm restarts its per-point hit ordinals).
    FaultPlan plan;
    plan.seed = 1234;
    plan.rate = 0.01;  // 1% of frame reads/writes fail with EIO
    for (int rep = 0; rep < std::max(config.repeat, 1); ++rep) {
      const uint64_t dropped_before = server.stats().dropped_connections;
      double wall_s = 0.0;
      double p99_us = 0.0;
      FaultInjector::Global().Arm(plan);
      run_phase("faulty", &wall_s, &p99_us);
      FaultInjector::Global().Disarm();
      if (rep == 0 || wall_s < report.faults_wall_s) {
        report.faults_wall_s = wall_s;
        report.faults_p99_us = p99_us;
        report.faults_fired = FaultInjector::Global().total_fired();
        report.faults_dropped =
            server.stats().dropped_connections - dropped_before;
      }
    }
    report.faults_qps =
        report.faults_wall_s > 0.0
            ? static_cast<double>(report.faults_queries) /
                  report.faults_wall_s
            : 0.0;

    client.Close();
    server.RequestStop();
    serving.join();

    KernelRow faults_row;
    faults_row.kernel = "serve/faults";
    faults_row.threads = config.threads;
    faults_row.samples = report.faults_queries;
    faults_row.wall_s = report.faults_wall_s;
    faults_row.samples_per_s = report.faults_qps;
    report.kernels.push_back(faults_row);
  }
  return report;
}

void WriteJson(const Config& config, const std::vector<GraphReport>& graphs) {
  FILE* out = std::fopen(config.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open %s for writing\n",
                 config.out.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"mochy-bench-v1\",\n");
  std::fprintf(out, "  \"tag\": \"%s\",\n", config.tag.c_str());
  std::fprintf(out,
               "  \"config\": {\"scale\": %g, \"threads\": %zu, "
               "\"repeat\": %d, \"smoke\": %s, \"sample_ratio\": %g, "
               "\"max_samples\": %llu},\n",
               config.scale, config.threads, config.repeat,
               config.smoke ? "true" : "false", config.sample_ratio,
               static_cast<unsigned long long>(config.max_samples));
  std::fprintf(out, "  \"host\": {\"hardware_threads\": %zu, \"ndebug\": %s},\n",
               DefaultThreadCount(),
#ifdef NDEBUG
               "true"
#else
               "false"
#endif
  );
  std::fprintf(out, "  \"graphs\": [\n");
  for (size_t g = 0; g < graphs.size(); ++g) {
    const GraphReport& report = graphs[g];
    std::fprintf(out, "    {\n");
    std::fprintf(out, "      \"name\": \"%s\",\n", report.name.c_str());
    std::fprintf(out,
                 "      \"nodes\": %zu, \"edges\": %zu, \"pins\": %llu, "
                 "\"wedges\": %llu,\n",
                 report.nodes, report.edges,
                 static_cast<unsigned long long>(report.pins),
                 static_cast<unsigned long long>(report.wedges));
    std::fprintf(out, "      \"timers\": {\"projection_s\": %.6f},\n",
                 report.projection_s);
    std::fprintf(out, "      \"exact_speedup_vs_reference\": %.3f,\n",
                 report.exact_speedup);
    std::fprintf(out,
                 "      \"streaming\": {\"arrivals\": %llu, \"wall_s\": %.6f, "
                 "\"arrivals_per_s\": %.1f, \"mean_arrival_us\": %.3f, "
                 "\"per_arrival_speedup_vs_recount\": %.1f, "
                 "\"removals\": %llu, \"remove_wall_s\": %.6f, "
                 "\"removals_per_s\": %.1f, \"mean_removal_us\": %.3f},\n",
                 static_cast<unsigned long long>(report.stream_arrivals),
                 report.stream_wall_s, report.stream_arrivals_per_s,
                 report.stream_mean_arrival_us,
                 report.stream_speedup_vs_recount,
                 static_cast<unsigned long long>(report.stream_removals),
                 report.stream_remove_wall_s, report.stream_removals_per_s,
                 report.stream_mean_removal_us);
    std::fprintf(out,
                 "      \"windowed\": {\"windows\": %llu, "
                 "\"evictions\": %llu, \"wall_s\": %.6f, "
                 "\"windows_per_s\": %.1f},\n",
                 static_cast<unsigned long long>(report.stream_windows),
                 static_cast<unsigned long long>(report.stream_evictions),
                 report.stream_sliding_wall_s, report.stream_windows_per_s);
    std::fprintf(out,
                 "      \"ingest\": {\"producers\": %llu, \"wall_s\": %.6f, "
                 "\"edges_per_s\": %.1f},\n",
                 static_cast<unsigned long long>(report.ingest_producers),
                 report.ingest_wall_s, report.ingest_edges_per_s);
    std::fprintf(out,
                 "      \"memory\": {\"materialized_bytes\": %llu, "
                 "\"budget_bytes\": %llu, \"lazy_peak_bytes\": %llu, "
                 "\"lazy_resident_bytes\": %llu, \"lazy_hit_rate\": %.4f, "
                 "\"lazy_recomputes\": %llu, "
                 "\"lazy_vs_materialized_wall\": %.3f},\n",
                 static_cast<unsigned long long>(
                     report.mem_materialized_bytes),
                 static_cast<unsigned long long>(report.mem_budget_bytes),
                 static_cast<unsigned long long>(report.mem_lazy_peak_bytes),
                 static_cast<unsigned long long>(
                     report.mem_lazy_resident_bytes),
                 report.mem_lazy_hit_rate,
                 static_cast<unsigned long long>(report.mem_lazy_recomputes),
                 report.mem_lazy_wall_ratio);
    std::fprintf(out,
                 "      \"out_of_core\": {\"file_bytes\": %llu, "
                 "\"budget_bytes\": %llu, \"spills\": %llu, "
                 "\"readmits\": %llu, \"fallbacks\": %llu, "
                 "\"disk_hit_rate\": %.4f, "
                 "\"spill_vs_materialized_wall\": %.3f, "
                 "\"peak_rss_kb\": %llu},\n",
                 static_cast<unsigned long long>(report.ooc_file_bytes),
                 static_cast<unsigned long long>(report.ooc_budget_bytes),
                 static_cast<unsigned long long>(report.ooc_spills),
                 static_cast<unsigned long long>(report.ooc_readmits),
                 static_cast<unsigned long long>(report.ooc_fallbacks),
                 report.ooc_hit_rate, report.ooc_wall_ratio,
                 static_cast<unsigned long long>(report.ooc_peak_rss_kb));
    std::fprintf(out,
                 "      \"serving\": {\"queries\": %llu, \"wall_s\": %.6f, "
                 "\"queries_per_s\": %.1f, \"hit_rate\": %.4f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f},\n",
                 static_cast<unsigned long long>(report.serve_queries),
                 report.serve_wall_s, report.serve_queries_per_s,
                 report.serve_hit_rate, report.serve_p50_us,
                 report.serve_p99_us);
    std::fprintf(out,
                 "      \"serving_faults\": {\"queries\": %llu, "
                 "\"fault_rate\": 0.01, "
                 "\"clean_wall_s\": %.6f, \"clean_qps\": %.1f, "
                 "\"clean_p99_us\": %.1f, "
                 "\"faulty_wall_s\": %.6f, \"faulty_qps\": %.1f, "
                 "\"faulty_p99_us\": %.1f, "
                 "\"faults_fired\": %llu, \"connections_dropped\": %llu},\n",
                 static_cast<unsigned long long>(report.faults_queries),
                 report.faults_clean_wall_s, report.faults_clean_qps,
                 report.faults_clean_p99_us, report.faults_wall_s,
                 report.faults_qps, report.faults_p99_us,
                 static_cast<unsigned long long>(report.faults_fired),
                 static_cast<unsigned long long>(report.faults_dropped));
    std::fprintf(out, "      \"kernels\": [\n");
    for (size_t k = 0; k < report.kernels.size(); ++k) {
      const KernelRow& row = report.kernels[k];
      std::fprintf(out,
                   "        {\"kernel\": \"%s\", \"threads\": %zu, "
                   "\"wall_s\": %.6f, \"samples\": %llu, "
                   "\"hubs_per_s\": %.1f, \"samples_per_s\": %.1f}%s\n",
                   row.kernel.c_str(), row.threads, row.wall_s,
                   static_cast<unsigned long long>(row.samples),
                   row.hubs_per_s, row.samples_per_s,
                   k + 1 < report.kernels.size() ? "," : "");
    }
    std::fprintf(out, "      ]\n");
    std::fprintf(out, "    }%s\n", g + 1 < graphs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "FATAL: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      config.out = next("--out");
    } else if (arg == "--tag") {
      config.tag = next("--tag");
      // The tag is emitted into JSON unescaped; keep it trivially safe.
      for (const char c : config.tag) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
            c != '_' && c != '.') {
          std::fprintf(stderr,
                       "FATAL: --tag must match [A-Za-z0-9._-]+, got '%s'\n",
                       config.tag.c_str());
          return 2;
        }
      }
    } else if (arg == "--scale") {
      config.scale = std::atof(next("--scale"));
    } else if (arg == "--threads") {
      config.threads = static_cast<size_t>(std::atoi(next("--threads")));
    } else if (arg == "--repeat") {
      config.repeat = std::max(1, std::atoi(next("--repeat")));
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_report [--out FILE] [--tag NAME] "
                   "[--scale S] [--threads N] [--repeat R] [--smoke]\n");
      return 2;
    }
  }
  if (config.smoke) {
    // One small graph: the CI perf-smoke payload. Defaults (explicit
    // --scale/--repeat flags win) are sized so every measured kernel
    // takes multiple milliseconds — large enough that the >25%
    // regression gate measures the kernel, not timer jitter; the sample
    // floor pulls the (otherwise sub-ms) sampler kernels up too.
    if (config.scale <= 0.0) config.scale = 0.2;
    if (config.repeat <= 0) config.repeat = 5;
    config.min_samples = 5000;
    if (config.tag == "report") config.tag = "smoke";
  } else {
    if (config.scale <= 0.0) config.scale = 1.0;
    if (config.repeat <= 0) config.repeat = 3;
  }

  std::vector<GraphReport> reports;
  if (config.smoke) {
    GeneratorConfig gen = DefaultConfig(Domain::kCoauthorship, config.scale);
    gen.seed = 3;
    reports.push_back(MeasureGraph(
        "coauth-smoke", GenerateDomainHypergraph(gen).value(), config));
  } else {
    for (const Domain domain :
         {Domain::kCoauthorship, Domain::kContact, Domain::kEmail,
          Domain::kTags, Domain::kThreads}) {
      GeneratorConfig gen = DefaultConfig(domain, config.scale);
      gen.seed = 3;
      reports.push_back(MeasureGraph(
          DomainName(domain), GenerateDomainHypergraph(gen).value(), config));
    }
  }

  WriteJson(config, reports);
  for (const GraphReport& report : reports) {
    std::printf("%-10s |E|=%-6zu wedges=%-8llu exact speedup %.2fx | "
                "stream %.0f arrivals/s, %.0f removals/s, "
                "per-arrival speedup %.0fx | "
                "sliding %.0f windows/s (%llu evictions) | "
                "ingest x%llu %.0f edges/s | "
                "lazy a+ peak %.2f/%.2fMB, hit %.0f%%, wall %.2fx | "
                "ooc %llu spills, disk hit %.0f%%, wall %.2fx | "
                "serve %.0f q/s, hit %.0f%%, p99 %.0fus | "
                "faults(1%%) %.0f->%.0f q/s, p99 %.0f->%.0fus, "
                "%llu fired\n",
                report.name.c_str(), report.edges,
                static_cast<unsigned long long>(report.wedges),
                report.exact_speedup, report.stream_arrivals_per_s,
                report.stream_removals_per_s,
                report.stream_speedup_vs_recount,
                report.stream_windows_per_s,
                static_cast<unsigned long long>(report.stream_evictions),
                static_cast<unsigned long long>(report.ingest_producers),
                report.ingest_edges_per_s,
                report.mem_lazy_peak_bytes / 1048576.0,
                report.mem_materialized_bytes / 1048576.0,
                report.mem_lazy_hit_rate * 100.0,
                report.mem_lazy_wall_ratio,
                static_cast<unsigned long long>(report.ooc_spills),
                report.ooc_hit_rate * 100.0, report.ooc_wall_ratio,
                report.serve_queries_per_s, report.serve_hit_rate * 100.0,
                report.serve_p99_us, report.faults_clean_qps,
                report.faults_qps, report.faults_clean_p99_us,
                report.faults_p99_us,
                static_cast<unsigned long long>(report.faults_fired));
  }
  std::printf("wrote %s\n", config.out.c_str());
  return 0;
}

}  // namespace
}  // namespace mochy::bench

int main(int argc, char** argv) { return mochy::bench::Main(argc, argv); }
