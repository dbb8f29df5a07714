// count: every counting call on one email-domain graph loaded from .mhg.
//
// The email generator has heavy hub skew (a few senders touch most
// edges), which stresses the kernels' chunk balance. The projection, the
// six counting calls, the lazy memo and the spill tier do nearly all the
// work here; serve, batch and streaming stay idle. One pass (pass_s) is
// one call of each kind; the per-layer run reports each call's time.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "gen/generators.h"
#include "hypergraph/binary_format.h"
#include "motif/engine.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Input sizing. At these sizes each call takes 0.2-0.7 s on the 4-core
// dev host, so a 10 s run measures every call several times, and the
// per-edge and weighted calls stay well above timer jitter even after the
// 4-7x cuts the enumeration-core work predicts.
constexpr double kGraphScale = 0.55;
constexpr uint64_t kGraphSeed = 7;  // structure; the run seed relabels it
// Fixed, so every run seed samples the same edges and wedges: with a few
// hundred edge samples on a hub-skewed graph, which edges are drawn
// otherwise moves MoCHy-A's time by 20%.
constexpr uint64_t kSamplerSeed = 1;
constexpr uint64_t kLinkSamples = 40'000;
constexpr uint64_t kEdgeSamples = 300;
constexpr uint64_t kWeightedSamples = 8'000;
constexpr uint64_t kSpillBudgetDivisor = 10;
constexpr int kSetupRepeats = 21;
constexpr int kMinRounds = 3;

const char* const kGraphFile = "/email.mhg";

enum Op { kExact, kPerEdge, kLink, kEdge, kWeighted, kSpill, kNumOps };
constexpr std::array<const char*, kNumOps> kOpSpans = {
    "motif.exact", "motif.per_edge", "motif.link_sample",
    "motif.edge_sample", "motif.weighted", "motif.spill_sample"};
// Per-layer: each call's median time.
constexpr std::array<const char*, kNumOps> kOpMetrics = {
    "motif.exact_s", "motif.per_edge_s", "motif.link_sample_s",
    "motif.edge_sample_s", "motif.weighted_s", "motif.spill_sample_s"};

struct Setup {
  std::unique_ptr<mochy::Hypergraph> graph;
  std::unique_ptr<mochy::MotifEngine> engine;  // materialized
  std::unique_ptr<mochy::MotifEngine> lazy;    // lazy + spill tier
  double load_s = 0.0;
  double load_rss_mb = 0.0;  // resident-set growth across the load alone
  double projection_s = 0.0;
};

mochy::EngineOptions Options(mochy::Algorithm algorithm, uint64_t samples,
                             size_t threads) {
  mochy::EngineOptions options;
  options.algorithm = algorithm;
  options.num_samples = samples;
  options.seed = kSamplerSeed;
  options.num_threads = threads;
  return options;
}

Setup BuildSetup(const RunOptions& run, Report* report) {
  Setup setup;
  {
    ScopedSpan span("hypergraph.load_mhg");
    const double rss_before = CurrentRssMb();
    auto graph = mochy::LoadHypergraphAuto(run.dir + kGraphFile);
    CheckOk(graph.status(), "loading the .mhg graph");
    setup.graph = std::make_unique<mochy::Hypergraph>(std::move(graph).value());
    setup.load_s = span.End();
    setup.load_rss_mb = CurrentRssMb() - rss_before;
  }
  {
    ScopedSpan span("hypergraph.projection_build");
    mochy::EngineOptions options;
    options.projection = mochy::ProjectionPolicy::kMaterialized;
    options.num_threads = kThreads;
    auto engine = mochy::MotifEngine::Create(*setup.graph, options);
    report->Attempt(engine.status(), "materialized engine");
    CheckOk(engine.status(), "building the materialized engine");
    setup.engine =
        std::make_unique<mochy::MotifEngine>(std::move(engine).value());
    setup.projection_s = span.End();
  }
  {
    ScopedSpan span("hypergraph.lazy_build");
    mochy::EngineOptions options =
        Options(mochy::Algorithm::kLinkSample, kLinkSamples, kThreads);
    options.projection = mochy::ProjectionPolicy::kLazy;
    options.memory_budget = std::max<uint64_t>(
        1, setup.engine->projection().MemoryBytes() / kSpillBudgetDivisor);
    options.spill_dir = run.dir + "/spill";
    auto lazy = mochy::MotifEngine::Create(*setup.graph, options);
    report->Attempt(lazy.status(), "lazy engine");
    CheckOk(lazy.status(), "building the lazy engine");
    setup.lazy = std::make_unique<mochy::MotifEngine>(std::move(lazy).value());
  }
  return setup;
}

struct RoundResult {
  std::array<double, kNumOps> seconds{};
  mochy::EngineStats exact_stats;
  mochy::EngineStats spill_stats;
  mochy::EngineStats weighted_stats;
};

/// One call of each kind at `threads` workers; checks the outputs.
RoundResult Round(const Setup& setup, size_t threads, Report* report) {
  RoundResult out;
  mochy::MotifCounts exact, link;
  {
    ScopedSpan span(kOpSpans[kExact]);
    auto result = setup.engine->Count(
        Options(mochy::Algorithm::kExact, 0, threads));
    out.seconds[kExact] = span.End();
    report->Attempt(result.status(), "exact count");
    if (result.ok()) {
      exact = result.value().counts;
      out.exact_stats = result.value().stats;
    }
  }
  {
    ScopedSpan span(kOpSpans[kPerEdge]);
    auto result = setup.engine->CountPerEdge(
        Options(mochy::Algorithm::kExact, 0, threads));
    out.seconds[kPerEdge] = span.End();
    report->Attempt(result.status(), "per-edge count");
    if (result.ok()) {
      // Every instance credits its three member edges.
      mochy::MotifCounts sums;
      for (const auto& row : result.value().rows) {
        for (int t = 1; t <= mochy::kNumHMotifs; ++t) sums[t] += row[t - 1];
      }
      mochy::MotifCounts tripled = exact;
      tripled *= 3.0;
      report->Check(SameCounts(sums, tripled),
                    "per-edge column sums equal 3x the exact counts");
    }
  }
  const struct {
    Op op;
    mochy::Algorithm algorithm;
    uint64_t samples;
    const mochy::MotifEngine* engine;
  } samplers[] = {
      {kLink, mochy::Algorithm::kLinkSample, kLinkSamples, setup.engine.get()},
      {kEdge, mochy::Algorithm::kEdgeSample, kEdgeSamples, setup.engine.get()},
      {kWeighted, mochy::Algorithm::kWeighted, kWeightedSamples,
       setup.engine.get()},
      {kSpill, mochy::Algorithm::kLinkSample, kLinkSamples, setup.lazy.get()},
  };
  for (const auto& sampler : samplers) {
    ScopedSpan span(kOpSpans[sampler.op]);
    auto result = sampler.engine->Count(
        Options(sampler.algorithm, sampler.samples, threads));
    out.seconds[sampler.op] = span.End();
    report->Attempt(result.status(), kOpSpans[sampler.op]);
    if (!result.ok()) continue;
    if (sampler.op == kLink) link = result.value().counts;
    if (sampler.op == kWeighted) out.weighted_stats = result.value().stats;
    if (sampler.op == kSpill) {
      out.spill_stats = result.value().stats;
      report->Check(SameCounts(result.value().counts, link),
                    "spill-tier A+ is bit-identical to materialized A+");
    }
  }
  return out;
}

}  // namespace

mochy::Status GenerateCount(uint64_t seed, double /*seconds*/,
                            const std::string& dir) {
  mochy::GeneratorConfig config =
      mochy::DefaultConfig(mochy::Domain::kEmail, kGraphScale);
  config.seed = kGraphSeed;
  MOCHY_ASSIGN_OR_RETURN(mochy::Hypergraph base,
                         mochy::GenerateDomainHypergraph(config));
  MOCHY_ASSIGN_OR_RETURN(mochy::Hypergraph graph,
                         Relabel(base, DeriveSeed(seed, 1)));
  return mochy::SaveHypergraphBinary(graph, dir + kGraphFile);
}

void RunCount(const RunOptions& run, Report* report) {
  std::filesystem::create_directories(run.dir + "/spill");
  SetTracing(run.trace);

  double load_rss_mb = 0.0;
  std::vector<double> setup_s, load_s, projection_s;
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    // Release the previous repeat, engines before the graph they point
    // into, so each repeat pays the full load and build again.
    setup.lazy.reset();
    setup.engine.reset();
    setup.graph.reset();
    const Clock::time_point start = Clock::now();
    setup = BuildSetup(run, report);
    setup_s.push_back(SecondsSince(start));
    load_s.push_back(setup.load_s);
    projection_s.push_back(setup.projection_s);
    // The first load only: later ones reuse pages the allocator kept.
    if (i == 0) load_rss_mb = setup.load_rss_mb;
  }
  const mochy::Hypergraph& graph = *setup.graph;
  report->Info("edges", static_cast<double>(graph.num_edges()));
  report->Info("nodes", static_cast<double>(graph.num_nodes()));
  report->Info("wedges", static_cast<double>(setup.engine->num_wedges()));
  report->Info("samples", "link=" + std::to_string(kLinkSamples) +
                              " edge=" + std::to_string(kEdgeSamples) +
                              " weighted=" + std::to_string(kWeightedSamples));

  // Warm-up: first-touch page faults, thread-local scratch growth and the
  // lazy memo's first fill are paid here, not in the timed rounds.
  Round(setup, kThreads, report);

  std::array<std::vector<double>, kNumOps> seconds;
  std::vector<double> pass_s, traced_round_s, plain_round_s;
  RoundResult last;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < kMinRounds || SecondsSince(start) < run.seconds;
       ++round) {
    // A traced run alternates traced and untraced rounds, so the
    // tracing overhead is measured within the same process.
    const bool traced = run.trace && round % 2 == 1;
    SetTracing(traced);
    const Clock::time_point round_start = Clock::now();
    last = Round(setup, kThreads, report);
    (traced ? traced_round_s : plain_round_s).push_back(SecondsSince(round_start));
    double pass = 0.0;
    for (int op = 0; op < kNumOps; ++op) {
      seconds[op].push_back(last.seconds[op]);
      pass += last.seconds[op];
    }
    pass_s.push_back(pass);
  }
  SetTracing(run.trace);
  report->Info("rounds", static_cast<double>(seconds[0].size()));

  std::array<double, kNumOps> median{};
  for (int op = 0; op < kNumOps; ++op) median[op] = Median(seconds[op]);

  if (!run.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("pass_s", Median(pass_s), "s");
    return;
  }

  // Thread sweep: one more call of each parallel kernel at 1 and 2
  // workers; the 4-worker time is the rounds' median.
  const RoundResult one = Round(setup, 1, report);
  const RoundResult two = Round(setup, 2, report);
  auto efficiency = [&](Op op, const RoundResult& at, double workers) {
    return one.seconds[op] / (workers * at.seconds[op]);
  };
  RoundResult four;
  four.seconds = median;

  for (int op = 0; op < kNumOps; ++op) {
    report->Metric(kOpMetrics[op], median[op], "s");
  }
  report->Metric("hypergraph.load_s", Median(load_s), "s");
  report->Metric("hypergraph.load_rss_mb", load_rss_mb, "MB");
  report->Metric("hypergraph.projection_build_s", Median(projection_s), "s");
  report->Metric("hypergraph.projection_mb",
                 static_cast<double>(last.exact_stats.projection_bytes) / 1e6,
                 "MB");
  const mochy::EngineStats& spill = last.spill_stats;
  report->Metric("hypergraph.lazy.hit_rate", spill.lazy_hit_rate, "ratio");
  const double touched =
      static_cast<double>(spill.lazy_spill_readmits + spill.lazy_recomputes);
  report->Metric("hypergraph.spill.readmit_rate",
                 touched > 0 ? spill.lazy_spill_readmits / touched : 0.0,
                 "ratio");
  report->Metric("hypergraph.spill.spills",
                 static_cast<double>(spill.lazy_spills), "count");
  report->Metric("hypergraph.spill.fallbacks",
                 static_cast<double>(spill.lazy_spill_fallbacks), "count");
  report->Metric("motif.exact.hubs_per_s",
                 static_cast<double>(graph.num_edges()) / median[kExact],
                 "1/s");
  report->Metric("motif.exact.eff_2t", efficiency(kExact, two, 2), "ratio");
  report->Metric("motif.exact.eff_4t", efficiency(kExact, four, 4), "ratio");
  report->Metric("motif.per_edge.eff_4t", efficiency(kPerEdge, four, 4),
                 "ratio");
  report->Metric("motif.per_edge.vs_exact", median[kPerEdge] / median[kExact],
                 "ratio");
  report->Metric("motif.link_sample.samples_per_s",
                 static_cast<double>(kLinkSamples) / median[kLink], "1/s");
  report->Metric("motif.link_sample.eff_4t", efficiency(kLink, four, 4),
                 "ratio");
  report->Metric("motif.edge_sample.samples_per_s",
                 static_cast<double>(kEdgeSamples) / median[kEdge], "1/s");
  report->Metric("motif.edge_sample.eff_4t", efficiency(kEdge, four, 4),
                 "ratio");
  report->Metric("motif.weighted.samples_per_s",
                 static_cast<double>(kWeightedSamples) / median[kWeighted],
                 "1/s");
  report->Metric("motif.weighted.threads",
                 static_cast<double>(last.weighted_stats.num_threads), "count");
  report->Metric("trace.overhead_pct",
                 100.0 * (Median(traced_round_s) / Median(plain_round_s) - 1.0),
                 "%");
}

}  // namespace perfbench
