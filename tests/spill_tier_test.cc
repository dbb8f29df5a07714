// Spill tier of the out-of-core stack (hypergraph/spill_log.h + the
// disk-tier hooks in hypergraph/lazy_projection.h): the property under
// test is the recovery/fallback contract — at ANY memory budget, thread
// count, and fault schedule, counts through the spill tier are
// bit-identical to a materialized run; a lost, torn, or corrupt spill
// record may only cost a recompute (counted in the fallback stats),
// never correctness. Fault points "spill.append" / "spill.read" drive
// the torn/corrupt cases deterministically.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fault.h"
#include "gtest/gtest.h"
#include "hypergraph/io.h"
#include "hypergraph/lazy_projection.h"
#include "hypergraph/projection.h"
#include "hypergraph/spill_log.h"
#include "motif/counts.h"
#include "motif/engine.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

using testing::FlipFileByte;
using testing::RandomHypergraph;
using testing::ScopedTempDir;

class SpillTierTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

Hypergraph TestGraph() { return RandomHypergraph(60, 150, 2, 6, 77); }

EngineOptions SamplerOptions(Algorithm algorithm, size_t threads) {
  EngineOptions options;
  options.algorithm = algorithm;
  options.num_threads = threads;
  options.num_samples = 3000;
  options.seed = 7;
  return options;
}

MotifCounts MaterializedCounts(const Hypergraph& graph,
                               const EngineOptions& options) {
  EngineOptions materialized = options;
  materialized.projection = ProjectionPolicy::kMaterialized;
  return MotifEngine::Create(graph, materialized)
      .value()
      .Count(materialized)
      .value()
      .counts;
}

EngineResult SpillRun(const Hypergraph& graph, const EngineOptions& base,
                      uint64_t budget, const std::string& spill_dir) {
  EngineOptions lazy = base;
  lazy.projection = ProjectionPolicy::kLazy;
  lazy.memory_budget = budget;
  lazy.spill_dir = spill_dir;
  auto engine = MotifEngine::Create(graph, lazy);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto result = engine.value().Count(lazy);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

void ExpectBitIdentical(const MotifCounts& got, const MotifCounts& want,
                        const std::string& context) {
  for (int t = 1; t <= kNumHMotifs; ++t) {
    ASSERT_EQ(got[t], want[t]) << context << ": motif " << t;
  }
}

// The tentpole property: budgets {footprint, /4, /10, 1-byte} ×
// {MoCHy-A, MoCHy-A+} × thread counts, all bit-identical to
// materialized. The 1-byte budget is the fully non-resident extreme —
// every neighborhood is served from disk or recomputed.
TEST_F(SpillTierTest, CountsBitIdenticalToMaterializedAcrossBudgetSweep) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  EngineOptions probe = SamplerOptions(Algorithm::kLinkSample, 1);
  probe.projection = ProjectionPolicy::kMaterialized;
  const uint64_t footprint = MotifEngine::Create(graph, probe)
                                 .value()
                                 .Count(probe)
                                 .value()
                                 .stats.projection_bytes;
  ASSERT_GT(footprint, 0u);

  for (const Algorithm algorithm :
       {Algorithm::kEdgeSample, Algorithm::kLinkSample}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      const EngineOptions options = SamplerOptions(algorithm, threads);
      const MotifCounts want = MaterializedCounts(graph, options);
      for (const uint64_t budget :
           {footprint, footprint / 4, footprint / 10, uint64_t{1}}) {
        const EngineResult got = SpillRun(graph, options, budget, tmp.dir());
        ExpectBitIdentical(got.counts, want,
                           std::string(AlgorithmName(algorithm)) +
                               " threads=" + std::to_string(threads) +
                               " budget=" + std::to_string(budget));
      }
    }
  }
}

TEST_F(SpillTierTest, SpillAndReadmitStatsPlumbThroughEngineStats) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  const EngineOptions options = SamplerOptions(Algorithm::kLinkSample, 2);
  const EngineResult result = SpillRun(graph, options, 1, tmp.dir());
  // At a 1-byte budget nothing is resident: every first touch spills,
  // every repeat touch re-admits from disk.
  EXPECT_GT(result.stats.lazy_spills, 0u);
  EXPECT_GT(result.stats.lazy_spill_readmits, 0u);
  EXPECT_EQ(result.stats.lazy_spill_fallbacks, 0u);
  EXPECT_EQ(result.stats.lazy_memo_hits, 0u);
  // The ToString rendering carries the new counters.
  EXPECT_NE(result.stats.ToString().find("spills="), std::string::npos);
  EXPECT_NE(result.stats.ToString().find("readmits="), std::string::npos);
}

TEST_F(SpillTierTest, ReadmittedNeighborhoodsAreExact) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  const ProjectedDegrees degrees = ComputeProjectedDegrees(graph, 1);
  LazyProjectionOptions options;
  options.memory_budget_bytes = 1;  // nothing resident: disk tier only
  options.spill_dir = tmp.dir();
  auto lazy = ConcurrentLazyProjection::Create(graph, degrees, options);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();

  NeighborhoodBuilder builder(graph.num_edges());
  LazyProjection::Stats stats;
  std::vector<Neighbor> got, want;
  // First pass spills every neighborhood; second pass must re-admit
  // byte-exact copies.
  for (int pass = 0; pass < 2; ++pass) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      lazy.value()->Neighborhood(e, builder, &got, &stats);
      builder.Compute(graph, e, &want);
      ASSERT_EQ(got.size(), want.size()) << "pass " << pass << " edge " << e;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].edge, want[i].edge);
        ASSERT_EQ(got[i].weight, want[i].weight);
      }
    }
  }
  EXPECT_EQ(stats.spill_readmits, graph.num_edges());
  EXPECT_EQ(stats.spill_fallbacks, 0u);
  const LazyProjection::Stats shared = lazy.value()->shared_stats();
  EXPECT_EQ(shared.spills, graph.num_edges());
}

TEST_F(SpillTierTest, DroppedAppendsFallBackToRecomputeWithoutDivergence) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  const EngineOptions options = SamplerOptions(Algorithm::kLinkSample, 2);
  const MotifCounts want = MaterializedCounts(graph, options);

  FaultPlan plan;
  plan.rules.push_back({"spill.append", 0, 1, FaultError()});  // every append
  FaultInjector::Global().Arm(plan);
  const EngineResult got = SpillRun(graph, options, 1, tmp.dir());
  FaultInjector::Global().Disarm();

  EXPECT_GT(FaultInjector::Global().fired("spill.append"), 0u);
  EXPECT_EQ(got.stats.lazy_spills, 0u);          // nothing landed on disk
  EXPECT_EQ(got.stats.lazy_spill_readmits, 0u);  // so nothing to re-admit
  ExpectBitIdentical(got.counts, want, "all appends dropped");
}

TEST_F(SpillTierTest, TornAppendsAreDetectedOnReadAndRecomputed) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  const EngineOptions options = SamplerOptions(Algorithm::kLinkSample, 1);
  const MotifCounts want = MaterializedCounts(graph, options);

  FaultPlan plan;
  // Tear every 3rd append mid-record: the index points at a full extent
  // whose tail never hit the disk — exactly a crash mid-append.
  plan.rules.push_back({"spill.append", 0, 3, FaultShortIo(6)});
  FaultInjector::Global().Arm(plan);
  const EngineResult got = SpillRun(graph, options, 1, tmp.dir());
  FaultInjector::Global().Disarm();

  EXPECT_GT(got.stats.lazy_spill_fallbacks, 0u);
  ExpectBitIdentical(got.counts, want, "torn appends");
}

TEST_F(SpillTierTest, FailedReadsFallBackToRecomputeWithoutDivergence) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  const EngineOptions options = SamplerOptions(Algorithm::kLinkSample, 2);
  const MotifCounts want = MaterializedCounts(graph, options);

  FaultPlan plan;
  plan.rules.push_back({"spill.read", 0, 1, FaultError()});  // every read
  FaultInjector::Global().Arm(plan);
  const EngineResult got = SpillRun(graph, options, 1, tmp.dir());
  FaultInjector::Global().Disarm();

  EXPECT_GT(got.stats.lazy_spill_fallbacks, 0u);
  EXPECT_EQ(got.stats.lazy_spill_readmits, 0u);
  ExpectBitIdentical(got.counts, want, "all reads failing");
}

TEST_F(SpillTierTest, ShortReadsFallBackToRecomputeWithoutDivergence) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  const EngineOptions options = SamplerOptions(Algorithm::kLinkSample, 2);
  const MotifCounts want = MaterializedCounts(graph, options);

  FaultPlan plan;
  plan.rules.push_back({"spill.read", 0, 2, FaultShortIo(4)});  // every 2nd
  FaultInjector::Global().Arm(plan);
  const EngineResult got = SpillRun(graph, options, 1, tmp.dir());
  FaultInjector::Global().Disarm();

  EXPECT_GT(got.stats.lazy_spill_fallbacks, 0u);
  EXPECT_GT(got.stats.lazy_spill_readmits, 0u);  // the other half still serves
  ExpectBitIdentical(got.counts, want, "short reads");
}

TEST_F(SpillTierTest, OnDiskCorruptionIsDetectedAndRecomputed) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  const ProjectedDegrees degrees = ComputeProjectedDegrees(graph, 1);
  LazyProjectionOptions options;
  options.memory_budget_bytes = 1;
  options.spill_dir = tmp.dir();
  auto lazy = ConcurrentLazyProjection::Create(graph, degrees, options);
  ASSERT_TRUE(lazy.ok());

  NeighborhoodBuilder builder(graph.num_edges());
  LazyProjection::Stats stats;
  std::vector<Neighbor> out;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    lazy.value()->Neighborhood(e, builder, &out, &stats);  // spill everything
  }
  // Bit-rot the live spill logs: flip a byte every 32 bytes.
  size_t corrupted_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(tmp.dir())) {
    const std::string path = entry.path().string();
    const auto size = std::filesystem::file_size(entry.path());
    for (uint64_t offset = 9; offset < size; offset += 32) {
      ASSERT_TRUE(FlipFileByte(path, offset));
    }
    ++corrupted_files;
  }
  ASSERT_GT(corrupted_files, 0u);

  // Every touch must still produce the exact neighborhood; corrupt
  // records surface only as fallbacks.
  std::vector<Neighbor> want;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    lazy.value()->Neighborhood(e, builder, &out, &stats);
    builder.Compute(graph, e, &want);
    ASSERT_EQ(out.size(), want.size()) << "edge " << e;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(out[i].edge, want[i].edge);
      ASSERT_EQ(out[i].weight, want[i].weight);
    }
  }
  EXPECT_GT(stats.spill_fallbacks, 0u);
}

// The record checksum hashes 8 payload bytes per step: a flip anywhere in
// a record — header, key, neighbor words or the tail bytes past the last
// full word — must still be rejected, and so must a record read as the
// wrong edge or from a truncated extent.
TEST_F(SpillTierTest, EveryByteFlipOfARecordIsRejected) {
  ScopedTempDir tmp;
  const std::string path = tmp.dir() + "/shard.spill";
  auto log = SpillLog::Create(path);
  ASSERT_TRUE(log.ok());
  SpillLog& spill = *log.value();
  const std::vector<Neighbor> first = {{1, 2}, {9, 1}, {40, 3}};
  const std::vector<Neighbor> second = {{0, 1}, {3, 7}};
  ASSERT_TRUE(spill.Append(5, first));
  ASSERT_TRUE(spill.Append(77, second));

  for (const auto& [edge, want] :
       {std::pair{EdgeId{5}, first}, std::pair{EdgeId{77}, second}}) {
    SpillLog::RecordRef ref;
    ASSERT_TRUE(spill.Lookup(edge, &ref));
    const uint32_t payload_len = ref.length - 8;
    ASSERT_NE(payload_len % 8, 0u) << "the tail must be a partial word";
    std::vector<Neighbor> out;
    const auto expect_exact = [&](const std::string& context) {
      ASSERT_TRUE(spill.ReadRecord(ref, edge, &out)) << context;
      ASSERT_EQ(out.size(), want.size()) << context;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(out[i].edge, want[i].edge) << context;
        EXPECT_EQ(out[i].weight, want[i].weight) << context;
      }
    };
    expect_exact("clean edge " + std::to_string(edge));
    EXPECT_FALSE(spill.ReadRecord(ref, edge + 1, &out)) << "wrong edge";
    EXPECT_FALSE(spill.ReadRecord({ref.offset, ref.length - 1}, edge, &out))
        << "truncated extent";
    for (uint64_t at = ref.offset; at < ref.offset + ref.length; ++at) {
      for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
        const std::string context = "edge " + std::to_string(edge) +
                                    " byte " + std::to_string(at) +
                                    " mask " + std::to_string(mask);
        ASSERT_TRUE(FlipFileByte(path, at, mask));
        EXPECT_FALSE(spill.ReadRecord(ref, edge, &out)) << context;
        ASSERT_TRUE(FlipFileByte(path, at, mask));
        expect_exact(context + " restored");
      }
    }
  }
}

TEST_F(SpillTierTest, SpillDirIsCreatedOnDemand) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  const std::string nested = tmp.Path("nested/deeper/spill");
  ASSERT_FALSE(std::filesystem::exists(nested));
  const EngineOptions options = SamplerOptions(Algorithm::kLinkSample, 1);
  const EngineResult result = SpillRun(graph, options, 1, nested);
  EXPECT_TRUE(std::filesystem::exists(nested));
  EXPECT_GT(result.stats.lazy_spills, 0u);
}

TEST_F(SpillTierTest, SpillDirCollidingWithFileIsIOError) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  const std::string file_path = tmp.Path("not_a_directory");
  ASSERT_TRUE(WriteTextFile(file_path, "occupied").ok());
  const ProjectedDegrees degrees = ComputeProjectedDegrees(graph, 1);
  LazyProjectionOptions options;
  options.memory_budget_bytes = 1;
  options.spill_dir = file_path;
  const auto lazy = ConcurrentLazyProjection::Create(graph, degrees, options);
  ASSERT_FALSE(lazy.ok());
  EXPECT_EQ(lazy.status().code(), StatusCode::kIOError);
}

TEST_F(SpillTierTest, SpillLogsAreScratchRemovedWithTheEngine) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  {
    const EngineOptions options = SamplerOptions(Algorithm::kLinkSample, 1);
    const EngineResult result = SpillRun(graph, options, 1, tmp.dir());
    EXPECT_GT(result.stats.lazy_spills, 0u);
  }
  // SpillRun's engine died with scope: its logs must be gone.
  size_t remaining = 0;
  for (const auto& entry : std::filesystem::directory_iterator(tmp.dir())) {
    (void)entry;
    ++remaining;
  }
  EXPECT_EQ(remaining, 0u);
}

TEST_F(SpillTierTest, MaterializedEngineIgnoresSpillDir) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  EngineOptions options = SamplerOptions(Algorithm::kLinkSample, 1);
  options.projection = ProjectionPolicy::kMaterialized;
  options.spill_dir = tmp.Path("never_created");
  auto engine = MotifEngine::Create(graph, options);
  ASSERT_TRUE(engine.ok());
  const auto result = engine.value().Count(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.lazy_spills, 0u);
  EXPECT_FALSE(std::filesystem::exists(options.spill_dir));
}

TEST_F(SpillTierTest, CanonicalizeClearsSpillDir) {
  const Hypergraph graph = TestGraph();
  ScopedTempDir tmp;
  EngineOptions options = SamplerOptions(Algorithm::kLinkSample, 1);
  options.projection = ProjectionPolicy::kLazy;
  options.memory_budget = 1;
  options.spill_dir = tmp.dir();
  auto engine = MotifEngine::Create(graph, options);
  ASSERT_TRUE(engine.ok());
  const EngineOptions canonical = engine.value().Canonicalize(options);
  EXPECT_TRUE(canonical.spill_dir.empty());
  EXPECT_EQ(canonical.memory_budget, 0u);
}

}  // namespace
}  // namespace mochy
