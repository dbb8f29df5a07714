// Prefix-equivalence and unit tests for the streaming counting subsystem
// (hypergraph/dynamic.h, hypergraph/temporal_trace.h, motif/streaming.h).
//
// The load-bearing property: after EVERY arrival *and removal* of a
// random interleaving, StreamingEngine's 26-motif count vector must be
// BIT-identical to recounting a frozen snapshot of the same edge
// multiset from scratch with the retained oracle kernel
// (reference::CountMotifsExact). Counts are integers, so the
// comparisons use EXPECT_EQ, not tolerances. Schedules cover skewed
// edge sizes, exact duplicate arrivals, removal-heavy churn, sliding
// windows and multiple engine thread counts.
//
// Seed reproduction: the randomized tests draw their schedules from
// testing::RandomDynamicSchedule / RandomTrace, which are pure
// functions of their arguments. A failure message names the op index
// and prefix; to reproduce, rerun the test (the seeds are compiled-in
// constants, so the same binary always replays the same schedule), or
// paste the generator call with the test's seed into a scratch test to
// shrink it. Nothing in the suite depends on time, thread timing or
// iteration order of unordered containers.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "gen/temporal.h"
#include "hypergraph/builder.h"
#include "hypergraph/dynamic.h"
#include "hypergraph/projection.h"
#include "hypergraph/temporal_trace.h"
#include "motif/reference.h"
#include "motif/streaming.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

void ExpectBitIdentical(const MotifCounts& got, const MotifCounts& want,
                        const std::string& label) {
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(got[t], want[t]) << label << ": motif " << t;
  }
}

MotifCounts OracleCounts(const Hypergraph& graph) {
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  return reference::CountMotifsExact(graph, projection, 1);
}

/// Random arrival trace with heavily skewed edge sizes and ~1 in 4
/// arrivals repeating an earlier edge verbatim (duplicates reach the
/// delta pass exactly as they reach the static kernels when null models
/// disable dedup). Timestamps advance by 0..2 per arrival so windows see
/// bursts and gaps.
TemporalTrace RandomTrace(size_t num_nodes, size_t num_arrivals,
                          size_t max_size, uint64_t seed) {
  Rng rng(seed);
  TemporalTrace trace;
  uint64_t time = 0;
  for (size_t i = 0; i < num_arrivals; ++i) {
    time += rng.UniformInt(3);
    TimedEdge arrival;
    arrival.time = time;
    if (!trace.empty() && rng.UniformInt(4) == 0) {
      arrival.nodes = trace.arrivals[rng.UniformInt(trace.size())].nodes;
    } else {
      // Zipf-skewed size in [1, max_size]: mostly small, occasional hubs.
      const size_t size = std::min<uint64_t>(rng.Zipf(max_size, 1.2) + 1,
                                             num_nodes);
      const auto ids = rng.SampleDistinct(num_nodes, size);
      arrival.nodes.assign(ids.begin(), ids.end());
    }
    trace.arrivals.push_back(std::move(arrival));
  }
  return trace;
}

// ---------------------------------------------------------------------
// DynamicHypergraph

TEST(DynamicHypergraphTest, MatchesStaticBuildAndProjection) {
  const TemporalTrace trace = RandomTrace(30, 80, 8, 17);
  DynamicHypergraph dynamic;
  HypergraphBuilder builder;
  for (const TimedEdge& arrival : trace.arrivals) {
    ASSERT_TRUE(dynamic
                    .AddEdge(std::span<const NodeId>(arrival.nodes.data(),
                                                     arrival.nodes.size()))
                    .ok());
    builder.AddEdge(std::span<const NodeId>(arrival.nodes.data(),
                                            arrival.nodes.size()));
  }
  BuildOptions options;
  options.dedup_edges = false;
  const Hypergraph want = std::move(builder).Build(options).value();

  ASSERT_EQ(dynamic.num_edges(), want.num_edges());
  EXPECT_EQ(dynamic.num_nodes(), want.num_nodes());
  EXPECT_EQ(dynamic.num_pins(), want.num_pins());
  for (EdgeId e = 0; e < want.num_edges(); ++e) {
    const auto got = dynamic.edge(e);
    const auto exp = want.edge(e);
    ASSERT_EQ(got.size(), exp.size()) << "edge " << e;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), exp.begin()))
        << "edge " << e;
  }
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    const auto got = dynamic.edges_of(v);
    const auto exp = want.edges_of(v);
    ASSERT_EQ(got.size(), exp.size()) << "node " << v;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), exp.begin()))
        << "node " << v;
  }

  // The incrementally maintained adjacency must equal a from-scratch
  // projection build: same neighbor sets, weights, order and totals.
  const auto projection = ProjectedGraph::Build(want, 1).value();
  EXPECT_EQ(dynamic.num_wedges(), projection.num_wedges());
  EXPECT_EQ(dynamic.total_weight(), projection.total_weight());
  for (EdgeId e = 0; e < want.num_edges(); ++e) {
    const auto got = dynamic.neighbors(e);
    const auto exp = projection.neighbors(e);
    ASSERT_EQ(got.size(), exp.size()) << "neighbors of " << e;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].edge, exp[i].edge) << "neighbor " << i << " of " << e;
      EXPECT_EQ(got[i].weight, exp[i].weight)
          << "weight of neighbor " << i << " of " << e;
    }
  }
}

TEST(DynamicHypergraphTest, SnapshotEqualsStaticBuild) {
  DynamicHypergraph dynamic;
  // Unsorted members with within-edge duplicates, plus one exact
  // duplicate edge: both normalizations must match the builder's.
  ASSERT_TRUE(dynamic.AddEdge({5, 1, 3, 1}).ok());
  ASSERT_TRUE(dynamic.AddEdge({2, 5}).ok());
  ASSERT_TRUE(dynamic.AddEdge({1, 3, 5}).ok());
  const Hypergraph snapshot = dynamic.Snapshot().value();
  EXPECT_EQ(snapshot.num_edges(), 3u);  // duplicates retained
  EXPECT_EQ(snapshot.num_nodes(), 6u);
  EXPECT_TRUE(snapshot.Validate().ok());
  const auto first = snapshot.edge(0);
  EXPECT_EQ(first.size(), 3u);  // {1, 3, 5}
  EXPECT_EQ(first[0], 1u);
  EXPECT_EQ(first[2], 5u);
}

TEST(DynamicHypergraphTest, RemoveEdgeReversesEveryStructure) {
  const TemporalTrace trace = RandomTrace(25, 60, 7, 19);
  DynamicHypergraph dynamic;
  std::vector<EdgeId> ids;
  for (const TimedEdge& arrival : trace.arrivals) {
    ids.push_back(dynamic
                      .AddEdge(std::span<const NodeId>(arrival.nodes.data(),
                                                       arrival.nodes.size()))
                      .value());
  }
  // Remove every third edge, oldest first.
  std::vector<bool> removed(ids.size(), false);
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(dynamic.RemoveEdge(ids[i]).ok());
    removed[i] = true;
  }
  EXPECT_EQ(dynamic.num_edges(), ids.size());  // id space keeps tombstones
  EXPECT_EQ(dynamic.num_live_edges(), ids.size() - (ids.size() + 2) / 3);

  // The survivor graph must equal a from-scratch build of the survivors:
  // same incidence, same projection (weights, order, totals).
  HypergraphBuilder builder;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!removed[i]) builder.AddEdge(dynamic.edge(ids[i]));
  }
  BuildOptions options;
  options.dedup_edges = false;
  options.num_nodes = dynamic.num_nodes();
  const Hypergraph want = std::move(builder).Build(options).value();
  const auto projection = ProjectedGraph::Build(want, 1).value();
  EXPECT_EQ(dynamic.num_wedges(), projection.num_wedges());
  EXPECT_EQ(dynamic.total_weight(), projection.total_weight());
  EXPECT_EQ(dynamic.num_pins(), want.num_pins());
  EdgeId compact = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (removed[i]) {
      EXPECT_FALSE(dynamic.is_live(ids[i]));
      EXPECT_EQ(dynamic.projected_degree(ids[i]), 0u);
      continue;
    }
    const auto got = dynamic.neighbors(ids[i]);
    const auto exp = projection.neighbors(compact);
    ASSERT_EQ(got.size(), exp.size()) << "neighbors of live edge " << i;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].weight, exp[k].weight)
          << "weight of neighbor " << k << " of live edge " << i;
    }
    ++compact;
  }

  // Snapshot contains exactly the survivors, in id order.
  const Hypergraph snapshot = dynamic.Snapshot().value();
  ASSERT_EQ(snapshot.num_edges(), want.num_edges());
  for (EdgeId e = 0; e < want.num_edges(); ++e) {
    const auto got = snapshot.edge(e);
    const auto exp = want.edge(e);
    ASSERT_EQ(got.size(), exp.size()) << "snapshot edge " << e;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), exp.begin()))
        << "snapshot edge " << e;
  }
}

TEST(DynamicHypergraphTest, RemoveEdgeRejectsBadIds) {
  DynamicHypergraph dynamic;
  EXPECT_FALSE(dynamic.RemoveEdge(0).ok());  // empty graph
  const EdgeId e = dynamic.AddEdge({0, 1, 2}).value();
  EXPECT_FALSE(dynamic.RemoveEdge(e + 1).ok());  // out of range
  ASSERT_TRUE(dynamic.RemoveEdge(e).ok());
  EXPECT_FALSE(dynamic.RemoveEdge(e).ok());  // already removed
  EXPECT_EQ(dynamic.num_live_edges(), 0u);
  EXPECT_EQ(dynamic.num_pins(), 0u);
  // Tombstoned ids are never reused: a later arrival gets a fresh id.
  EXPECT_EQ(dynamic.AddEdge({3, 4}).value(), e + 1);
}

TEST(DynamicHypergraphTest, RejectsEmptyEdgeAndGrowsNodes) {
  DynamicHypergraph dynamic;
  EXPECT_FALSE(dynamic.AddEdge(std::span<const NodeId>()).ok());
  EXPECT_EQ(dynamic.num_edges(), 0u);
  ASSERT_TRUE(dynamic.AddEdge({0, 1}).ok());
  EXPECT_EQ(dynamic.num_nodes(), 2u);
  ASSERT_TRUE(dynamic.AddEdge({100}).ok());
  EXPECT_EQ(dynamic.num_nodes(), 101u);  // ids below the max exist too
  EXPECT_EQ(dynamic.degree(50), 0u);
  dynamic.Clear();
  EXPECT_EQ(dynamic.num_edges(), 0u);
  EXPECT_EQ(dynamic.num_nodes(), 0u);
  EXPECT_EQ(dynamic.num_wedges(), 0u);
}

// ---------------------------------------------------------------------
// StreamingEngine: prefix equivalence

TEST(StreamingEngineTest, EveryPrefixMatchesOracleRecount) {
  // The acceptance property, on a duplicate-heavy skewed trace: exact
  // counts after every single arrival, against the frozen oracle.
  const TemporalTrace trace = RandomTrace(35, 110, 9, 29);
  StreamingEngine engine;
  for (size_t i = 0; i < trace.size(); ++i) {
    const auto& nodes = trace.arrivals[i].nodes;
    ASSERT_TRUE(
        engine.AddEdge(std::span<const NodeId>(nodes.data(), nodes.size()))
            .ok());
    const Hypergraph snapshot = engine.graph().Snapshot().value();
    ExpectBitIdentical(engine.counts(), OracleCounts(snapshot),
                       "prefix " + std::to_string(i + 1));
  }
  EXPECT_EQ(engine.stats().arrivals, trace.size());
  EXPECT_GT(engine.stats().new_instances, 0u);
}

TEST(StreamingEngineTest, PrefixCountsMatchBruteForce) {
  // Absolute correctness on a small trace, not just agreement with the
  // projected-graph kernels.
  const TemporalTrace trace = RandomTrace(18, 45, 6, 43);
  StreamingEngine engine;
  for (const TimedEdge& arrival : trace.arrivals) {
    ASSERT_TRUE(engine
                    .AddEdge(std::span<const NodeId>(arrival.nodes.data(),
                                                     arrival.nodes.size()))
                    .ok());
  }
  const Hypergraph snapshot = engine.graph().Snapshot().value();
  ExpectBitIdentical(engine.counts(), testing::BruteForceCounts(snapshot),
                     "brute-force");
}

TEST(StreamingEngineTest, BitIdenticalAtEveryThreadCount) {
  const TemporalTrace trace = RandomTrace(40, 150, 10, 53);
  MotifCounts want;
  bool first = true;
  for (const size_t threads : {size_t{1}, size_t{2}, DefaultThreadCount()}) {
    StreamingOptions options;
    options.num_threads = threads;
    options.parallel_work_threshold = 1;  // force fan-out on every arrival
    StreamingEngine engine(options);
    for (const TimedEdge& arrival : trace.arrivals) {
      ASSERT_TRUE(engine
                      .AddEdge(std::span<const NodeId>(arrival.nodes.data(),
                                                       arrival.nodes.size()))
                      .ok());
    }
    if (first) {
      want = engine.counts();
      first = false;
      const Hypergraph snapshot = engine.graph().Snapshot().value();
      ExpectBitIdentical(want, OracleCounts(snapshot), "threads=1 vs oracle");
    } else {
      ExpectBitIdentical(engine.counts(), want,
                         "threads=" + std::to_string(threads));
    }
  }
}

TEST(StreamingEngineTest, ZeroThreadsMeansDefaultThreadCount) {
  StreamingOptions options;
  options.num_threads = 0;
  StreamingEngine engine(options);
  EXPECT_EQ(engine.stats().num_threads, DefaultThreadCount());
  ASSERT_TRUE(engine.AddEdge({0, 1, 2}).ok());
  ASSERT_TRUE(engine.AddEdge({0, 3, 1}).ok());
  ASSERT_TRUE(engine.AddEdge({4, 5, 0}).ok());
  ASSERT_TRUE(engine.AddEdge({6, 7, 2}).ok());
  // Figure 2 golden vector: motifs 10, 21, 22 exactly once each.
  MotifCounts want;
  want[10] = 1.0;
  want[21] = 1.0;
  want[22] = 1.0;
  ExpectBitIdentical(engine.counts(), want, "figure-2 streamed");
}

TEST(StreamingEngineTest, DuplicateArrivalsCreateNoPhantomInstances) {
  StreamingEngine engine;
  ASSERT_TRUE(engine.AddEdge({0, 1, 2}).ok());
  ASSERT_TRUE(engine.AddEdge({0, 1, 2}).ok());  // exact duplicate
  ASSERT_TRUE(engine.AddEdge({0, 1, 2}).ok());  // and again
  EXPECT_EQ(engine.counts().Total(), 0.0);  // triples of duplicates: id 0
  ASSERT_TRUE(engine.AddEdge({2, 3}).ok());
  const Hypergraph snapshot = engine.graph().Snapshot().value();
  ExpectBitIdentical(engine.counts(), OracleCounts(snapshot), "duplicates");
}

// ---------------------------------------------------------------------
// StreamingEngine: decremental counting

TEST(StreamingEngineTest, RemoveEdgeMatchesOracleAfterEveryRemoval) {
  // Ingest a trace, then peel edges off in a scrambled order, checking
  // the counts against a fresh oracle recount after every removal, all
  // the way down to the empty graph (which must read exactly zero).
  const TemporalTrace trace = RandomTrace(28, 70, 8, 131);
  StreamingEngine engine;
  std::vector<EdgeId> ids;
  for (const TimedEdge& arrival : trace.arrivals) {
    ids.push_back(engine
                      .AddEdge(std::span<const NodeId>(arrival.nodes.data(),
                                                       arrival.nodes.size()))
                      .value());
  }
  Rng rng(131);
  rng.Shuffle(ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(engine.RemoveEdge(ids[i]).ok());
    const Hypergraph snapshot = engine.graph().Snapshot().value();
    ExpectBitIdentical(engine.counts(), OracleCounts(snapshot),
                       "after removal " + std::to_string(i + 1));
  }
  EXPECT_EQ(engine.graph().num_live_edges(), 0u);
  EXPECT_EQ(engine.counts().Total(), 0.0);
  EXPECT_EQ(engine.stats().removals, trace.size());
  EXPECT_EQ(engine.stats().new_instances, engine.stats().removed_instances);
}

TEST(StreamingEngineTest, RemoveEdgeRejectsBadIds) {
  StreamingEngine engine;
  EXPECT_FALSE(engine.RemoveEdge(0).ok());
  const EdgeId e = engine.AddEdge({0, 1, 2}).value();
  EXPECT_FALSE(engine.RemoveEdge(e + 5).ok());
  ASSERT_TRUE(engine.RemoveEdge(e).ok());
  EXPECT_FALSE(engine.RemoveEdge(e).ok());
  EXPECT_EQ(engine.stats().removals, 1u);
}

// The PR's acceptance property: a 1000-op random add/remove
// interleaving, counts bit-identical to the oracle after EVERY prefix,
// at thread counts 1, 2 and DefaultThreadCount(). The multi-threaded
// engines run in lockstep with the threads=1 engine and must agree
// bitwise after every op; the threads=1 engine is compared against the
// oracle recount, which transitively pins all three to it while paying
// the O(graph) recount once per prefix. Reproduce with seed 227 (see
// the file header for the workflow).
TEST(StreamingEngineTest, RandomInterleavingMatchesOracleAtEveryPrefix) {
  constexpr uint64_t kSeed = 227;
  const std::vector<testing::DynamicOp> schedule =
      testing::RandomDynamicSchedule(/*num_ops=*/1000, /*num_nodes=*/26,
                                     /*max_edge_size=*/7,
                                     /*remove_ratio=*/0.45,
                                     /*query_ratio=*/0.0, kSeed);

  StreamingOptions forced;
  forced.parallel_work_threshold = 1;  // fan out on every update
  std::vector<StreamingEngine> engines;
  engines.emplace_back(StreamingOptions{});  // threads = 1
  forced.num_threads = 2;
  engines.emplace_back(forced);
  forced.num_threads = DefaultThreadCount();
  engines.emplace_back(forced);

  std::vector<EdgeId> live;  // engine ids of live edges, insertion order
  for (size_t i = 0; i < schedule.size(); ++i) {
    const testing::DynamicOp& op = schedule[i];
    if (op.kind == testing::DynamicOp::Kind::kAdd) {
      EdgeId id = 0;
      for (size_t k = 0; k < engines.size(); ++k) {
        auto added = engines[k].AddEdge(
            std::span<const NodeId>(op.nodes.data(), op.nodes.size()));
        ASSERT_TRUE(added.ok()) << "op " << i << " engine " << k;
        // Ids are assigned by arrival order, so all engines agree.
        if (k == 0) id = added.value();
        ASSERT_EQ(added.value(), id) << "op " << i << " engine " << k;
      }
      live.push_back(id);
    } else if (op.kind == testing::DynamicOp::Kind::kRemove) {
      ASSERT_LT(op.remove_index, live.size()) << "op " << i;
      const EdgeId id = live[op.remove_index];
      live.erase(live.begin() + static_cast<ptrdiff_t>(op.remove_index));
      for (size_t k = 0; k < engines.size(); ++k) {
        ASSERT_TRUE(engines[k].RemoveEdge(id).ok())
            << "op " << i << " engine " << k;
      }
    }
    const Hypergraph snapshot = engines[0].graph().Snapshot().value();
    ASSERT_EQ(snapshot.num_edges(), live.size()) << "op " << i;
    ExpectBitIdentical(engines[0].counts(), OracleCounts(snapshot),
                       "prefix " + std::to_string(i + 1) + " (seed 227)");
    for (size_t k = 1; k < engines.size(); ++k) {
      ExpectBitIdentical(engines[k].counts(), engines[0].counts(),
                         "prefix " + std::to_string(i + 1) + " engine " +
                             std::to_string(k) + " (seed 227)");
    }
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }

  // Drain-down sweep: remove the remaining live edges one by one; the
  // reverse deltas must walk the counts exactly back to all-zero.
  while (!live.empty()) {
    const EdgeId id = live.back();
    live.pop_back();
    for (StreamingEngine& engine : engines) {
      ASSERT_TRUE(engine.RemoveEdge(id).ok());
    }
    ExpectBitIdentical(engines[1].counts(), engines[0].counts(), "drain");
    ExpectBitIdentical(engines[2].counts(), engines[0].counts(), "drain");
  }
  for (const StreamingEngine& engine : engines) {
    EXPECT_EQ(engine.counts().Total(), 0.0);
    EXPECT_EQ(engine.graph().num_live_edges(), 0u);
  }
}

TEST(StreamingEngineTest, InstanceStatsTrackCountsAfterEveryUpdate) {
  // The instance statistics are the census sums of the deltas, so the
  // instances added minus those removed is the live total after every
  // arrival and removal, inline or fanned out.
  const std::vector<testing::DynamicOp> schedule =
      testing::RandomDynamicSchedule(/*num_ops=*/400, /*num_nodes=*/20,
                                     /*max_edge_size=*/9,
                                     /*remove_ratio=*/0.4,
                                     /*query_ratio=*/0.0, /*seed=*/311);
  for (size_t threads : {1u, 4u}) {
    StreamingOptions options;
    options.num_threads = threads;
    options.parallel_work_threshold = 1;  // fan out on every update
    StreamingEngine engine(options);
    std::vector<EdgeId> live;  // engine ids of live edges, insertion order
    for (size_t i = 0; i < schedule.size(); ++i) {
      const testing::DynamicOp& op = schedule[i];
      if (op.kind == testing::DynamicOp::Kind::kAdd) {
        auto added = engine.AddEdge(
            std::span<const NodeId>(op.nodes.data(), op.nodes.size()));
        ASSERT_TRUE(added.ok()) << "op " << i;
        live.push_back(added.value());
      } else if (op.kind == testing::DynamicOp::Kind::kRemove) {
        ASSERT_LT(op.remove_index, live.size()) << "op " << i;
        ASSERT_TRUE(engine.RemoveEdge(live[op.remove_index]).ok())
            << "op " << i;
        live.erase(live.begin() + static_cast<ptrdiff_t>(op.remove_index));
      }
      const StreamingStats& stats = engine.stats();
      ASSERT_GE(stats.new_instances, stats.removed_instances) << "op " << i;
      ASSERT_EQ(static_cast<double>(stats.new_instances -
                                    stats.removed_instances),
                engine.counts().Total())
          << "op " << i << " threads=" << threads;
    }
    EXPECT_GT(engine.stats().removed_instances, 0u) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------
// ShardedStreamingEngine: multi-producer ingest

TEST(ShardedStreamingEngineTest, ConcurrentProducersMatchOracle) {
  // k producer threads blast disjoint slices of one trace into their
  // own shards while a drainer thread folds staged arrivals into the
  // engine mid-flight. After the final drain the counts must be
  // bit-identical to the oracle recount — the multiset of applied edges
  // is schedule-independent even though the interleaving is not.
  const TemporalTrace trace = RandomTrace(32, 120, 8, 167);
  constexpr size_t kProducers = 4;
  ShardedStreamingEngine sharded(kProducers);

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = p; i < trace.size(); i += kProducers) {
        const auto& nodes = trace.arrivals[i].nodes;
        ASSERT_TRUE(sharded
                        .Submit(p, std::span<const NodeId>(nodes.data(),
                                                           nodes.size()))
                        .ok());
      }
    });
  }
  std::thread drainer([&] {
    for (int round = 0; round < 8; ++round) sharded.Drain();
  });
  for (std::thread& t : producers) t.join();
  drainer.join();

  const Hypergraph snapshot = sharded.Snapshot().value();  // drains first
  EXPECT_EQ(snapshot.num_edges(), trace.size());
  ExpectBitIdentical(sharded.Counts(), OracleCounts(snapshot),
                     "sharded vs oracle");
  EXPECT_EQ(sharded.Stats().arrivals, trace.size());
  EXPECT_EQ(sharded.dropped_submissions(), 0u);

  // Per-shard delta vectors are mergeable: they sum bit-exactly to the
  // total, and every shard that applied an instance-creating arrival
  // contributed its own exact share.
  MotifCounts merged;
  for (size_t p = 0; p < kProducers; ++p) merged += sharded.ShardDelta(p);
  ExpectBitIdentical(merged, sharded.Counts(), "shard deltas sum");
}

TEST(ShardedStreamingEngineTest, RejectsBadShardAndDropsBadEdges) {
  ShardedStreamingEngine sharded(2);
  EXPECT_FALSE(sharded.Submit(2, {0, 1}).ok());  // shard out of range
  ASSERT_TRUE(sharded.Submit(0, {0, 1, 2}).ok());
  ASSERT_TRUE(sharded.Submit(1, std::span<const NodeId>()).ok());  // staged...
  EXPECT_EQ(sharded.Drain(), 1u);  // ...but dropped at the linearization point
  EXPECT_EQ(sharded.dropped_submissions(), 1u);
  EXPECT_EQ(sharded.Stats().arrivals, 1u);
  // Zero shards clamps to one staging slot instead of an unusable engine.
  ShardedStreamingEngine degenerate(0);
  EXPECT_EQ(degenerate.num_shards(), 1u);
  ASSERT_TRUE(degenerate.Submit(0, {3, 4}).ok());
  EXPECT_EQ(degenerate.Drain(), 1u);
}

// ---------------------------------------------------------------------
// ReplayTrace: windows

TEST(ReplayTraceTest, CumulativeWindowsMatchPrefixRecounts) {
  const TemporalTrace trace = RandomTrace(30, 90, 7, 61);
  ReplayOptions options;
  options.window_width = 3;
  const ReplayResult result = ReplayTrace(trace, options).value();
  ASSERT_FALSE(result.windows.empty());

  uint64_t replayed = 0;
  DynamicHypergraph prefix;
  for (const WindowResult& window : result.windows) {
    replayed += window.arrivals;
    // Rebuild the prefix the window claims to cover and recount.
    while (prefix.num_edges() < window.num_edges) {
      const auto& nodes = trace.arrivals[prefix.num_edges()].nodes;
      ASSERT_TRUE(
          prefix.AddEdge(std::span<const NodeId>(nodes.data(), nodes.size()))
              .ok());
    }
    EXPECT_EQ(window.num_edges, static_cast<size_t>(replayed));
    ExpectBitIdentical(
        window.counts, OracleCounts(prefix.Snapshot().value()),
        "window [" + std::to_string(window.start_time) + ", " +
            std::to_string(window.end_time) + ")");
  }
  EXPECT_EQ(replayed, trace.size());
  EXPECT_EQ(result.stats.arrivals, trace.size());
}

TEST(ReplayTraceTest, TumblingWindowsMatchPerWindowRecounts) {
  const TemporalTrace trace = RandomTrace(30, 90, 7, 71);
  ReplayOptions options;
  options.window_width = 4;
  options.mode = WindowMode::kTumbling;
  const ReplayResult result = ReplayTrace(trace, options).value();
  ASSERT_FALSE(result.windows.empty());

  size_t index = 0;
  for (const WindowResult& window : result.windows) {
    DynamicHypergraph just_window;
    for (uint64_t k = 0; k < window.arrivals; ++k, ++index) {
      const auto& nodes = trace.arrivals[index].nodes;
      ASSERT_TRUE(just_window
                      .AddEdge(std::span<const NodeId>(nodes.data(),
                                                       nodes.size()))
                      .ok());
    }
    EXPECT_EQ(window.num_edges, just_window.num_edges());
    ExpectBitIdentical(
        window.counts, OracleCounts(just_window.Snapshot().value()),
        "tumbling window [" + std::to_string(window.start_time) + ", " +
            std::to_string(window.end_time) + ")");
  }
  EXPECT_EQ(index, trace.size());
}

TEST(ReplayTraceTest, SkipsEmptyWindowsAndValidates) {
  TemporalTrace trace;
  trace.arrivals.push_back(TimedEdge{3, {0, 1}});
  trace.arrivals.push_back(TimedEdge{1000000007, {1, 2}});  // sparse stamps
  ReplayOptions options;
  options.window_width = 2;
  const ReplayResult result = ReplayTrace(trace, options).value();
  // Gap windows are skipped — replay cost stays bounded by the arrival
  // count — and boundaries stay on the grid anchored at the first time.
  ASSERT_EQ(result.windows.size(), 2u);
  EXPECT_EQ(result.windows[0].start_time, 3u);
  EXPECT_EQ(result.windows[0].end_time, 5u);
  EXPECT_EQ(result.windows[0].num_edges, 1u);
  EXPECT_EQ(result.windows[1].start_time, 1000000007u);
  EXPECT_EQ(result.windows[1].arrivals, 1u);
  EXPECT_EQ(result.windows[1].num_edges, 2u);
  EXPECT_EQ((result.windows[1].start_time - 3) % 2, 0u);  // on the grid

  options.window_width = 0;
  EXPECT_FALSE(ReplayTrace(trace, options).ok());

  TemporalTrace decreasing;
  decreasing.arrivals.push_back(TimedEdge{5, {0, 1}});
  decreasing.arrivals.push_back(TimedEdge{3, {1, 2}});
  options.window_width = 1;
  EXPECT_FALSE(ReplayTrace(decreasing, options).ok());

  EXPECT_TRUE(ReplayTrace(TemporalTrace{}, options).value().windows.empty());
}

TEST(ReplayTraceTest, SlidingWithDefaultHorizonMatchesTumbling) {
  // horizon == window_width makes the sliding live set exactly the
  // closing window's own arrivals, so the emitted series must be
  // bit-identical to a tumbling replay of the same trace — but computed
  // by eviction instead of rebuild.
  const TemporalTrace trace = RandomTrace(30, 90, 7, 191);
  ReplayOptions options;
  options.window_width = 4;
  options.mode = WindowMode::kTumbling;
  const ReplayResult tumbling = ReplayTrace(trace, options).value();
  options.mode = WindowMode::kSliding;  // horizon = 0 -> window_width
  const ReplayResult sliding = ReplayTrace(trace, options).value();

  ASSERT_EQ(sliding.windows.size(), tumbling.windows.size());
  uint64_t evictions = 0;
  for (size_t i = 0; i < sliding.windows.size(); ++i) {
    EXPECT_EQ(sliding.windows[i].start_time, tumbling.windows[i].start_time);
    EXPECT_EQ(sliding.windows[i].arrivals, tumbling.windows[i].arrivals);
    EXPECT_EQ(sliding.windows[i].num_edges, tumbling.windows[i].num_edges);
    ExpectBitIdentical(sliding.windows[i].counts, tumbling.windows[i].counts,
                       "sliding vs tumbling window " + std::to_string(i));
    evictions += sliding.windows[i].evictions;
  }
  // Everything not in the last window was evicted along the way.
  EXPECT_EQ(evictions + sliding.windows.back().num_edges, trace.size());
  EXPECT_EQ(sliding.stats.removals, evictions);
}

TEST(ReplayTraceTest, SlidingHorizonMatchesTrailingRecount) {
  // Overlapping windows (horizon = 2 widths): at every close T the live
  // graph must be exactly the arrivals with time in [T - horizon, T),
  // and the counts the oracle recount of that trailing slice.
  const TemporalTrace trace = RandomTrace(28, 80, 7, 199);
  ReplayOptions options;
  options.window_width = 3;
  options.horizon = 6;
  options.mode = WindowMode::kSliding;
  const ReplayResult result = ReplayTrace(trace, options).value();
  ASSERT_FALSE(result.windows.empty());

  for (const WindowResult& window : result.windows) {
    const uint64_t cutoff =
        window.end_time >= options.horizon ? window.end_time - options.horizon
                                           : 0;
    DynamicHypergraph trailing;
    for (const TimedEdge& arrival : trace.arrivals) {
      if (arrival.time >= window.end_time) break;
      if (arrival.time < cutoff) continue;
      ASSERT_TRUE(trailing
                      .AddEdge(std::span<const NodeId>(arrival.nodes.data(),
                                                       arrival.nodes.size()))
                      .ok());
    }
    EXPECT_EQ(window.num_edges, trailing.num_live_edges());
    ExpectBitIdentical(
        window.counts, OracleCounts(trailing.Snapshot().value()),
        "trailing window [" + std::to_string(window.start_time) + ", " +
            std::to_string(window.end_time) + ")");
  }
}

TEST(ReplayTraceTest, SlidingRejectsHorizonBelowWidth) {
  TemporalTrace trace;
  trace.arrivals.push_back(TimedEdge{0, {0, 1}});
  ReplayOptions options;
  options.mode = WindowMode::kSliding;
  options.window_width = 5;
  options.horizon = 4;  // arrivals would expire before their window closed
  EXPECT_FALSE(ReplayTrace(trace, options).ok());
  options.horizon = 5;
  EXPECT_TRUE(ReplayTrace(trace, options).ok());
  // Non-sliding modes ignore the horizon instead of rejecting it.
  options.mode = WindowMode::kCumulative;
  options.horizon = 1;
  EXPECT_TRUE(ReplayTrace(trace, options).ok());
}

// ---------------------------------------------------------------------
// Trace I/O and the temporal generator's two views

TEST(TemporalTraceTest, TextRoundTrip) {
  const TemporalTrace trace = RandomTrace(20, 25, 5, 83);
  const std::string text = FormatTemporalTrace(trace);
  const TemporalTrace parsed = ParseTemporalTrace(text).value();
  ASSERT_EQ(parsed.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed.arrivals[i].time, trace.arrivals[i].time);
    EXPECT_EQ(parsed.arrivals[i].nodes, trace.arrivals[i].nodes);
  }

  const std::string path =
      (std::filesystem::temp_directory_path() / "mochy_trace_test.txt")
          .string();
  ASSERT_TRUE(SaveTemporalTrace(trace, path).ok());
  const TemporalTrace loaded = LoadTemporalTrace(path).value();
  EXPECT_EQ(loaded.size(), trace.size());
  std::remove(path.c_str());

  EXPECT_TRUE(ParseTemporalTrace("# comment only\n").value().empty());
  EXPECT_FALSE(ParseTemporalTrace("5\n").ok());        // timestamp, no nodes
  EXPECT_FALSE(ParseTemporalTrace("5 1 x\n").ok());    // non-numeric
  EXPECT_FALSE(ParseTemporalTrace("5 1\n3 2\n").ok());  // decreasing time
  // 2^64 must be rejected, not silently wrapped to time 0.
  EXPECT_FALSE(ParseTemporalTrace("18446744073709551616 1 2\n").ok());
  EXPECT_FALSE(ParseTemporalTrace("5 4294967295\n").ok());  // id = kInvalidNode
}

TEST(TemporalTraceTest, GeneratedTraceMatchesSnapshots) {
  // The two views of the generator must describe the same process: the
  // trace grouped by year and deduplicated is exactly the per-year
  // snapshot sequence.
  TemporalConfig config;
  config.num_years = 5;
  config.num_nodes = 120;
  config.edges_first_year = 30;
  config.edges_last_year = 80;
  config.seed = 7;
  const TemporalTrace trace = GenerateTemporalTrace(config).value();
  ASSERT_TRUE(trace.Validate().ok());
  EXPECT_EQ(trace.arrivals.front().time, 0u);
  EXPECT_EQ(trace.arrivals.back().time, config.num_years - 1);

  const auto years = GenerateTemporalCoauthorship(config).value();
  ASSERT_EQ(years.size(), config.num_years);
  size_t index = 0;
  for (size_t year = 0; year < config.num_years; ++year) {
    std::set<std::vector<NodeId>> from_trace;
    while (index < trace.size() && trace.arrivals[index].time == year) {
      std::vector<NodeId> nodes = trace.arrivals[index].nodes;
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      from_trace.insert(std::move(nodes));
      ++index;
    }
    EXPECT_EQ(from_trace.size(), years[year].num_edges()) << "year " << year;
    for (EdgeId e = 0; e < years[year].num_edges(); ++e) {
      const auto span = years[year].edge(e);
      EXPECT_TRUE(
          from_trace.count(std::vector<NodeId>(span.begin(), span.end())))
          << "year " << year << " edge " << e;
    }
  }
  EXPECT_EQ(index, trace.size());
}

TEST(TemporalTraceTest, GeneratedTraceReplaysAgainstOracle) {
  // End-to-end: gen/temporal trace -> cumulative yearly replay -> oracle
  // recount at every window boundary.
  TemporalConfig config;
  config.num_years = 4;
  config.num_nodes = 100;
  config.edges_first_year = 25;
  config.edges_last_year = 60;
  config.seed = 11;
  const TemporalTrace trace = GenerateTemporalTrace(config).value();
  ReplayOptions options;
  options.window_width = 1;
  const ReplayResult result = ReplayTrace(trace, options).value();
  ASSERT_EQ(result.windows.size(), config.num_years);

  DynamicHypergraph prefix;
  size_t index = 0;
  for (const WindowResult& window : result.windows) {
    for (uint64_t k = 0; k < window.arrivals; ++k, ++index) {
      const auto& nodes = trace.arrivals[index].nodes;
      ASSERT_TRUE(
          prefix.AddEdge(std::span<const NodeId>(nodes.data(), nodes.size()))
              .ok());
    }
    ExpectBitIdentical(window.counts,
                       OracleCounts(prefix.Snapshot().value()),
                       "year " + std::to_string(window.start_time));
  }
}

}  // namespace
}  // namespace mochy
