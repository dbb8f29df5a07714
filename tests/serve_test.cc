// Tests for the serving layer: cache-key canonicalization (the
// correctness heart of the result cache — options that cannot change
// counts must share an entry, options that can must not), the
// byte-budgeted LRU itself, protocol framing/encoding round-trips, the
// request dispatcher (cold vs cached responses bit-identical to direct
// engine runs), and a full socket round-trip against a live server.
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/lru_cache.h"
#include "gtest/gtest.h"
#include "hypergraph/fingerprint.h"
#include "motif/engine.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/query.h"
#include "serve/render.h"
#include "serve/server.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

Hypergraph TestGraph(uint64_t seed = 17) {
  return testing::RandomHypergraph(30, 60, 1, 5, seed);
}

// ---------------------------------------------------------------- keys --

/// The cache key of a count query with `options` on `engine`'s graph.
std::string CountKey(const MotifEngine& engine, const EngineOptions& options) {
  Query query(*FindQuerySpec("count"));
  query.engine = options;
  const QueryOperand operand{&engine.graph(), &engine, 0};
  return QueryCacheKey(*query.spec, query, &operand);
}

TEST(CacheKeyTest, SchedulingKnobsCanonicalizeAway) {
  const Hypergraph g = TestGraph();
  const MotifEngine engine = MotifEngine::Create(g).value();

  EngineOptions defaults;  // exact, default threads, auto projection
  EngineOptions tuned;
  tuned.num_threads = 2;  // explicit thread count
  tuned.projection = ProjectionPolicy::kLazy;
  tuned.memory_budget = ParseMemoryBudget("1M").value();
  EXPECT_EQ(CountKey(engine, defaults), CountKey(engine, tuned));

  // Memory-budget suffix variants parse to the same bytes and (either
  // way) cannot affect counts, so they land on the same entry.
  EngineOptions suffixed = tuned;
  suffixed.memory_budget = ParseMemoryBudget("1048576").value();
  EXPECT_EQ(ParseMemoryBudget("1M").value(),
            ParseMemoryBudget("1048576").value());
  EXPECT_EQ(CountKey(engine, tuned), CountKey(engine, suffixed));
}

TEST(CacheKeyTest, ExactIgnoresSamplingFields) {
  const Hypergraph g = TestGraph();
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions a;  // exact by default
  a.seed = 1;
  EngineOptions b;
  b.seed = 99;  // seed cannot affect an exact count
  b.num_samples = 1234;
  b.sampling_ratio = 0.5;
  EXPECT_EQ(CountKey(engine, a), CountKey(engine, b));
}

TEST(CacheKeyTest, SamplerSeedAndAlgorithmMatter) {
  const Hypergraph g = TestGraph();
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions base;
  base.algorithm = Algorithm::kLinkSample;
  base.num_samples = 500;
  base.seed = 1;

  EngineOptions other_seed = base;
  other_seed.seed = 2;
  EXPECT_NE(CountKey(engine, base), CountKey(engine, other_seed));

  EngineOptions other_algorithm = base;
  other_algorithm.algorithm = Algorithm::kEdgeSample;
  EXPECT_NE(CountKey(engine, base), CountKey(engine, other_algorithm));

  EngineOptions other_samples = base;
  other_samples.num_samples = 501;
  EXPECT_NE(CountKey(engine, base), CountKey(engine, other_samples));
}

TEST(CacheKeyTest, DerivedAndExplicitSampleCountsUnify) {
  const Hypergraph g = TestGraph();
  const MotifEngine engine = MotifEngine::Create(g).value();
  // kAuto resolves to a concrete algorithm and ratio-derived samples
  // resolve to a concrete count, so "the same run spelled differently"
  // shares an entry.
  EngineOptions by_ratio;
  by_ratio.algorithm = Algorithm::kLinkSample;
  by_ratio.sampling_ratio = 0.1;
  by_ratio.seed = 3;
  const EngineOptions canonical = engine.Canonicalize(by_ratio);
  ASSERT_GT(canonical.num_samples, 0u);

  EngineOptions by_count;
  by_count.algorithm = Algorithm::kLinkSample;
  by_count.num_samples = canonical.num_samples;
  by_count.seed = 3;
  EXPECT_EQ(CountKey(engine, by_ratio), CountKey(engine, by_count));
}

// -------------------------------------------------------------- LRU --

TEST(BudgetedLruCacheTest, HitsMissesAndRecency) {
  BudgetedLruCache cache(1024);
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Put("a", "1"));
  EXPECT_EQ(cache.Get("a").value(), "1");
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes,
            1 + 1 + BudgetedLruCache::kEntryOverheadBytes);
}

TEST(BudgetedLruCacheTest, EvictsLeastRecentlyUsed) {
  // Budget fits exactly two single-byte entries.
  const uint64_t entry = 1 + 1 + BudgetedLruCache::kEntryOverheadBytes;
  BudgetedLruCache cache(2 * entry);
  EXPECT_TRUE(cache.Put("a", "1"));
  EXPECT_TRUE(cache.Put("b", "2"));
  EXPECT_TRUE(cache.Get("a").has_value());  // refresh a: b becomes LRU
  EXPECT_TRUE(cache.Put("c", "3"));         // evicts b
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(BudgetedLruCacheTest, RejectsOversizedEntries) {
  BudgetedLruCache cache(128);
  EXPECT_TRUE(cache.Put("small", "x"));
  // An entry bigger than the whole budget must not flush the cache.
  EXPECT_FALSE(cache.Put("big", std::string(1024, 'y')));
  EXPECT_TRUE(cache.Get("small").has_value());
  EXPECT_EQ(cache.stats().admission_rejects, 1u);
  // Zero budget disables caching entirely.
  BudgetedLruCache disabled(0);
  EXPECT_FALSE(disabled.Put("k", "v"));
  EXPECT_FALSE(disabled.Get("k").has_value());
}

TEST(BudgetedLruCacheTest, PutReplacesExistingKey) {
  BudgetedLruCache cache(1024);
  EXPECT_TRUE(cache.Put("k", "old"));
  EXPECT_TRUE(cache.Put("k", "new"));
  EXPECT_EQ(cache.Get("k").value(), "new");
  EXPECT_EQ(cache.stats().entries, 1u);
}

// -------------------------------------------------------- protocol --

TEST(ProtocolTest, FramesRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(WriteFrame(fds[0], "hello frames").ok());
  ASSERT_TRUE(WriteFrame(fds[0], "").ok());  // empty payload is legal
  auto first = ReadFrame(fds[1]);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().eof);
  EXPECT_EQ(first.value().payload, "hello frames");
  auto second = ReadFrame(fds[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().payload, "");
  // Clean close at a frame boundary reads as eof, not an error.
  ::close(fds[0]);
  auto third = ReadFrame(fds[1]);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.value().eof);
  ::close(fds[1]);
}

TEST(ProtocolTest, OversizedPayloadIsRejectedBeforeWriting) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string huge(kMaxFrameBytes + 1, 'x');
  EXPECT_EQ(WriteFrame(fds[0], huge).code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolTest, DoublesRoundTripExactly) {
  for (const double value : {0.0, 1.0, -1.0, 0.1, 1e-300, 12345.6789,
                             2621.000000000001}) {
    EXPECT_EQ(DecodeDouble(EncodeDouble(value)).value(), value);
  }
  MotifCounts counts;
  for (int t = 1; t <= kNumHMotifs; ++t) counts[t] = t * 0.1 + 1e9;
  const auto decoded = DecodeCounts(EncodeCounts(counts));
  ASSERT_TRUE(decoded.ok());
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(decoded.value()[t], counts[t]);
  }
  EXPECT_FALSE(DecodeCounts("0x1p+0 0x1p+0").ok());  // wrong arity
}

// ----------------------------------------------------- fingerprint --

TEST(FingerprintTest, IdentifiesContentNotIdentity) {
  const Hypergraph a = TestGraph(17);
  const Hypergraph b = TestGraph(17);
  const Hypergraph c = TestGraph(18);
  EXPECT_EQ(GraphFingerprint(a), GraphFingerprint(b));
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(c));
}

// -------------------------------------------------------- dispatch --

TEST(MotifServerTest, ColdAndCachedCountsAreBitIdentical) {
  const Hypergraph g = TestGraph();
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("g", g).ok());

  const std::string request = "count g algorithm=link-sample samples=400 seed=5";
  const std::string cold = server.HandleRequest(request);
  const std::string warm = server.HandleRequest(request);
  ASSERT_EQ(cold.rfind("ok kind=count", 0), 0u) << cold;
  EXPECT_NE(cold.find("cached=0"), std::string::npos);
  EXPECT_NE(warm.find("cached=1"), std::string::npos);
  // Identical payloads apart from the cached flag in the header line.
  EXPECT_EQ(cold.substr(cold.find('\n')), warm.substr(warm.find('\n')));

  // The served counts decode to exactly what a direct engine run yields.
  EngineOptions options;
  options.algorithm = Algorithm::kLinkSample;
  options.num_samples = 400;
  options.seed = 5;
  const MotifCounts direct =
      MotifEngine::Create(g, options).value().Count(options).value().counts;
  MotifCounts served;
  bool decoded = false;
  for (const std::string_view line : SplitLines(warm)) {
    if (line.rfind("counts ", 0) == 0) {
      served = DecodeCounts(line.substr(7)).value();
      decoded = true;
    }
  }
  ASSERT_TRUE(decoded);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(served[t], direct[t]) << "motif " << t;
  }
}

TEST(MotifServerTest, EquivalentRequestsShareOneCacheEntry) {
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("g", TestGraph()).ok());
  // Thread count is a scheduling knob; exact counting ignores seeds.
  EXPECT_NE(server.HandleRequest("count g algorithm=exact seed=1")
                .find("cached=0"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("count g algorithm=exact seed=9 threads=2")
                .find("cached=1"),
            std::string::npos);
  // A different sampler seed is a different result: must miss.
  EXPECT_NE(server.HandleRequest("count g algorithm=link-sample seed=1")
                .find("cached=0"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("count g algorithm=link-sample seed=2")
                .find("cached=0"),
            std::string::npos);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.count_queries, 4u);
  EXPECT_EQ(stats.cache.insertions, 3u);
}

TEST(MotifServerTest, ProfileAndSimilarityShareCachedBodies) {
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("g1", TestGraph(17)).ok());
  ASSERT_TRUE(server.LoadGraph("g2", TestGraph(23)).ok());
  const std::string profile =
      server.HandleRequest("profile g1 random=2 seed=3 ratio=0.2");
  ASSERT_EQ(profile.rfind("ok kind=profile", 0), 0u) << profile;
  EXPECT_NE(profile.find("cached=0"), std::string::npos);
  // similarity reuses g1's cached profile body; g2's is cold.
  const std::string cold =
      server.HandleRequest("similarity g1 g2 random=2 seed=3 ratio=0.2");
  ASSERT_EQ(cold.rfind("ok kind=similarity", 0), 0u) << cold;
  EXPECT_NE(cold.find("cached=0"), std::string::npos);
  const std::string warm =
      server.HandleRequest("similarity g1 g2 random=2 seed=3 ratio=0.2");
  EXPECT_NE(warm.find("cached=1"), std::string::npos);
  // Bit-identical pearson line across cold and warm.
  EXPECT_EQ(cold.substr(cold.find('\n')), warm.substr(warm.find('\n')));
}

TEST(MotifServerTest, PerEdgeColdAndCachedMatchOfflineByteForByte) {
  // The determinism contract for the new workload: a served per-edge
  // body — cold or cached — is byte-identical to what the offline path
  // (engine.CountPerEdge + RenderPerEdgeBody, exactly what `mochy_cli
  // per-edge` prints) produces for the same graph.
  const Hypergraph g = TestGraph();
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("g", g).ok());

  const std::string cold = server.HandleRequest("per-edge g");
  const std::string warm = server.HandleRequest("per-edge g");
  ASSERT_EQ(cold.rfind("ok kind=per-edge", 0), 0u) << cold;
  EXPECT_NE(cold.find("cached=0"), std::string::npos);
  EXPECT_NE(warm.find("cached=1"), std::string::npos);

  EngineOptions materialized;
  materialized.projection = ProjectionPolicy::kMaterialized;
  const MotifEngine engine = MotifEngine::Create(g, materialized).value();
  const std::string offline =
      RenderPerEdgeBody(engine.CountPerEdge().value().rows);
  EXPECT_EQ(cold.substr(cold.find('\n') + 1), offline);
  EXPECT_EQ(warm.substr(warm.find('\n') + 1), offline);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.per_edge_queries, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(MotifServerTest, PerEdgeCacheKeyIgnoresThreadsButNotContent) {
  // Per-edge rows are exact and thread-count-invariant, so the thread
  // knob must canonicalize away; a different graph (even under a name
  // that merely *sounds* the same) must miss.
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("g", TestGraph(17)).ok());
  ASSERT_TRUE(server.LoadGraph("g_copy", TestGraph(17)).ok());
  ASSERT_TRUE(server.LoadGraph("other", TestGraph(18)).ok());
  EXPECT_NE(server.HandleRequest("per-edge g threads=1").find("cached=0"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("per-edge g threads=2").find("cached=1"),
            std::string::npos);
  // Same content under another name: the fingerprint-keyed entry hits.
  EXPECT_NE(server.HandleRequest("per-edge g_copy").find("cached=1"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("per-edge other").find("cached=0"),
            std::string::npos);
  EXPECT_EQ(server.stats().cache.insertions, 2u);
}

TEST(MotifServerTest, PredictColdAndCachedMatchOfflineByteForByte) {
  const Hypergraph history = TestGraph(17);
  const Hypergraph candidates =
      testing::RandomHypergraph(30, 12, 2, 5, 23);
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("hist", history).ok());
  ASSERT_TRUE(server.LoadGraph("cand", candidates).ok());

  const std::string request = "predict hist cand replace=0.5 seed=3";
  const std::string cold = server.HandleRequest(request);
  const std::string warm = server.HandleRequest(request);
  ASSERT_EQ(cold.rfind("ok kind=predict", 0), 0u) << cold;
  EXPECT_NE(cold.find("cached=0"), std::string::npos);
  EXPECT_NE(warm.find("cached=1"), std::string::npos);

  // Offline reference: the exact renderer `mochy_cli predict` prints.
  PredictionTaskOptions options;
  options.replace_fraction = 0.5;
  options.seed = 3;
  const std::string offline =
      RenderPredictBody(history, candidates, options).value();
  EXPECT_EQ(cold.substr(cold.find('\n') + 1), offline);
  EXPECT_EQ(warm.substr(warm.find('\n') + 1), offline);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.predict_queries, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(MotifServerTest, PredictCacheKeyCanonicalizesSpellings) {
  // replace= travels as a double and is keyed via EncodeDouble, so
  // every spelling of the same value shares one entry; threads is a
  // scheduling knob and must not split entries. Different seeds (and
  // different replace fractions) are different fabrications: miss.
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("h", TestGraph(17)).ok());
  ASSERT_TRUE(server.LoadGraph("c", testing::RandomHypergraph(30, 8, 2, 4, 29))
                  .ok());
  EXPECT_NE(server.HandleRequest("predict h c replace=0.5 seed=1")
                .find("cached=0"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("predict h c replace=0x1p-1 seed=1 threads=2")
                .find("cached=1"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("predict h c replace=0.50 seed=1")
                .find("cached=1"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("predict h c replace=0.5 seed=2")
                .find("cached=0"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("predict h c replace=0.25 seed=1")
                .find("cached=0"),
            std::string::npos);
  EXPECT_EQ(server.stats().cache.insertions, 3u);
}

TEST(MotifServerTest, PerEdgeAndPredictRejectMalformedRequests) {
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("g", TestGraph(17)).ok());
  ASSERT_TRUE(server.LoadGraph("c", testing::RandomHypergraph(30, 8, 2, 4, 29))
                  .ok());
  EXPECT_EQ(server.HandleRequest("per-edge")
                .rfind("error code=InvalidArgument", 0), 0u);
  EXPECT_EQ(server.HandleRequest("per-edge missing")
                .rfind("error code=NotFound", 0), 0u);
  // Per-edge counts are always exact: algorithm knobs are rejected, not
  // silently ignored (a cached entry must never masquerade as the
  // result of an option it did not honor).
  EXPECT_EQ(server.HandleRequest("per-edge g algorithm=link-sample")
                .rfind("error code=InvalidArgument", 0), 0u);
  EXPECT_EQ(server.HandleRequest("per-edge g threads=junk")
                .rfind("error code=InvalidArgument", 0), 0u);
  EXPECT_EQ(server.HandleRequest("predict g")
                .rfind("error code=InvalidArgument", 0), 0u);
  EXPECT_EQ(server.HandleRequest("predict g missing")
                .rfind("error code=NotFound", 0), 0u);
  EXPECT_EQ(server.HandleRequest("predict g c replace=0")
                .rfind("error code=InvalidArgument", 0), 0u);
  EXPECT_EQ(server.HandleRequest("predict g c replace=1.5")
                .rfind("error code=InvalidArgument", 0), 0u);
  EXPECT_EQ(server.HandleRequest("predict g c ratio=0.5")
                .rfind("error code=InvalidArgument", 0), 0u);
  EXPECT_EQ(server.stats().errors, 9u);
  EXPECT_EQ(server.stats().cache.insertions, 0u);
}

TEST(MotifServerTest, ManyConcurrentClientsGetBitIdenticalResponses) {
  // The many-clients-one-graph hammer: 8 client threads fire the same
  // mix of count and profile queries at one server for several rounds.
  // Whatever the interleaving — cold computes racing cached reads —
  // every response body must be bit-identical for the same request
  // string, and the cache counters must add up afterwards.
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("g", TestGraph()).ok());
  const std::vector<std::string> requests = {
      "count g algorithm=exact",
      "count g algorithm=link-sample samples=300 seed=7",
      "profile g random=2 seed=3 ratio=0.2",
  };
  constexpr size_t kClients = 8;
  constexpr size_t kRounds = 5;
  std::vector<std::vector<std::string>> responses(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &requests, &responses, c] {
      for (size_t r = 0; r < kRounds; ++r) {
        for (const std::string& request : requests) {
          responses[c].push_back(server.HandleRequest(request));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Everything after the header's cached= flag must be identical —
  // except wall-clock metadata lines ("batch items=... elapsed=..."):
  // clients racing a cold cache compute independently and measure
  // different timings around bit-identical count vectors.
  const auto body = [](const std::string& response) {
    std::string out;
    size_t pos = response.find('\n');
    while (pos != std::string::npos) {
      const size_t end = response.find('\n', pos + 1);
      const std::string line = response.substr(
          pos, end == std::string::npos ? std::string::npos : end - pos);
      if (line.find("elapsed=") == std::string::npos) out += line;
      pos = end;
    }
    return out;
  };
  for (size_t q = 0; q < requests.size(); ++q) {
    const std::string want = body(responses[0][q]);
    for (size_t c = 0; c < kClients; ++c) {
      for (size_t r = 0; r < kRounds; ++r) {
        const std::string& got = responses[c][r * requests.size() + q];
        ASSERT_EQ(got.rfind("ok ", 0), 0u) << got;
        EXPECT_EQ(body(got), want)
            << "client " << c << " round " << r << ": " << requests[q];
      }
    }
    // A client's own earlier Put is visible to its later rounds, so the
    // final round is a guaranteed cache hit for every client.
    for (size_t c = 0; c < kClients; ++c) {
      const std::string& last =
          responses[c][(kRounds - 1) * requests.size() + q];
      EXPECT_NE(last.find("cached=1"), std::string::npos)
          << "client " << c << ": " << requests[q];
    }
  }

  // Coherent counters: every query consulted the cache exactly once,
  // nothing errored, and each distinct request missed at least once.
  const ServerStats stats = server.stats();
  const uint64_t total = kClients * kRounds * requests.size();
  EXPECT_EQ(stats.queries, total);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, total);
  EXPECT_GE(stats.cache.misses, requests.size());
  EXPECT_GE(stats.cache.hits, kClients * (kRounds - 1) * requests.size());
  EXPECT_GE(stats.cache.entries, requests.size());
}

TEST(MotifServerTest, MalformedRequestsBecomeErrorResponses) {
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("g", TestGraph()).ok());
  EXPECT_EQ(server.HandleRequest("bogus").rfind("error code=InvalidArgument", 0),
            0u);
  EXPECT_EQ(server.HandleRequest("count missing").rfind("error code=NotFound", 0),
            0u);
  EXPECT_EQ(server.HandleRequest("count g threads=junk")
                .rfind("error code=InvalidArgument", 0),
            0u);
  EXPECT_EQ(server.HandleRequest("count g seed=-1")
                .rfind("error code=InvalidArgument", 0),
            0u);
  EXPECT_EQ(server.HandleRequest("count g ratio=0")
                .rfind("error code=InvalidArgument", 0),
            0u);
  EXPECT_EQ(server.stats().errors, 5u);
}

TEST(MotifServerTest, LoadIsIdempotentOnIdenticalContentOnly) {
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("g", TestGraph(17)).ok());
  EXPECT_TRUE(server.LoadGraph("g", TestGraph(17)).ok());  // same content
  const Status clash = server.LoadGraph("g", TestGraph(18));
  EXPECT_EQ(clash.code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(server.LoadGraph("bad name!", TestGraph()).ok());
  EXPECT_EQ(server.stats().graphs, 1u);
}

// ---------------------------------------------------------- socket --

TEST(MotifServerTest, ServesQueriesOverAUnixSocket) {
  const std::string socket_path =
      "/tmp/mochy_serve_test_" + std::to_string(::getpid()) + ".sock";
  ServeOptions options;
  options.socket_path = socket_path;
  MotifServer server(options);
  ASSERT_TRUE(server.LoadGraph("g", TestGraph()).ok());

  std::thread serving([&server] { EXPECT_TRUE(server.Serve().ok()); });
  // The listener may not be bound yet; retry briefly.
  MotifClient client(socket_path, 0);
  Status connected = Status::OK();
  for (int attempt = 0; attempt < 50; ++attempt) {
    connected = client.Connect();
    if (connected.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(connected.ok()) << connected.ToString();

  auto cold = client.Request("count g algorithm=exact");
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().rfind("ok kind=count", 0), 0u) << cold.value();
  EXPECT_NE(cold.value().find("cached=0"), std::string::npos);
  auto warm = client.Request("count g algorithm=exact threads=2");
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm.value().find("cached=1"), std::string::npos);
  EXPECT_EQ(cold.value().substr(cold.value().find('\n')),
            warm.value().substr(warm.value().find('\n')));

  auto stats = client.Request("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rfind("ok kind=stats", 0), 0u);
  EXPECT_NE(stats.value().find("cache hits=1"), std::string::npos);

  auto shutdown = client.Request("shutdown");
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ(shutdown.value(), "ok kind=shutdown\n");
  client.Close();
  serving.join();
  // Serve() unlinks the socket path on the way out.
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
}

// ------------------------------------------------------ robustness --

/// A MotifServer bound to a fresh unix socket, serving on its own
/// thread until the test ends. The robustness tests below all need one.
struct LiveServer {
  explicit LiveServer(ServeOptions options_in) : server([&options_in] {
    if (options_in.socket_path.empty()) {
      options_in.socket_path = "/tmp/mochy_robust_test_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(next_id++) + ".sock";
    }
    return options_in;
  }()) {
    path = options_in.socket_path;
    EXPECT_TRUE(server.LoadGraph("g", TestGraph()).ok());
    serving = std::thread([this] { EXPECT_TRUE(server.Serve().ok()); });
    // The probe completes a full request round-trip: a bare connect
    // could sit unaccepted in the listen backlog and later steal a
    // connection slot from the test's own clients.
    MotifClient probe(path, 0);
    for (int attempt = 0; attempt < 250; ++attempt) {
      if (probe.Connect().ok()) {
        EXPECT_TRUE(probe.Request("stats").ok());
        probe.Close();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "server never came up on " << path;
  }

  ~LiveServer() {
    server.RequestStop();  // the accept loop polls stop_ in 200ms slices
    serving.join();
  }

  /// Polls until at least `n` connections were dropped. The peer's side
  /// of a bad exchange finishes before the server even accepts it, so
  /// counter checks have to wait for the handler to catch up.
  bool DroppedAtLeast(uint64_t n, int budget_ms) {
    for (int waited = 0; waited < budget_ms; waited += 20) {
      if (server.stats().dropped_connections >= n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return server.stats().dropped_connections >= n;
  }

  /// Polls until no connection is active (slots must drain, never leak).
  bool DrainsWithin(int budget_ms) {
    for (int waited = 0; waited < budget_ms; waited += 20) {
      if (server.stats().active_connections == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return server.stats().active_connections == 0;
  }

  static inline int next_id = 0;
  std::string path;
  MotifServer server;
  std::thread serving;
};

/// Raw frame-prefix writer for malformed-peer tests: claims
/// `claimed_len` payload bytes, then sends only `body`.
void SendTruncatedFrame(int fd, uint32_t claimed_len, std::string_view body) {
  const char prefix[4] = {
      static_cast<char>(claimed_len & 0xff),
      static_cast<char>((claimed_len >> 8) & 0xff),
      static_cast<char>((claimed_len >> 16) & 0xff),
      static_cast<char>((claimed_len >> 24) & 0xff)};
  ASSERT_EQ(::send(fd, prefix, 4, MSG_NOSIGNAL), 4);
  if (!body.empty()) {
    ASSERT_EQ(::send(fd, body.data(), body.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(body.size()));
  }
}

TEST(ServerRobustnessTest, SurvivesAClientThatDisconnectsMidReply) {
  // SIGPIPE regression: the peer vanishes between request and response,
  // so the server's reply write hits a closed socket. Without
  // MSG_NOSIGNAL that raises SIGPIPE and kills the process.
  LiveServer live{ServeOptions{}};
  for (int round = 0; round < 3; ++round) {
    auto fd = ConnectTo(live.path, 0, 1000);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteFrame(fd.value(), "count g algorithm=exact").ok());
    ::close(fd.value());  // gone before the server answers
  }
  // The server is still alive and still correct.
  ASSERT_TRUE(live.DrainsWithin(5000));
  MotifClient client(live.path, 0);
  ASSERT_TRUE(client.Connect().ok());
  auto response = client.Request("count g algorithm=exact");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().rfind("ok kind=count", 0), 0u);
}

TEST(ServerRobustnessTest, DropsATruncatedFrameWithoutDying) {
  LiveServer live{ServeOptions{}};
  auto fd = ConnectTo(live.path, 0, 1000);
  ASSERT_TRUE(fd.ok());
  // The prefix promises 100 bytes; only 7 ever arrive, then EOF.
  SendTruncatedFrame(fd.value(), 100, "count g");
  ::close(fd.value());
  ASSERT_TRUE(live.DrainsWithin(5000));
  EXPECT_TRUE(live.DroppedAtLeast(1, 5000));
  MotifClient client(live.path, 0);
  ASSERT_TRUE(client.Connect().ok());
  auto response = client.Request("stats");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().rfind("ok kind=stats", 0), 0u);
}

TEST(ServerRobustnessTest, RejectsAnOversizedFramePrefix) {
  LiveServer live{ServeOptions{}};
  auto fd = ConnectTo(live.path, 0, 1000);
  ASSERT_TRUE(fd.ok());
  // A prefix past kMaxFrameBytes must be refused outright — not
  // trusted as an allocation size.
  SendTruncatedFrame(fd.value(),
                     static_cast<uint32_t>(kMaxFrameBytes) + 1, "");
  auto reply = ReadFrame(fd.value(), 5000);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().eof);  // server closed on us
  ::close(fd.value());
  ASSERT_TRUE(live.DrainsWithin(5000));
  MotifClient client(live.path, 0);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Request("stats").ok());
}

TEST(ServerRobustnessTest, CutsOffAMidFrameStallAtTheDeadline) {
  // Slow-loris: a peer starts a frame and stalls. The per-frame
  // deadline (not the much longer idle timeout) must free the worker.
  ServeOptions options;
  options.io_timeout_ms = 300;
  options.idle_timeout_ms = 60'000;
  LiveServer live{options};
  auto fd = ConnectTo(live.path, 0, 1000);
  ASSERT_TRUE(fd.ok());
  SendTruncatedFrame(fd.value(), 100, "count g alg");  // ...and stall
  const auto start = std::chrono::steady_clock::now();
  auto reply = ReadFrame(fd.value(), 10'000);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().eof);  // deadline fired, connection closed
  EXPECT_LT(elapsed.count(), 5000) << "idle timeout fired, not the deadline";
  ::close(fd.value());
  ASSERT_TRUE(live.DrainsWithin(5000));
  EXPECT_TRUE(live.DroppedAtLeast(1, 5000));
  MotifClient client(live.path, 0);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Request("count g algorithm=exact").ok());
}

TEST(ServerRobustnessTest, ShedsLoadBeyondMaxConnectionsWithATypedError) {
  ServeOptions options;
  options.max_connections = 1;
  LiveServer live{options};
  // The construction probe held the only slot for an instant; wait for
  // it to drain so A is the one admitted.
  ASSERT_TRUE(live.DrainsWithin(5000));

  // A owns the only slot (a completed request proves it was accepted).
  MotifClient a(live.path, 0);
  ASSERT_TRUE(a.Connect().ok());
  auto held = a.Request("count g algorithm=exact");
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(held.value().rfind("ok kind=count", 0), 0u) << held.value();

  // B is shed with a typed Unavailable frame, not a hang or a RST. The
  // server pushes the frame without reading a request, so B just reads
  // (writing first can race the server's close into an EPIPE).
  auto b = ConnectTo(live.path, 0, 1000);
  ASSERT_TRUE(b.ok());
  auto shed = ReadFrame(b.value(), 5000);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  ASSERT_FALSE(shed.value().eof);
  EXPECT_EQ(shed.value().payload.rfind("error code=Unavailable", 0), 0u)
      << shed.value().payload;
  ::close(b.value());
  EXPECT_GE(live.server.stats().overload_rejections, 1u);

  // The slot is not leaked: once A leaves, the next client gets in.
  a.Close();
  ASSERT_TRUE(live.DrainsWithin(5000));
  MotifClient c(live.path, 0);
  ASSERT_TRUE(c.Connect().ok());
  auto admitted = c.Request("count g algorithm=exact");
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted.value().rfind("ok kind=count", 0), 0u);
}

TEST(ServerRobustnessTest, RetryRidesOutAnOverloadedWindow) {
  ServeOptions options;
  options.max_connections = 1;
  LiveServer live{options};
  ASSERT_TRUE(live.DrainsWithin(5000));  // let the construction probe drain

  MotifClient holder(live.path, 0);
  ASSERT_TRUE(holder.Connect().ok());
  auto held = holder.Request("count g algorithm=exact");
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(held.value().rfind("ok kind=count", 0), 0u) << held.value();

  // The holder leaves 150ms in; B's retry loop (Unavailable is
  // retriable) must land a successful attempt after that.
  std::thread release([&holder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    holder.Close();
  });
  ClientOptions retrying;
  retrying.backoff.max_attempts = 10;
  retrying.backoff.initial_delay_ms = 50.0;
  retrying.backoff.seed = 5;
  MotifClient b(live.path, 0, retrying);
  auto response = b.RequestWithRetry("count g algorithm=exact");
  release.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().rfind("ok kind=count", 0), 0u);
}

TEST(ServerRobustnessTest, InjectedWriteFaultDropsTheConnectionNotTheServer) {
  LiveServer live{ServeOptions{}};
  // The request travels via raw sends (no fault points), so the first
  // "protocol.write" hit is the server's reply: it fails with the
  // injected EIO, the server drops the connection and carries on.
  auto fd = ConnectTo(live.path, 0, 1000);
  ASSERT_TRUE(fd.ok());
  // Armed before the request goes out: the reply write must be the
  // first (and only) protocol.write hit.
  FaultPlan plan;
  plan.rules.push_back(
      {"protocol.write", /*nth=*/1, /*every=*/0, FaultError(EIO)});
  FaultInjector::Global().Arm(plan);
  const std::string request = "count g algorithm=exact";
  SendTruncatedFrame(fd.value(), static_cast<uint32_t>(request.size()),
                     request);
  auto reply = ReadFrame(fd.value(), 10'000);
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().eof);  // reply write failed -> closed
  ::close(fd.value());
  ASSERT_TRUE(live.DrainsWithin(5000));
  EXPECT_TRUE(live.DroppedAtLeast(1, 5000));
  EXPECT_GE(FaultInjector::Global().fired("protocol.write"), 1u);
  MotifClient client(live.path, 0);
  ASSERT_TRUE(client.Connect().ok());
  auto ok = client.Request("count g algorithm=exact");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().rfind("ok kind=count", 0), 0u);
}

TEST(ServerRobustnessTest, ChaosScheduleNeverCrashesOrCorruptsAnAnswer) {
  // The chaos oracle: with a seeded background fault rate on every
  // frame-I/O point (both sides of the wire live in this process), a
  // mixed workload of retrying clients must (a) never crash the server,
  // (b) never leak a connection slot, and (c) only ever observe
  // bit-identical payloads or typed transport errors — never a torn or
  // wrong answer.
  LiveServer live{ServeOptions{}};
  ASSERT_TRUE(
      live.server.LoadGraph("c", testing::RandomHypergraph(30, 8, 2, 4, 29))
          .ok());
  const std::vector<std::string> requests = {
      "count g algorithm=exact",
      "count g algorithm=link-sample samples=300 seed=7",
      "profile g random=2 seed=3 ratio=0.2",
      "per-edge g",
      "predict g c replace=0.5 seed=3",
  };
  // Reference bodies come from the in-process dispatcher — the same
  // code path the socket loop frames.
  const auto body = [](const std::string& response) {
    return response.substr(response.find('\n'));
  };
  std::vector<std::string> want;
  for (const std::string& request : requests) {
    const std::string response = live.server.HandleRequest(request);
    ASSERT_EQ(response.rfind("ok ", 0), 0u) << response;
    want.push_back(body(response));
  }

  FaultPlan plan;
  plan.seed = 1234;
  plan.rate = 0.02;  // ~2% of frame reads/writes fail with EIO
  FaultInjector::Global().Arm(plan);
  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 12;
  std::vector<int> mismatches(kClients, 0);
  std::vector<int> hard_failures(kClients, 0);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientOptions retrying;
      retrying.backoff.max_attempts = 12;
      retrying.backoff.initial_delay_ms = 2.0;
      retrying.backoff.max_delay_ms = 50.0;
      retrying.backoff.seed = 100 + c;
      MotifClient client(live.path, 0, retrying);
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t q = (c + r) % requests.size();
        auto response = client.RequestWithRetry(requests[q]);
        if (!response.ok()) {
          // A typed transport error after exhausted retries is an
          // acceptable outcome under chaos; a wrong answer is not.
          ++hard_failures[c];
          continue;
        }
        if (response.value().rfind("ok ", 0) != 0 ||
            body(response.value()) != want[q]) {
          ++mismatches[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  FaultInjector::Global().Disarm();

  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c << " saw a corrupt answer";
  }
  // Faults actually fired — the schedule exercised the error paths.
  EXPECT_GT(FaultInjector::Global().total_fired(), 0u);
  // No leaked slots, and the server still answers cleanly.
  ASSERT_TRUE(live.DrainsWithin(10'000));
  MotifClient after(live.path, 0);
  ASSERT_TRUE(after.Connect().ok());
  auto response = after.Request("count g algorithm=exact");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(body(response.value()), want[0]);
  after.Close();
  EXPECT_TRUE(live.DrainsWithin(5000));  // every slot returned
}

}  // namespace
}  // namespace mochy
