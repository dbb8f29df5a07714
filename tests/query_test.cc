// Tests for the query table (serve/query.h), the one path the server and
// the offline CLI share: for every query kind, the body the offline CLI
// computes equals the served cold and cached bodies byte for byte; the
// encoder is the inverse of the parser; every spelling of one double
// shares one cache key; and the CLI's flags build the same Query as the
// wire's keys, with no flag a kind does not take.
#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "hypergraph/fingerprint.h"
#include "motif/engine.h"
#include "serve/protocol.h"
#include "serve/query.h"
#include "serve/server.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

Hypergraph GraphG() { return testing::RandomHypergraph(30, 60, 1, 5, 17); }
Hypergraph GraphH() { return testing::RandomHypergraph(30, 60, 1, 5, 23); }
Hypergraph Candidates() { return testing::RandomHypergraph(30, 12, 2, 5, 23); }

/// One request per kind: count exact and one sampler, profile,
/// similarity, per-edge, predict.
const char* const kRequests[] = {
    "count g algorithm=exact",
    "count g algorithm=link-sample samples=400 seed=5 variance=1",
    "profile g random=2 seed=3 ratio=0.2",
    "similarity g h random=2 seed=3 ratio=0.2 null=perturb perturb=0.25",
    "per-edge g threads=2",
    "predict g c replace=0.5 seed=3",
};

/// Parses a request line the way MotifServer::HandleRequest does, minus
/// the registry. Views into `line`, which must outlive the Query.
Result<Query> ParseLine(const std::string& line) {
  const std::vector<std::string_view> tokens = SplitTokens(line);
  const QuerySpec* spec = FindQuerySpec(tokens.at(0));
  if (spec == nullptr) return Status::InvalidArgument("no such kind");
  if (tokens.size() < 1 + spec->operands) {
    return Status::InvalidArgument(std::string(spec->usage));
  }
  Query query(*spec);
  for (size_t i = 0; i < spec->operands; ++i) query.graphs[i] = tokens[1 + i];
  const std::span<const std::string_view> options(
      tokens.data() + 1 + spec->operands,
      tokens.size() - 1 - spec->operands);
  MOCHY_RETURN_IF_ERROR(ParseQueryOptions(options, &query));
  return query;
}

/// Graphs loaded separately from the server's, as the offline CLI loads
/// its operand files, with an engine built the way the CLI builds one.
class OfflineGraphs {
 public:
  OfflineGraphs() : g_(GraphG()), h_(GraphH()), c_(Candidates()) {}

  /// The operands of `query`, engines built from its options.
  std::vector<QueryOperand> Resolve(const Query& query) {
    std::vector<QueryOperand> operands;
    for (size_t i = 0; i < query.spec->operands; ++i) {
      const Hypergraph* graph = query.graphs[i] == "g"   ? &g_
                                : query.graphs[i] == "h" ? &h_
                                                         : &c_;
      QueryOperand operand;
      operand.graph = graph;
      if (query.spec->needs_engine) {  // one operand: count, per-edge
        engine_.emplace(MotifEngine::Create(*graph, query.engine).value());
        operand.engine = &*engine_;
      }
      operands.push_back(operand);
    }
    return operands;
  }

 private:
  Hypergraph g_, h_, c_;
  std::optional<MotifEngine> engine_;
};

/// The body of a response: everything after the header line.
std::string Body(const std::string& response) {
  return response.substr(response.find('\n') + 1);
}

/// Blanks the wall-clock fields of stats lines (`elapsed=`, `busy=`,
/// `utilization=`): independent runs time bit-identical results
/// differently. Appends into a new string: g++ 12 at -O3 reports a false
/// -Wrestrict inside std::string::replace here.
std::string WithoutTimings(const std::string& body) {
  std::string out;
  out.reserve(body.size());
  size_t at = 0;
  while (at < body.size()) {
    const std::string_view rest(body.data() + at, body.size() - at);
    bool blanked = false;
    for (const std::string_view key : {"elapsed=", "busy=", "utilization="}) {
      if (!rest.starts_with(key)) continue;
      out += key;
      out += '*';
      at = std::min(body.find_first_of(" \n", at), body.size());
      blanked = true;
      break;
    }
    if (!blanked) out += body[at++];
  }
  return out;
}

TEST(QueryTableTest, OfflineBodyEqualsServedColdAndCachedBodies) {
  MotifServer server{ServeOptions{}};
  ASSERT_TRUE(server.LoadGraph("g", GraphG()).ok());
  ASSERT_TRUE(server.LoadGraph("h", GraphH()).ok());
  ASSERT_TRUE(server.LoadGraph("c", Candidates()).ok());
  for (const std::string request : kRequests) {
    SCOPED_TRACE(request);
    const std::string cold = server.HandleRequest(request);
    const std::string cached = server.HandleRequest(request);
    ASSERT_EQ(cold.rfind("ok kind=", 0), 0u) << cold;
    EXPECT_NE(cold.find(" cached=0\n"), std::string::npos) << cold;
    EXPECT_NE(cached.find(" cached=1\n"), std::string::npos) << cached;
    EXPECT_EQ(Body(cached), Body(cold));

    auto query = ParseLine(request);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    OfflineGraphs offline;
    const std::vector<QueryOperand> operands =
        offline.Resolve(query.value());
    auto answer = AnswerQuery(query.value(), operands.data());
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_FALSE(answer.value().cached);
    EXPECT_EQ(WithoutTimings(answer.value().body), WithoutTimings(Body(cold)));
  }
  EXPECT_EQ(server.stats().errors, 0u);
}

/// The cache key of `query`'s body (for similarity: its first profile's)
/// over `engine`'s graph.
std::string KeyOf(const Query& query, const MotifEngine& engine) {
  const QuerySpec& keyed =
      query.spec->part != nullptr ? *query.spec->part : *query.spec;
  const QueryOperand operands[2] = {{&engine.graph(), &engine, 1},
                                    {&engine.graph(), &engine, 2}};
  return QueryCacheKey(keyed, query, operands);
}

std::string KeyOf(const std::string& line, const MotifEngine& engine) {
  return KeyOf(ParseLine(line).value(), engine);
}

TEST(QueryTableTest, EncodeIsTheInverseOfParse) {
  const Hypergraph g = GraphG();
  const MotifEngine engine = MotifEngine::Create(g).value();
  for (const std::string request : kRequests) {
    SCOPED_TRACE(request);
    auto parsed = ParseLine(request);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const std::string encoded = EncodeQuery(parsed.value());
    // The encoding names every option of the kind, so it reads back to
    // the same Query and encodes to the same line.
    auto reparsed = ParseLine(encoded);
    ASSERT_TRUE(reparsed.ok()) << encoded;
    EXPECT_EQ(EncodeQuery(reparsed.value()), encoded);
    EXPECT_EQ(reparsed.value().spec, parsed.value().spec);
    EXPECT_EQ(reparsed.value().graphs, parsed.value().graphs);
    // Same body-relevant options (the key) and the same thread budget.
    EXPECT_EQ(KeyOf(reparsed.value(), engine), KeyOf(parsed.value(), engine));
    EXPECT_EQ(reparsed.value().engine.num_threads,
              parsed.value().engine.num_threads);
    EXPECT_EQ(reparsed.value().profile.num_threads,
              parsed.value().profile.num_threads);
    EXPECT_EQ(reparsed.value().predict.num_threads,
              parsed.value().predict.num_threads);
  }
}

TEST(QueryTableTest, EverySpellingOfADoubleSharesOneKey) {
  const Hypergraph g = GraphG();
  const MotifEngine engine = MotifEngine::Create(g).value();
  // Doubles key through their hex-float encoding, and the thread count
  // never enters a key.
  const std::pair<const char*, const char*> same[] = {
      {"predict g c replace=0.5 seed=1",
       "predict g c replace=0x1p-1 seed=1 threads=2"},
      {"predict g c replace=0.5", "predict g c replace=0.50"},
      {"count g algorithm=link-sample ratio=0.25 seed=4",
       "count g algorithm=link-sample ratio=0x1p-2 seed=4 threads=3"},
      {"profile g epsilon=0.5 ratio=0.2",
       "profile g epsilon=0x1p-1 ratio=0x1.999999999999ap-3 threads=4"},
      {"similarity g g perturb=0.25", "similarity g g perturb=0x1p-2"},
      {"per-edge g threads=1", "per-edge g threads=4096"},
  };
  for (const auto& [a, b] : same) {
    EXPECT_EQ(KeyOf(a, engine), KeyOf(b, engine)) << a << " vs " << b;
    // The encoder spells both the same way, thread count aside.
    const std::string line_a = a, line_b = b;
    Query qa = ParseLine(line_a).value();
    Query qb = ParseLine(line_b).value();
    qa.engine.num_threads = qb.engine.num_threads;
    qa.profile.num_threads = qb.profile.num_threads;
    qa.predict.num_threads = qb.predict.num_threads;
    EXPECT_EQ(EncodeQuery(qa), EncodeQuery(qb)) << a << " vs " << b;
  }
  const std::pair<const char*, const char*> different[] = {
      {"predict g c replace=0.5", "predict g c replace=0.25"},
      {"predict g c seed=1", "predict g c seed=2"},
      {"profile g epsilon=0.5", "profile g epsilon=0.25"},
      {"profile g null=chung-lu", "profile g null=perturb"},
      {"count g algorithm=link-sample seed=1",
       "count g algorithm=link-sample seed=2"},
  };
  for (const auto& [a, b] : different) {
    EXPECT_NE(KeyOf(a, engine), KeyOf(b, engine)) << a << " vs " << b;
  }
}

TEST(QueryTableTest, CliFlagsBuildTheSameQueryAsWireKeys) {
  const Hypergraph g = GraphG();
  const MotifEngine engine = MotifEngine::Create(g).value();
  struct Case {
    const char* wire;
    std::vector<std::pair<const char*, const char*>> flags;
  };
  const Case cases[] = {
      {"count g algorithm=weighted samples=300 ratio=0.5 seed=9 threads=2",
       {{"--algorithm", "weighted"},
        {"--samples", "300"},
        {"--ratio", "0.5"},
        {"--seed", "9"},
        {"--threads", "2"}}},
      {"profile g random=4 seed=2 ratio=0.3 epsilon=2 null=perturb threads=1",
       {{"--random", "4"},
        {"--seed", "2"},
        {"--sample-ratio", "0.3"},
        {"--epsilon", "2"},
        {"--null", "perturb"},
        {"--threads", "1"}}},
      {"similarity g h random=3", {{"--random", "3"}}},
      {"per-edge g threads=3", {{"--threads", "3"}}},
      {"predict g c replace=0.25 seed=8 threads=2",
       {{"--replace", "0.25"}, {"--seed", "8"}, {"--threads", "2"}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.wire);
    const std::string wire = c.wire;
    const Query from_wire = ParseLine(wire).value();
    Query from_flags(*from_wire.spec);
    from_flags.graphs = from_wire.graphs;
    for (const auto& [flag, value] : c.flags) {
      const QueryOption* option = FindQueryFlag(*from_flags.spec, flag);
      ASSERT_NE(option, nullptr) << flag;
      ASSERT_TRUE(option->parse(value, flag, &from_flags).ok()) << flag;
    }
    EXPECT_EQ(EncodeQuery(from_flags), EncodeQuery(from_wire));
    EXPECT_EQ(KeyOf(from_flags, engine), KeyOf(from_wire, engine));
  }
}

TEST(QueryTableTest, KindsTakeOnlyTheirOwnFlagsAndKeys) {
  const QuerySpec& count = *FindQuerySpec("count");
  const QuerySpec& per_edge = *FindQuerySpec("per-edge");
  const QuerySpec& predict = *FindQuerySpec("predict");
  const QuerySpec& similarity = *FindQuerySpec("similarity");
  EXPECT_EQ(FindQuerySpec("load"), nullptr);
  EXPECT_EQ(FindQuerySpec("stats"), nullptr);
  // Per-edge counts are always exact; predict has no sampler knobs.
  EXPECT_EQ(FindQueryFlag(per_edge, "--algorithm"), nullptr);
  EXPECT_EQ(FindQueryFlag(per_edge, "--seed"), nullptr);
  EXPECT_EQ(FindQueryFlag(predict, "--algorithm"), nullptr);
  EXPECT_EQ(FindQueryFlag(predict, "--samples"), nullptr);
  EXPECT_EQ(FindQueryFlag(count, "--replace"), nullptr);
  EXPECT_EQ(FindQueryFlag(count, "--random"), nullptr);
  // Engine-construction and client flags belong to no kind.
  EXPECT_EQ(FindQueryFlag(count, "--projection"), nullptr);
  EXPECT_EQ(FindQueryFlag(count, "--socket"), nullptr);
  // Wire-only keys have no flag.
  EXPECT_EQ(FindQueryFlag(count, "--variance"), nullptr);
  EXPECT_EQ(FindQueryFlag(similarity, "--perturb"), nullptr);
  EXPECT_NE(FindQueryFlag(similarity, "--sample-ratio"), nullptr);
  // The wire refuses the same options by name.
  const std::string refused[] = {
      "per-edge g algorithm=link-sample", "per-edge g seed=3",
      "predict g c samples=9", "predict g c algorithm=weighted",
      "count g replace=0.5", "similarity g h algorithm=exact",
  };
  for (const std::string& line : refused) {
    const auto parsed = ParseLine(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

}  // namespace
}  // namespace mochy
