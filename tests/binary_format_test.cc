// Format layer of the out-of-core tier (hypergraph/binary_format.h):
// text -> binary -> text round trips must be bit-identical across every
// generator domain and adversarial random graphs; counts from an
// mmap-loaded graph must be bit-identical to the text-loaded graph at
// any thread count; and malformed containers (wrong magic, future
// version, truncation, flipped section bytes, re-sealed sections that
// break the CSR invariants) must be rejected with the documented typed
// errors, never read as data. A loaded graph views its file's mapping
// zero-copy and outlives both the original object and a re-save.
#include "hypergraph/binary_format.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "hypergraph/builder.h"
#include "hypergraph/io.h"
#include "motif/counts.h"
#include "motif/engine.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

using testing::CorruptFile;
using testing::FlipFileByte;
using testing::RandomHypergraph;
using testing::ScopedTempDir;

constexpr size_t kHeaderBytes = 144;
constexpr size_t kHeaderChecksumOffset = 136;

uint64_t ReadU64At(const std::string& file, size_t offset) {
  uint64_t v;
  std::memcpy(&v, file.data() + offset, sizeof v);
  return v;
}

void WriteU64At(std::string* file, size_t offset, uint64_t v) {
  std::memcpy(file->data() + offset, &v, sizeof v);
}

/// File offset of section `s`, from its descriptor in the header.
uint64_t SectionOffset(const std::string& file, size_t s) {
  return ReadU64At(file, 40 + s * 24);
}

/// Recomputes the header checksum after a header edit.
void ResealHeader(std::string* file) {
  WriteU64At(file, kHeaderChecksumOffset,
             Fnv1a64(file->data(), kHeaderChecksumOffset));
}

/// Overwrites section `s` of the container at `path` with `payload` (of
/// the section's byte length) and recomputes the section and header
/// checksums, so only the content checks can reject the edit.
void RewriteSection(const std::string& path, size_t s,
                    const std::vector<uint64_t>& payload) {
  std::string file = ReadTextFile(path).value();
  const size_t desc = 40 + s * 24;
  const size_t bytes = payload.size() * sizeof(uint64_t);
  ASSERT_EQ(ReadU64At(file, desc + 8), bytes);
  std::memcpy(file.data() + SectionOffset(file, s), payload.data(), bytes);
  WriteU64At(&file, desc + 16, Fnv1a64(payload.data(), bytes));
  ResealHeader(&file);
  ASSERT_TRUE(WriteTextFile(path, file).ok());
}

void ExpectSameExactCounts(const Hypergraph& a, const Hypergraph& b) {
  EngineOptions options;
  options.algorithm = Algorithm::kExact;
  const MotifCounts ca =
      MotifEngine::Create(a, options).value().Count(options).value().counts;
  const MotifCounts cb =
      MotifEngine::Create(b, options).value().Count(options).value().counts;
  for (int t = 1; t <= kNumHMotifs; ++t) EXPECT_EQ(ca[t], cb[t]) << t;
}

void ExpectSameGraph(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_pins(), b.num_pins());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const auto ea = a.edge(e);
    const auto eb = b.edge(e);
    ASSERT_EQ(ea.size(), eb.size()) << "edge " << e;
    for (size_t i = 0; i < ea.size(); ++i) {
      ASSERT_EQ(ea[i], eb[i]) << "edge " << e << " member " << i;
    }
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto va = a.edges_of(v);
    const auto vb = b.edges_of(v);
    ASSERT_EQ(va.size(), vb.size()) << "node " << v;
    for (size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(va[i], vb[i]) << "node " << v << " incidence " << i;
    }
  }
}

/// Saves `graph` as .mhg, loads it back, and checks full CSR equality
/// plus text-level bit identity (text -> binary -> text).
void RoundTrip(const Hypergraph& graph, const std::string& tag) {
  SCOPED_TRACE(tag);
  ScopedTempDir tmp;
  const std::string path = tmp.Path(tag + ".mhg");
  ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
  auto loaded = LoadHypergraphBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameGraph(graph, loaded.value());
  EXPECT_EQ(FormatHypergraph(graph), FormatHypergraph(loaded.value()));
}

TEST(BinaryFormatTest, RoundTripsEveryGeneratorDomain) {
  for (const Domain domain :
       {Domain::kCoauthorship, Domain::kContact, Domain::kEmail,
        Domain::kTags, Domain::kThreads}) {
    GeneratorConfig config = DefaultConfig(domain, 0.05);
    config.seed = 11;
    auto graph = GenerateDomainHypergraph(config);
    ASSERT_TRUE(graph.ok());
    RoundTrip(graph.value(), DomainName(domain));
  }
}

TEST(BinaryFormatTest, RoundTripsSkewedAndDuplicateRandomGraphs) {
  // Skewed: many tiny edges plus a few hubs; duplicate edges dropped by
  // the builder before serialization, so both legs agree by contract.
  RoundTrip(RandomHypergraph(40, 120, 1, 3, 21), "skewed_small_edges");
  RoundTrip(RandomHypergraph(30, 60, 5, 12, 22), "skewed_large_edges");
  RoundTrip(RandomHypergraph(10, 200, 1, 4, 23), "duplicate_heavy");
}

TEST(BinaryFormatTest, RoundTripsEmptyGraph) {
  RoundTrip(Hypergraph(), "empty");
}

TEST(BinaryFormatTest, MappedViewsAreZeroCopyConsistent) {
  const Hypergraph graph = RandomHypergraph(25, 50, 1, 6, 31);
  ScopedTempDir tmp;
  const std::string path = tmp.Path("views.mhg");
  ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
  auto loaded = LoadHypergraphBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Hypergraph& m = loaded.value();
  ExpectSameGraph(graph, m);
  // Each span points into the one mapping at its section's file offset:
  // the arrays were not copied out.
  const std::string file = ReadTextFile(path).value();
  const auto* base =
      reinterpret_cast<const unsigned char*>(m.edge_offsets().data());
  const void* sections[4] = {m.edge_offsets().data(), m.edge_nodes().data(),
                             m.node_offsets().data(), m.node_edges().data()};
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(static_cast<const unsigned char*>(sections[s]) - base,
              static_cast<ptrdiff_t>(SectionOffset(file, s) - kHeaderBytes))
        << "section " << s;
  }
}

TEST(BinaryFormatTest, CopiesAndMovesOutliveTheMappedOriginal) {
  const Hypergraph graph = RandomHypergraph(25, 50, 1, 6, 32);
  ScopedTempDir tmp;
  const std::string path = tmp.Path("shared.mhg");
  ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
  std::optional<Hypergraph> original(LoadHypergraphBinary(path).value());
  const Hypergraph copy = *original;
  const Hypergraph moved = std::move(*original);
  // A move shares the storage like a copy, so the source stays valid.
  ExpectSameGraph(graph, *original);
  EXPECT_EQ(copy.edge_nodes().data(), moved.edge_nodes().data());
  original.reset();
  EXPECT_TRUE(copy.Validate().ok());
  EXPECT_TRUE(moved.Validate().ok());
  ExpectSameGraph(graph, copy);
  ExpectSameGraph(graph, moved);
  ExpectSameExactCounts(graph, moved);
}

TEST(BinaryFormatTest, ResaveOverALoadedFileLeavesTheLoadedGraphIntact) {
  const Hypergraph a = RandomHypergraph(30, 60, 1, 6, 33);
  const Hypergraph b = RandomHypergraph(12, 20, 2, 4, 34);
  ScopedTempDir tmp;
  const std::string path = tmp.Path("resaved.mhg");
  ASSERT_TRUE(SaveHypergraphBinary(a, path).ok());
  const Hypergraph loaded = LoadHypergraphBinary(path).value();
  // The save replaces the file by rename; an in-place truncation would
  // make the next read of `loaded` fault.
  ASSERT_TRUE(SaveHypergraphBinary(b, path).ok());
  ExpectSameGraph(a, loaded);
  ExpectSameExactCounts(a, loaded);
  ExpectSameGraph(b, LoadHypergraphBinary(path).value());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(BinaryFormatTest, MmapLoadedCountsBitIdenticalAcrossThreads) {
  GeneratorConfig config = DefaultConfig(Domain::kCoauthorship, 0.08);
  config.seed = 3;
  const Hypergraph graph = GenerateDomainHypergraph(config).value();
  ScopedTempDir tmp;
  const std::string text_path = tmp.Path("counts.txt");
  const std::string bin_path = tmp.Path("counts.mhg");
  ASSERT_TRUE(SaveHypergraph(graph, text_path).ok());
  ASSERT_TRUE(SaveHypergraphBinary(graph, bin_path).ok());
  const Hypergraph from_text = LoadHypergraphAuto(text_path).value();
  const Hypergraph from_binary = LoadHypergraphAuto(bin_path).value();

  for (const Algorithm algorithm :
       {Algorithm::kExact, Algorithm::kLinkSample}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{0}}) {
      EngineOptions options;
      options.algorithm = algorithm;
      options.num_threads = threads;
      options.num_samples = 2000;
      options.seed = 7;
      const MotifCounts text_counts =
          MotifEngine::Create(from_text, options)
              .value()
              .Count(options)
              .value()
              .counts;
      const MotifCounts binary_counts =
          MotifEngine::Create(from_binary, options)
              .value()
              .Count(options)
              .value()
              .counts;
      for (int t = 1; t <= kNumHMotifs; ++t) {
        ASSERT_EQ(text_counts[t], binary_counts[t])
            << AlgorithmName(algorithm) << " threads=" << threads
            << " motif " << t;
      }
    }
  }
}

TEST(BinaryFormatTest, AutoLoadSniffsBothFormats) {
  const Hypergraph graph = RandomHypergraph(15, 30, 1, 5, 41);
  ScopedTempDir tmp;
  // Deliberately misleading extensions: only the magic bytes decide.
  const std::string text_path = tmp.Path("actually_text.mhg.txt");
  const std::string bin_path = tmp.Path("actually_binary.dat");
  ASSERT_TRUE(SaveHypergraph(graph, text_path).ok());
  ASSERT_TRUE(SaveHypergraphBinary(graph, bin_path).ok());
  EXPECT_FALSE(IsBinaryHypergraphFile(text_path));
  EXPECT_TRUE(IsBinaryHypergraphFile(bin_path));
  ExpectSameGraph(graph, LoadHypergraphAuto(text_path).value());
  ExpectSameGraph(graph, LoadHypergraphAuto(bin_path).value());
}

TEST(BinaryFormatTest, RejectsBadMagic) {
  const Hypergraph graph = RandomHypergraph(10, 20, 1, 4, 51);
  ScopedTempDir tmp;
  const std::string path = tmp.Path("bad_magic.mhg");
  ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
  ASSERT_TRUE(FlipFileByte(path, 0));
  const auto result = LoadHypergraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST(BinaryFormatTest, RejectsFutureVersion) {
  const Hypergraph graph = RandomHypergraph(10, 20, 1, 4, 52);
  ScopedTempDir tmp;
  const std::string path = tmp.Path("future_version.mhg");
  ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
  const unsigned char version2[4] = {2, 0, 0, 0};
  ASSERT_TRUE(CorruptFile(path, 4, version2));
  const auto result = LoadHypergraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(BinaryFormatTest, RejectsTruncatedHeader) {
  ScopedTempDir tmp;
  const std::string path = tmp.Path("truncated_header.mhg");
  // A file that starts like a container but ends mid-header.
  ASSERT_TRUE(WriteTextFile(path, std::string("MHG1\x01\x00\x00\x00", 8)).ok());
  const auto result = LoadHypergraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(BinaryFormatTest, RejectsHeaderCountsBeyondTheFile) {
  const Hypergraph graph = RandomHypergraph(10, 20, 1, 4, 56);
  ScopedTempDir tmp;
  const std::string path = tmp.Path("huge_counts.mhg");
  // Counts whose section lengths wrap around 2^64 to the real lengths:
  // (2^61 + 1) * 8 and 2^62 * 4 overflow, so only a bound on the counts
  // themselves keeps the spans inside the file.
  for (const auto& [field, value] :
       {std::pair<size_t, uint64_t>{24, (uint64_t{1} << 61) +
                                            graph.num_edges()},
        std::pair<size_t, uint64_t>{32, (uint64_t{1} << 62) +
                                            graph.num_pins()}}) {
    ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
    std::string file = ReadTextFile(path).value();
    WriteU64At(&file, field, value);
    ResealHeader(&file);
    ASSERT_TRUE(WriteTextFile(path, file).ok());
    const auto result = LoadHypergraphBinary(path);
    ASSERT_FALSE(result.ok()) << "field " << field;
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(BinaryFormatTest, RejectsResealedEdgeOffsetsPastTheirArray) {
  const Hypergraph graph = MakeHypergraph({{0, 1}, {2, 3}, {4, 5}}).value();
  ScopedTempDir tmp;
  const std::string path = tmp.Path("edge_offsets.mhg");
  ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
  // Edge 0 would span 7 members of a 6-member array.
  RewriteSection(path, 0, {0, 7, 4, 6});
  const auto result = LoadHypergraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  // Rejected by the offsets check, before any span is formed: a read
  // past the section would stay inside the mapping, unseen by ASan.
  EXPECT_NE(result.status().message().find("edge offsets"), std::string::npos)
      << result.status().ToString();
}

TEST(BinaryFormatTest, RejectsResealedNonMonotoneNodeOffsets) {
  const Hypergraph graph = MakeHypergraph({{0, 1}, {2, 3}, {4, 5}}).value();
  ScopedTempDir tmp;
  const std::string path = tmp.Path("node_offsets.mhg");
  ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
  // Node 4 would span [5, 4): a negative length.
  RewriteSection(path, 2, {0, 1, 2, 3, 5, 4, 6});
  const auto result = LoadHypergraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("node offsets"), std::string::npos)
      << result.status().ToString();
}

TEST(BinaryFormatTest, RejectsTruncatedSection) {
  const Hypergraph graph = RandomHypergraph(20, 40, 1, 5, 53);
  ScopedTempDir tmp;
  const std::string path = tmp.Path("truncated_section.mhg");
  ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
  // Chop the last section short; the header still promises full length.
  const auto full = ReadTextFile(path).value();
  ASSERT_TRUE(WriteTextFile(path, full.substr(0, full.size() - 16)).ok());
  const auto result = LoadHypergraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(result.status().message().find("truncated"), std::string::npos);
}

TEST(BinaryFormatTest, RejectsCorruptSectionChecksum) {
  const Hypergraph graph = RandomHypergraph(20, 40, 1, 5, 54);
  ScopedTempDir tmp;
  const std::string path = tmp.Path("corrupt_section.mhg");
  ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
  // Flip one payload byte well past the 144-byte header.
  ASSERT_TRUE(FlipFileByte(path, 160));
  const auto result = LoadHypergraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(BinaryFormatTest, RejectsCorruptHeaderChecksum) {
  const Hypergraph graph = RandomHypergraph(20, 40, 1, 5, 55);
  ScopedTempDir tmp;
  const std::string path = tmp.Path("corrupt_header.mhg");
  ASSERT_TRUE(SaveHypergraphBinary(graph, path).ok());
  // Scribble over a count field; the header checksum must catch it.
  ASSERT_TRUE(FlipFileByte(path, 17));
  const auto result = LoadHypergraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(BinaryFormatTest, MissingFileIsIOError) {
  const auto result = LoadHypergraphBinary("/nonexistent/dir/graph.mhg");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(IsBinaryHypergraphFile("/nonexistent/dir/graph.mhg"));
}

}  // namespace
}  // namespace mochy
