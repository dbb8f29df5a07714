#include "motif/pattern.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "tests/test_util.h"

namespace mochy {
namespace {

TEST(PatternTest, ExactlyTwentySixCanonicalClasses) {
  std::set<PatternBits> classes;
  for (int raw = 0; raw < 128; ++raw) {
    const PatternBits bits = static_cast<PatternBits>(raw);
    if (IsValidPattern(bits)) classes.insert(CanonicalPattern(bits));
  }
  EXPECT_EQ(classes.size(), 26u);
}

TEST(PatternTest, GroupStructureMatchesPaper) {
  // ids 1-16: t=1 (closed); 17-22: open; 23-26: t=0 closed.
  for (int id = 1; id <= 16; ++id) {
    EXPECT_TRUE(MotifPattern(id) & kPatternT) << "id " << id;
    EXPECT_FALSE(IsOpenMotif(id)) << "id " << id;
  }
  for (int id = 17; id <= 22; ++id) {
    EXPECT_FALSE(MotifPattern(id) & kPatternT) << "id " << id;
    EXPECT_TRUE(IsOpenMotif(id)) << "id " << id;
  }
  for (int id = 23; id <= 26; ++id) {
    const PatternBits bits = MotifPattern(id);
    EXPECT_FALSE(bits & kPatternT) << "id " << id;
    EXPECT_FALSE(IsOpenMotif(id)) << "id " << id;
    // all pairwise overlaps present
    EXPECT_TRUE(bits & kPatternPab) << "id " << id;
    EXPECT_TRUE(bits & kPatternPbc) << "id " << id;
    EXPECT_TRUE(bits & kPatternPca) << "id " << id;
  }
}

TEST(PatternTest, Motif16IsAllRegionsNonEmpty) {
  EXPECT_EQ(MotifPattern(16), static_cast<PatternBits>(0x7f));
}

TEST(PatternTest, Motifs17And18AreDisjointSubsetPatterns) {
  // 17: a = b ∪ c with disjoint subsets b, c (no private regions at all).
  // 18: same but a also has private nodes.
  for (int id : {17, 18}) {
    const PatternBits bits = MotifPattern(id);
    // Open: exactly one pairwise region empty, t empty.
    const int p_count = std::popcount(static_cast<unsigned>(bits & 0x38));
    EXPECT_EQ(p_count, 2) << "id " << id;
    // The two leaves have no private region.
    // Count private regions overall: 0 for 17, 1 for 18.
    const int d_count = std::popcount(static_cast<unsigned>(bits & 0x07));
    EXPECT_EQ(d_count, id == 17 ? 0 : 1) << "id " << id;
  }
}

TEST(PatternTest, Motif22IsGenericOpen) {
  const PatternBits bits = MotifPattern(22);
  EXPECT_EQ(std::popcount(static_cast<unsigned>(bits & 0x07)), 3);
  EXPECT_EQ(std::popcount(static_cast<unsigned>(bits & 0x38)), 2);
}

TEST(PatternTest, TriangleGroupOrderedByPrivateRegions) {
  for (int id = 23; id <= 26; ++id) {
    const int d_count =
        std::popcount(static_cast<unsigned>(MotifPattern(id) & 0x07));
    EXPECT_EQ(d_count, id - 23) << "id " << id;
  }
}

TEST(PatternTest, CanonicalIsPermutationInvariant) {
  constexpr int kPerms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (int raw = 0; raw < 128; ++raw) {
    const PatternBits bits = static_cast<PatternBits>(raw);
    const PatternBits canon = CanonicalPattern(bits);
    for (const auto& perm : kPerms) {
      EXPECT_EQ(CanonicalPattern(PermutePattern(bits, perm)), canon)
          << "raw " << raw;
    }
  }
}

TEST(PatternTest, PermutationIsGroupAction) {
  // Applying a permutation then its inverse restores the pattern.
  constexpr int kPerm[3] = {1, 2, 0};     // roles (a,b,c) <- edges (b,c,a)
  constexpr int kInverse[3] = {2, 0, 1};  // undoes kPerm
  for (int raw = 0; raw < 128; ++raw) {
    const PatternBits bits = static_cast<PatternBits>(raw);
    EXPECT_EQ(PermutePattern(PermutePattern(bits, kPerm), kInverse), bits);
  }
}

TEST(PatternTest, ValidityIsPermutationInvariant) {
  constexpr int kPerms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (int raw = 0; raw < 128; ++raw) {
    const PatternBits bits = static_cast<PatternBits>(raw);
    for (const auto& perm : kPerms) {
      EXPECT_EQ(IsValidPattern(PermutePattern(bits, perm)),
                IsValidPattern(bits))
          << "raw " << raw;
    }
  }
}

TEST(PatternTest, MotifIdAgreesAcrossPermutations) {
  constexpr int kPerms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (int raw = 0; raw < 128; ++raw) {
    const PatternBits bits = static_cast<PatternBits>(raw);
    if (!IsValidPattern(bits)) {
      EXPECT_EQ(MotifIdFromPattern(bits), 0);
      continue;
    }
    const int id = MotifIdFromPattern(bits);
    EXPECT_GE(id, 1);
    EXPECT_LE(id, kNumHMotifs);
    for (const auto& perm : kPerms) {
      EXPECT_EQ(MotifIdFromPattern(PermutePattern(bits, perm)), id);
    }
  }
}

TEST(PatternTest, RepresentativesAreCanonicalAndDistinct) {
  std::set<PatternBits> seen;
  for (int id = 1; id <= kNumHMotifs; ++id) {
    const PatternBits bits = MotifPattern(id);
    EXPECT_TRUE(IsValidPattern(bits)) << "id " << id;
    EXPECT_EQ(CanonicalPattern(bits), bits) << "id " << id;
    EXPECT_TRUE(seen.insert(bits).second) << "duplicate rep for id " << id;
    EXPECT_EQ(MotifIdFromPattern(bits), id);
  }
}

TEST(PatternTest, DuplicateEdgePatternsAreInvalid) {
  // a == b == c == {x}: only t non-empty.
  EXPECT_FALSE(IsValidPattern(kPatternT));
  // a == b ⊃ c: t plus p_ab.
  EXPECT_FALSE(IsValidPattern(kPatternT | kPatternPab));
  // a == b, c with private nodes.
  EXPECT_FALSE(IsValidPattern(kPatternT | kPatternDc));
  EXPECT_FALSE(IsValidPattern(kPatternT | kPatternPab | kPatternDc));
}

TEST(PatternTest, DisconnectedPatternsAreInvalid) {
  // Three pairwise-disjoint edges: only private regions.
  EXPECT_FALSE(IsValidPattern(kPatternDa | kPatternDb | kPatternDc));
  // One isolated edge: c disjoint from both a and b.
  EXPECT_FALSE(
      IsValidPattern(kPatternDa | kPatternDb | kPatternDc | kPatternPab));
}

TEST(PatternTest, EmptyEdgePatternsAreInvalid) {
  // c empty: no region containing c is non-empty.
  EXPECT_FALSE(IsValidPattern(kPatternDa | kPatternDb | kPatternPab));
}

TEST(PatternTest, ClassifyMotifOnKnownTriples) {
  // a={1,2}, b={2,3}, c={3,4}: open chain, hub b; a,c disjoint.
  // Regions: d_a=1 (node1), d_b=0? b={2,3}: 2 in a∩b, 3 in b∩c -> d_b=0.
  // d_c=1 (4), p_ab=1 (2), p_bc=1 (3), p_ca=0, t=0.
  const int chain = ClassifyMotif(2, 2, 2, /*w_ab=*/1, /*w_bc=*/1,
                                  /*w_ca=*/0, /*w_abc=*/0);
  EXPECT_TRUE(IsOpenMotif(chain));
  // Hub (b) has no private region, both leaves have one -> key (2, 0) = 21.
  EXPECT_EQ(chain, 21);

  // Three edges sharing exactly one node, each with a private node:
  // the "star" d=(1,1,1), p=(0,0,0), t=1.
  const int star = ClassifyMotif(2, 2, 2, 1, 1, 1, 1);
  EXPECT_FALSE(IsOpenMotif(star));
  EXPECT_TRUE(MotifPattern(star) & kPatternT);

  // Full pattern: all seven regions non-empty -> motif 16.
  const int full = ClassifyMotif(4, 4, 4, 2, 2, 2, 1);
  EXPECT_EQ(full, 16);

  // Triangle without core: pairwise overlaps but empty common core,
  // all private regions non-empty -> motif 26.
  const int triangle = ClassifyMotif(3, 3, 3, 1, 1, 1, 0);
  EXPECT_EQ(triangle, 26);

  // b and c disjoint subsets of a with a = b ∪ c -> motif 17.
  // a={1,2,3,4}, b={1,2}, c={3,4}.
  const int exact_cover = ClassifyMotif(4, 2, 2, 2, 0, 2, 0);
  EXPECT_EQ(exact_cover, 17);

  // Same but a has a private node -> motif 18. a={1,2,3,4,5}.
  const int cover_plus = ClassifyMotif(5, 2, 2, 2, 0, 2, 0);
  EXPECT_EQ(cover_plus, 18);
}

TEST(PatternTest, ClassifyMotifOrZeroRejectsInvalid) {
  // Duplicate edges: a == b == {1}, c = {1}.
  EXPECT_EQ(ClassifyMotifOrZero(1, 1, 1, 1, 1, 1, 1), 0);
  // Inconsistent: triple intersection bigger than a pairwise one.
  EXPECT_EQ(ClassifyMotifOrZero(3, 3, 3, 1, 1, 1, 2), 0);
  // Disconnected: c shares nothing with a or b.
  EXPECT_EQ(ClassifyMotifOrZero(2, 2, 2, 1, 0, 0, 0), 0);
  // Inconsistent sizes (|a| smaller than its overlap regions).
  EXPECT_EQ(ClassifyMotifOrZero(1, 3, 3, 2, 1, 2, 1), 0);
}

TEST(PatternTest, BruteForceClassifierAgreesWithCardinalities) {
  // Cross-check the arithmetic classifier against direct set algebra on
  // randomized triples of sets.
  Rng rng(42);
  for (int trial = 0; trial < 500; ++trial) {
    std::set<NodeId> sets[3];
    for (auto& s : sets) {
      const int size = 1 + static_cast<int>(rng.UniformInt(5));
      for (int i = 0; i < size; ++i) {
        s.insert(static_cast<NodeId>(rng.UniformInt(8)));
      }
    }
    const auto regions = testing::ComputeRegions(sets[0], sets[1], sets[2]);
    const uint64_t w_ab = regions.p[0] + regions.t;
    const uint64_t w_bc = regions.p[1] + regions.t;
    const uint64_t w_ca = regions.p[2] + regions.t;
    const uint64_t size_a = regions.d[0] + regions.p[0] + regions.p[2] + regions.t;
    const uint64_t size_b = regions.d[1] + regions.p[0] + regions.p[1] + regions.t;
    const uint64_t size_c = regions.d[2] + regions.p[1] + regions.p[2] + regions.t;
    const int direct = testing::BruteForceClassify(sets[0], sets[1], sets[2]);
    const int arithmetic = ClassifyMotifOrZero(size_a, size_b, size_c, w_ab,
                                               w_bc, w_ca, regions.t);
    EXPECT_EQ(direct, arithmetic) << "trial " << trial;
  }
}

TEST(PatternTest, InlineClassifierMatchesClassifyMotifOrZero) {
  // Every cardinality vector with all seven entries in [0, 4], consistent
  // or not.
  const MotifClassifier classify;
  constexpr uint64_t kMax = 4;
  for (uint64_t sa = 0; sa <= kMax; ++sa) {
    for (uint64_t sb = 0; sb <= kMax; ++sb) {
      for (uint64_t sc = 0; sc <= kMax; ++sc) {
        for (uint64_t ab = 0; ab <= kMax; ++ab) {
          for (uint64_t bc = 0; bc <= kMax; ++bc) {
            for (uint64_t ca = 0; ca <= kMax; ++ca) {
              for (uint64_t abc = 0; abc <= kMax; ++abc) {
                ASSERT_EQ(classify(sa, sb, sc, ab, bc, ca, abc),
                          ClassifyMotifOrZero(sa, sb, sc, ab, bc, ca, abc))
                    << sa << " " << sb << " " << sc << " " << ab << " " << bc
                    << " " << ca << " " << abc;
              }
            }
          }
        }
      }
    }
  }
}

TEST(PatternTest, OpenClassMatchesClassifyMotifOrZero) {
  // Every (|hub|, |a|, |b|, ω(hub,a), ω(hub,b)) with 1 <= ω <= |a|, |b|.
  const MotifClassifier classify;
  constexpr uint64_t kMax = 7;
  for (uint64_t hub = 1; hub <= kMax; ++hub) {
    for (uint64_t wa = 1; wa <= kMax; ++wa) {
      for (uint64_t wb = 1; wb <= kMax; ++wb) {
        for (uint64_t sa = wa; sa <= kMax; ++sa) {
          for (uint64_t sb = wb; sb <= kMax; ++sb) {
            ASSERT_EQ(classify.OpenClass(hub, sa, sb, wa, wb),
                      ClassifyMotifOrZero(hub, sa, sb, wa, 0, wb, 0))
                << hub << " " << sa << " " << sb << " " << wa << " " << wb;
          }
        }
      }
    }
  }
}

TEST(PatternTest, MotifToStringFormats) {
  EXPECT_EQ(MotifToString(16), "d=111 p=111 t=1 (closed)");
  EXPECT_NE(MotifToString(22).find("(open)"), std::string::npos);
}

class AllMotifIds : public ::testing::TestWithParam<int> {};

TEST_P(AllMotifIds, RoundTripsThroughPatternAndBack) {
  const int id = GetParam();
  EXPECT_EQ(MotifIdFromPattern(MotifPattern(id)), id);
}

TEST_P(AllMotifIds, OpenIffSomePairDisjoint) {
  const int id = GetParam();
  const PatternBits bits = MotifPattern(id);
  const bool t = bits & kPatternT;
  const bool ab = (bits & kPatternPab) || t;
  const bool bc = (bits & kPatternPbc) || t;
  const bool ca = (bits & kPatternPca) || t;
  const bool some_disjoint = !(ab && bc && ca);
  EXPECT_EQ(IsOpenMotif(id), some_disjoint);
}

INSTANTIATE_TEST_SUITE_P(All, AllMotifIds, ::testing::Range(1, 27));

}  // namespace
}  // namespace mochy
