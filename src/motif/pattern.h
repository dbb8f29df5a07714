// Hypergraph motifs (h-motifs), paper Section 2.2.
//
// The connectivity pattern of three connected hyperedges (a, b, c) is the
// emptiness of the 7 Venn regions:
//   d_a = a\b\c,  d_b = b\c\a,  d_c = c\a\b,
//   p_ab = a∩b\c, p_bc = b∩c\a, p_ca = c∩a\b,  t = a∩b∩c.
// We encode it as 7 bits (bit layout below), canonicalize over the 6
// permutations of (a, b, c), and exclude patterns that imply duplicate or
// empty hyperedges or a disconnected triple. Exactly 26 classes remain;
// they are numbered so that every structural constraint stated in the
// paper holds (see DESIGN.md Section 3):
//   ids  1-16 : closed motifs with t = 1 (non-empty common core),
//   ids 17-22 : open motifs (one disjoint pair; 17/18 are the
//               "hyperedge plus two disjoint subsets" patterns),
//   ids 23-26 : closed motifs with t = 0 (triangle of pairwise overlaps).
#ifndef MOCHY_MOTIF_PATTERN_H_
#define MOCHY_MOTIF_PATTERN_H_

#include <array>
#include <cstdint>
#include <string>

namespace mochy {

/// Number of h-motifs on three hyperedges.
inline constexpr int kNumHMotifs = 26;

/// 7-bit emptiness pattern. Bit i set means the region is NON-empty.
/// Layout: bit0=d_a, bit1=d_b, bit2=d_c, bit3=p_ab, bit4=p_bc, bit5=p_ca,
/// bit6=t.
using PatternBits = uint8_t;

inline constexpr PatternBits kPatternDa = 1 << 0;
inline constexpr PatternBits kPatternDb = 1 << 1;
inline constexpr PatternBits kPatternDc = 1 << 2;
inline constexpr PatternBits kPatternPab = 1 << 3;
inline constexpr PatternBits kPatternPbc = 1 << 4;
inline constexpr PatternBits kPatternPca = 1 << 5;
inline constexpr PatternBits kPatternT = 1 << 6;

/// Applies a role permutation to a pattern: `perm[x]` is the original edge
/// (0=a,1=b,2=c) that plays role x afterwards.
PatternBits PermutePattern(PatternBits bits, const int perm[3]);

/// Lexicographically smallest encoding over the 6 role permutations.
PatternBits CanonicalPattern(PatternBits bits);

/// Whether the pattern can be realized by three connected, pairwise
/// distinct, non-empty hyperedges.
bool IsValidPattern(PatternBits bits);

/// Motif id in [1, 26] for any valid pattern (canonical or not);
/// 0 for invalid patterns.
int MotifIdFromPattern(PatternBits bits);

/// Canonical representative pattern of motif `id` (1-based).
PatternBits MotifPattern(int id);

/// Open motifs have two non-adjacent hyperedges; ids 17..22.
inline constexpr int kFirstOpenMotif = 17;
inline constexpr int kNumOpenMotifs = 6;
bool IsOpenMotif(int id);
inline bool IsClosedMotif(int id) { return !IsOpenMotif(id); }

/// Classifies an instance from its region cardinalities, computed via the
/// inclusion-exclusion of Lemma 2 from sizes |a|,|b|,|c|, pairwise
/// intersections w_ab, w_bc, w_ca and the triple intersection w_abc.
/// Returns the motif id in [1, 26]. The inputs must describe three
/// distinct, connected hyperedges.
int ClassifyMotif(uint64_t size_a, uint64_t size_b, uint64_t size_c,
                  uint64_t w_ab, uint64_t w_bc, uint64_t w_ca,
                  uint64_t w_abc);

/// Like ClassifyMotif but returns 0 instead of asserting when the
/// cardinalities do not describe a valid instance (duplicate edges, a
/// disconnected triple, or inconsistent intersection sizes).
int ClassifyMotifOrZero(uint64_t size_a, uint64_t size_b, uint64_t size_c,
                        uint64_t w_ab, uint64_t w_bc, uint64_t w_ca,
                        uint64_t w_abc);

namespace internal {

/// Pattern code of an instance with these cardinalities (Lemma 2): its
/// 7-bit PatternBits, or 128 when they are inconsistent and would
/// underflow the inclusion-exclusion. Inline, for hot loops.
inline unsigned RegionPattern(uint64_t size_a, uint64_t size_b,
                              uint64_t size_c, uint64_t w_ab, uint64_t w_bc,
                              uint64_t w_ca, uint64_t w_abc) {
  if (w_abc > w_ab || w_abc > w_bc || w_abc > w_ca) return 128;
  if (size_a + w_abc < w_ab + w_ca || size_b + w_abc < w_ab + w_bc ||
      size_c + w_abc < w_ca + w_bc) {
    return 128;
  }
  unsigned bits = 0;
  if (size_a + w_abc > w_ab + w_ca) bits |= kPatternDa;
  if (size_b + w_abc > w_ab + w_bc) bits |= kPatternDb;
  if (size_c + w_abc > w_ca + w_bc) bits |= kPatternDc;
  if (w_ab > w_abc) bits |= kPatternPab;
  if (w_bc > w_abc) bits |= kPatternPbc;
  if (w_ca > w_abc) bits |= kPatternPca;
  if (w_abc > 0) bits |= kPatternT;
  return bits;
}

}  // namespace internal

/// ClassifyMotifOrZero inlined for hot loops: a private copy of the
/// pattern -> id table, so a classification costs no call and no
/// function-static guard. Cheap to construct; build one per kernel run.
class MotifClassifier {
 public:
  MotifClassifier();

  int operator()(uint64_t size_a, uint64_t size_b, uint64_t size_c,
                 uint64_t w_ab, uint64_t w_bc, uint64_t w_ca,
                 uint64_t w_abc) const {
    return id_of_[internal::RegionPattern(size_a, size_b, size_c, w_ab, w_bc,
                                          w_ca, w_abc)];
  }

  /// The class of {hub, a, b} were a and b disjoint: operator()(size_hub,
  /// size_a, size_b, w_a, 0, w_b, 0) for w_a = ω(hub, a) ≥ 1 and w_b =
  /// ω(hub, b) ≥ 1. Only three facts vary — hub \ (a ∪ b) empty, non-empty
  /// or "negative" (w_a + w_b > |hub|: id 0), and whether a and b have
  /// private nodes — so it is one lookup in a 12-entry table.
  int OpenClass(uint64_t size_hub, uint64_t size_a, uint64_t size_b,
                uint64_t w_a, uint64_t w_b) const {
    const uint64_t covered = w_a + w_b;
    const unsigned hub = covered < size_hub ? 1u : covered == size_hub ? 0u : 2u;
    return open_id_[hub * 4 + (size_a > w_a ? 2u : 0u) +
                    (size_b > w_b ? 1u : 0u)];
  }

 private:
  std::array<uint8_t, 129> id_of_;  // [128]: inconsistent input, id 0
  std::array<uint8_t, 12> open_id_;
};

/// Human-readable pattern of a motif id, e.g. "d=110 p=100 t=1".
std::string MotifToString(int id);

}  // namespace mochy

#endif  // MOCHY_MOTIF_PATTERN_H_
