#include "motif/pattern.h"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "common/logging.h"

namespace mochy {

namespace {

// The 6 permutations of the roles (a, b, c); perm[x] = original edge that
// plays role x.
constexpr int kPermutations[6][3] = {
    {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
};

// Index of the unordered-pair region for roles (x, y):
// (0,1)->p_ab, (1,2)->p_bc, (2,0)->p_ca.
constexpr int kPairIndex[3][3] = {
    {-1, 0, 2},
    {0, -1, 1},
    {2, 1, -1},
};

inline bool Bit(PatternBits bits, int i) { return (bits >> i) & 1; }

// Emptiness helpers in role space.
inline bool EdgeNonEmpty(PatternBits bits, int x) {
  // Edge x = d_x ∪ p_xy ∪ p_xz ∪ t for the two other roles y, z.
  const int y = (x + 1) % 3, z = (x + 2) % 3;
  return Bit(bits, x) || Bit(bits, 3 + kPairIndex[x][y]) ||
         Bit(bits, 3 + kPairIndex[x][z]) || Bit(bits, 6);
}

inline bool EdgesEqual(PatternBits bits, int x, int y) {
  // x == y iff x\y = ∅ and y\x = ∅, where x\y = d_x ∪ p_xz (z the third).
  const int z = 3 - x - y;
  const bool x_minus_y = Bit(bits, x) || Bit(bits, 3 + kPairIndex[x][z]);
  const bool y_minus_x = Bit(bits, y) || Bit(bits, 3 + kPairIndex[y][z]);
  return !x_minus_y && !y_minus_x;
}

inline bool PairAdjacent(PatternBits bits, int x, int y) {
  // x ∩ y ≠ ∅ iff p_xy or t is non-empty.
  return Bit(bits, 3 + kPairIndex[x][y]) || Bit(bits, 6);
}

struct MotifTable {
  // id_of[bits] in [1,26] for valid patterns, else 0.
  std::array<int, 128> id_of{};
  // representative[id-1] = canonical pattern of the motif.
  std::array<PatternBits, kNumHMotifs> representative{};
};

MotifTable BuildTable() {
  MotifTable table;
  std::vector<PatternBits> canon_t1, canon_open, canon_triangle;
  for (int raw = 0; raw < 128; ++raw) {
    const PatternBits bits = static_cast<PatternBits>(raw);
    if (!IsValidPattern(bits)) continue;
    const PatternBits canon = CanonicalPattern(bits);
    if (canon != bits) continue;  // collect each class once
    int adjacent_pairs = 0;
    for (int x = 0; x < 3; ++x) {
      for (int y = x + 1; y < 3; ++y) {
        if (PairAdjacent(bits, x, y)) ++adjacent_pairs;
      }
    }
    if (Bit(bits, 6)) {
      canon_t1.push_back(bits);
    } else if (adjacent_pairs == 2) {
      canon_open.push_back(bits);
    } else {
      canon_triangle.push_back(bits);
    }
  }
  MOCHY_CHECK(canon_t1.size() == 16) << "expected 16 t=1 closed motifs, got "
                                     << canon_t1.size();
  MOCHY_CHECK(canon_open.size() == 6)
      << "expected 6 open motifs, got " << canon_open.size();
  MOCHY_CHECK(canon_triangle.size() == 4)
      << "expected 4 t=0 closed motifs, got " << canon_triangle.size();

  // ids 1-16: closed with common core, ordered by (#non-empty regions,
  // canonical code); this puts the all-regions-non-empty motif at 16.
  std::sort(canon_t1.begin(), canon_t1.end(),
            [](PatternBits lhs, PatternBits rhs) {
              const int pl = std::popcount(static_cast<unsigned>(lhs));
              const int pr = std::popcount(static_cast<unsigned>(rhs));
              if (pl != pr) return pl < pr;
              return lhs < rhs;
            });

  // ids 17-22: open motifs ordered by (#private regions of the two
  // disjoint edges, then hub private region), so "hyperedge plus two
  // disjoint subsets" come first (17, 18) and the generic open motif is 22.
  auto open_key = [](PatternBits bits) {
    int hub = -1;
    for (int x = 0; x < 3; ++x) {
      const int y = (x + 1) % 3, z = (x + 2) % 3;
      if (PairAdjacent(bits, x, y) && PairAdjacent(bits, x, z)) hub = x;
    }
    MOCHY_CHECK(hub >= 0);
    const int y = (hub + 1) % 3, z = (hub + 2) % 3;
    const int leaf_private = (Bit(bits, y) ? 1 : 0) + (Bit(bits, z) ? 1 : 0);
    const int hub_private = Bit(bits, hub) ? 1 : 0;
    return leaf_private * 2 + hub_private;
  };
  std::sort(canon_open.begin(), canon_open.end(),
            [&](PatternBits lhs, PatternBits rhs) {
              return open_key(lhs) < open_key(rhs);
            });

  // ids 23-26: triangles without a core, ordered by #private regions.
  std::sort(canon_triangle.begin(), canon_triangle.end(),
            [](PatternBits lhs, PatternBits rhs) {
              const int dl = std::popcount(static_cast<unsigned>(lhs & 7));
              const int dr = std::popcount(static_cast<unsigned>(rhs & 7));
              if (dl != dr) return dl < dr;
              return lhs < rhs;
            });

  int id = 1;
  auto assign = [&](const std::vector<PatternBits>& group) {
    for (PatternBits canon : group) {
      table.representative[id - 1] = canon;
      ++id;
    }
  };
  assign(canon_t1);
  assign(canon_open);
  assign(canon_triangle);
  MOCHY_CHECK(id == kNumHMotifs + 1);

  // Fill the id lookup for all (valid) raw patterns.
  for (int raw = 0; raw < 128; ++raw) {
    const PatternBits bits = static_cast<PatternBits>(raw);
    if (!IsValidPattern(bits)) {
      table.id_of[raw] = 0;
      continue;
    }
    const PatternBits canon = CanonicalPattern(bits);
    for (int i = 0; i < kNumHMotifs; ++i) {
      if (table.representative[i] == canon) {
        table.id_of[raw] = i + 1;
        break;
      }
    }
    MOCHY_CHECK(table.id_of[raw] != 0);
  }
  return table;
}

const MotifTable& GetTable() {
  static const MotifTable table = BuildTable();
  return table;
}

}  // namespace

PatternBits PermutePattern(PatternBits bits, const int perm[3]) {
  PatternBits out = 0;
  for (int x = 0; x < 3; ++x) {
    if (Bit(bits, perm[x])) out |= static_cast<PatternBits>(1 << x);
  }
  for (int x = 0; x < 3; ++x) {
    for (int y = x + 1; y < 3; ++y) {
      const int original = kPairIndex[perm[x]][perm[y]];
      if (Bit(bits, 3 + original)) {
        out |= static_cast<PatternBits>(1 << (3 + kPairIndex[x][y]));
      }
    }
  }
  if (Bit(bits, 6)) out |= kPatternT;
  return out;
}

PatternBits CanonicalPattern(PatternBits bits) {
  PatternBits best = PermutePattern(bits, kPermutations[0]);
  for (int p = 1; p < 6; ++p) {
    best = std::min(best, PermutePattern(bits, kPermutations[p]));
  }
  return best;
}

bool IsValidPattern(PatternBits bits) {
  if (bits >= 128) return false;
  for (int x = 0; x < 3; ++x) {
    if (!EdgeNonEmpty(bits, x)) return false;
  }
  for (int x = 0; x < 3; ++x) {
    for (int y = x + 1; y < 3; ++y) {
      if (EdgesEqual(bits, x, y)) return false;
    }
  }
  int adjacent_pairs = 0;
  for (int x = 0; x < 3; ++x) {
    for (int y = x + 1; y < 3; ++y) {
      if (PairAdjacent(bits, x, y)) ++adjacent_pairs;
    }
  }
  return adjacent_pairs >= 2;
}

int MotifIdFromPattern(PatternBits bits) {
  if (bits >= 128) return 0;
  return GetTable().id_of[bits];
}

PatternBits MotifPattern(int id) {
  MOCHY_CHECK(id >= 1 && id <= kNumHMotifs);
  return GetTable().representative[id - 1];
}

bool IsOpenMotif(int id) {
  return id >= kFirstOpenMotif && id < kFirstOpenMotif + kNumOpenMotifs;
}

int ClassifyMotifOrZero(uint64_t size_a, uint64_t size_b, uint64_t size_c,
                        uint64_t w_ab, uint64_t w_bc, uint64_t w_ca,
                        uint64_t w_abc) {
  // Lemma 2's inclusion-exclusion; inconsistent inputs map to 128, id 0.
  return MotifIdFromPattern(static_cast<PatternBits>(
      internal::RegionPattern(size_a, size_b, size_c, w_ab, w_bc, w_ca, w_abc)));
}

MotifClassifier::MotifClassifier() {
  for (int bits = 0; bits < 128; ++bits) {
    id_of_[bits] =
        static_cast<uint8_t>(MotifIdFromPattern(static_cast<PatternBits>(bits)));
  }
  id_of_[128] = 0;
  // One representative per table entry: w_a = w_b = 1, |hub| = 3, 2 or 1
  // for a non-empty, empty or "negative" hub remainder, |a| = 1 + private.
  for (unsigned hub = 0; hub < 3; ++hub) {
    for (unsigned a = 0; a < 2; ++a) {
      for (unsigned b = 0; b < 2; ++b) {
        const uint64_t size_hub = hub == 0 ? 2 : hub == 1 ? 3 : 1;
        open_id_[hub * 4 + a * 2 + b] =
            static_cast<uint8_t>((*this)(size_hub, 1 + a, 1 + b, 1, 0, 1, 0));
      }
    }
  }
}

int ClassifyMotif(uint64_t size_a, uint64_t size_b, uint64_t size_c,
                  uint64_t w_ab, uint64_t w_bc, uint64_t w_ca,
                  uint64_t w_abc) {
  const int id =
      ClassifyMotifOrZero(size_a, size_b, size_c, w_ab, w_bc, w_ca, w_abc);
  MOCHY_DCHECK(id != 0) << "invalid instance cardinalities";
  return id;
}

std::string MotifToString(int id) {
  const PatternBits bits = MotifPattern(id);
  std::string out = "d=";
  for (int i = 0; i < 3; ++i) out.push_back(Bit(bits, i) ? '1' : '0');
  out += " p=";
  for (int i = 3; i < 6; ++i) out.push_back(Bit(bits, i) ? '1' : '0');
  out += " t=";
  out.push_back(Bit(bits, 6) ? '1' : '0');
  out += IsOpenMotif(id) ? " (open)" : " (closed)";
  return out;
}

}  // namespace mochy
