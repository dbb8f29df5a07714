// Epoch-stamped scratch arrays for the counting hot paths.
//
// The MoCHy kernels repeatedly need "a map from a dense hyperedge id to a
// small value, emptied between hubs / samples". Hash probes pay
// a mix + probe chain per lookup and zero-clearing an |E|-sized array per
// hub pays O(|E|); an epoch-stamped array gives O(1) true-random-access
// reads and O(1) logical clears: each slot stores the epoch it was written
// in, and bumping the epoch invalidates every slot at once. Slots are only
// physically zeroed when the 32-bit epoch wraps (once per ~4.3e9 clears).
//
// ScratchArena bundles the stamped structures the kernels share and
// LocalScratchArena() hands every pool worker a persistent thread-local
// instance, so batch items and repeated Count() calls reuse the same
// allocations instead of reallocating |E|-sized vectors per run.
#ifndef MOCHY_COMMON_SCRATCH_ARENA_H_
#define MOCHY_COMMON_SCRATCH_ARENA_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace mochy {

/// Dense id -> uint32 weight map with O(1) epoch clears. Each slot packs
/// (epoch << 32 | weight) into one uint64 so a probe costs a single load:
/// the stamp comparison and the value come from the same cache line.
class StampedWeights {
 public:
  /// Grows to at least `n` slots; never shrinks, existing stamps survive.
  void EnsureSize(size_t n) {
    if (slots_.size() < n) slots_.resize(n, 0);
  }

  size_t size() const { return slots_.size(); }

  /// Logically clears every slot. O(1) except on 32-bit epoch wraparound.
  void NewEpoch() {
    if (++epoch_ == 0) {
      std::fill(slots_.begin(), slots_.end(), uint64_t{0});
      epoch_ = 1;
    }
  }

  /// Sets slot `i` in the current epoch.
  void Set(size_t i, uint32_t value) {
    slots_[i] = (static_cast<uint64_t>(epoch_) << 32) | value;
  }

  /// Value of slot `i`, or 0 when it was not written this epoch.
  uint32_t Get(size_t i) const {
    const uint64_t slot = slots_[i];
    return (slot >> 32) == epoch_ ? static_cast<uint32_t>(slot) : 0;
  }

  /// Whether slot `i` was written this epoch.
  bool Test(size_t i) const { return (slots_[i] >> 32) == epoch_; }

  /// Heap footprint in bytes.
  size_t MemoryBytes() const { return slots_.size() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> slots_;
  // Starts above the zero-initialized slot stamps so a fresh array reads
  // as empty even before the first NewEpoch().
  uint32_t epoch_ = 1;
};

/// Position masks over a prepared set of positions [0, n): each marked id
/// x gets a slot and a mask M_x of n bits, bit p set when x covers
/// position p. A mask is W = ⌈n/64⌉ words, so any n is exact. Slots are
/// dense from 1 in first-mark order; slot 0 is the all-zero mask, the slot
/// of every unmarked id. Then |covered(x)| = popcount(M_x) and
/// |covered(x) ∩ covered(y)| = popcount(M_x & M_y), in O(W) each. The
/// id -> slot map is epoch-stamped, so Reset() is O(W) whatever was
/// marked before.
class PositionMasks {
 public:
  /// Sizes the id -> slot map for ids < `n`; never shrinks.
  void EnsureIds(size_t n) { slot_of_.EnsureSize(n); }

  /// Forgets every mark and prepares masks of `num_positions` bits.
  void Reset(size_t num_positions) {
    words_per_mask_ = (num_positions + 63) / 64;
    slot_of_.NewEpoch();
    ids_.clear();
    if (words_.size() < words_per_mask_) words_.resize(words_per_mask_);
    std::fill_n(words_.begin(), words_per_mask_, uint64_t{0});  // slot 0
  }

  /// Sets bit `position` of each id's mask, giving an id a slot on its
  /// first mark.
  void Mark(std::span<const uint32_t> ids, size_t position) {
    // Locals, not members: a size_t member may alias the mask words, so
    // the compiler would reload it after every store.
    const size_t width = words_per_mask_;
    const size_t word = position / 64;
    const uint64_t bit = uint64_t{1} << (position % 64);
    for (const uint32_t x : ids) {
      uint32_t slot = slot_of_.Get(x);
      if (slot == 0) slot = NewSlot(x, width);
      words_[slot * width + word] |= bit;
    }
  }

  /// Slot of id `x`, 0 when x was not marked since Reset().
  uint32_t slot(uint32_t x) const { return slot_of_.Get(x); }

  /// Number of marked ids; their slots are [1, num_slots()].
  size_t num_slots() const { return ids_.size(); }

  /// The id holding `slot` (1-based).
  uint32_t id(uint32_t slot) const { return ids_[slot - 1]; }

  /// popcount(M_slot): positions the slot's id covers.
  uint64_t count(uint32_t slot) const {
    // One word (|e| ≤ 64) is the common case; skipping the loop made the
    // samplers 6-12% faster (email generator, 4-vCPU x86-64 VM).
    if (words_per_mask_ == 1) return PopCount(words_[slot]);
    uint64_t total = 0;
    for (size_t w = 0; w < words_per_mask_; ++w) {
      total += PopCount(words_[slot * words_per_mask_ + w]);
    }
    return total;
  }

  /// popcount(M_a & M_b): positions both slots' ids cover.
  uint64_t shared(uint32_t a, uint32_t b) const {
    if (words_per_mask_ == 1) return PopCount(words_[a] & words_[b]);
    uint64_t total = 0;
    for (size_t w = 0; w < words_per_mask_; ++w) {
      total += PopCount(words_[a * words_per_mask_ + w] &
                        words_[b * words_per_mask_ + w]);
    }
    return total;
  }

 private:
  /// Bit count without a libgcc call: builds without -mpopcnt otherwise
  /// turn std::popcount into one, which made the samplers 5-7% slower
  /// (email generator, 4-vCPU x86-64 VM).
  static uint64_t PopCount(uint64_t x) {
#if defined(__POPCNT__)
    return static_cast<uint64_t>(std::popcount(x));
#else
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (x * 0x0101010101010101ULL) >> 56;
#endif
  }

  /// Gives `x` the next slot, with a zeroed mask of `width` words. Mask
  /// storage keeps its size across Reset() (it grows only past the
  /// largest hub so far), so a slot's words may hold an earlier hub's bits
  /// until assigned here.
  uint32_t NewSlot(uint32_t x, size_t width) {
    ids_.push_back(x);
    const uint32_t slot = static_cast<uint32_t>(ids_.size());
    slot_of_.Set(x, slot);
    const size_t end = (slot + size_t{1}) * width;
    if (words_.size() < end) words_.resize(end);
    std::fill_n(words_.begin() + slot * width, width, uint64_t{0});
    return slot;
  }

  StampedWeights slot_of_;      // id -> slot, unset = 0
  std::vector<uint32_t> ids_;   // slot - 1 -> id
  std::vector<uint64_t> words_;  // slot * W + w -> mask word, W = width
  size_t words_per_mask_ = 0;
};

/// The per-thread scratch the counting kernels share. One arena serves any
/// number of graphs: EnsureEdges() only ever grows the arrays, and epochs
/// make stale contents from a previous graph invisible. Obtain it through
/// LocalScratchArena() inside a worker; never share one across threads.
struct ScratchArena {
  /// w(e_x, ·) scatter target (MoCHy-E pair loop, streaming delta).
  StampedWeights edge_weight;
  /// Hub position masks over hyperedge ids: the hyperedges adjacent to
  /// the prepared hub, by the hub positions they share
  /// (motif/stamp_kernels.h PrepareHubMasks).
  PositionMasks hub_masks;

  /// Sizes every edge-indexed structure for `m` hyperedges.
  void EnsureEdges(size_t m) {
    edge_weight.EnsureSize(m);
    hub_masks.EnsureIds(m);
  }

};

/// The calling thread's persistent arena. Pool workers live for the whole
/// process, so across engine runs and batch items each worker keeps — and
/// reuses — one grown-to-fit arena; no per-run allocation. The arena is
/// plain scratch: callers must Ensure*() capacity and must not assume any
/// contents across calls.
ScratchArena& LocalScratchArena();

}  // namespace mochy

#endif  // MOCHY_COMMON_SCRATCH_ARENA_H_
