// Epoch-stamped scratch arrays for the counting hot paths.
//
// The MoCHy kernels repeatedly need "a map from a dense id (hyperedge or
// node) to a small value, emptied between hubs / samples". Hash probes pay
// a mix + probe chain per lookup and zero-clearing an |E|-sized array per
// hub pays O(|E|); an epoch-stamped array gives O(1) true-random-access
// reads and O(1) logical clears: each slot stores the epoch it was written
// in, and bumping the epoch invalidates every slot at once. Slots are only
// physically zeroed when the 32-bit epoch wraps (once per ~4.3e9 clears).
//
// ScratchArena bundles the four stamped structures the kernels share and
// LocalScratchArena() hands every pool worker a persistent thread-local
// instance, so batch items and repeated Count() calls reuse the same
// allocations instead of reallocating |E|-sized vectors per run.
#ifndef MOCHY_COMMON_SCRATCH_ARENA_H_
#define MOCHY_COMMON_SCRATCH_ARENA_H_

#include <algorithm>
#include <cstdint>
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

/// Dense id set (membership only) with O(1) epoch clears.
class StampedSet {
 public:
  /// Grows to at least `n` slots; never shrinks.
  void EnsureSize(size_t n) {
    if (stamps_.size() < n) stamps_.resize(n, 0);
  }

  size_t size() const { return stamps_.size(); }

  /// Logically empties the set. O(1) except on 32-bit epoch wraparound.
  void NewEpoch() {
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), uint32_t{0});
      epoch_ = 1;
    }
  }

  /// Inserts id `i`.
  void Insert(size_t i) { stamps_[i] = epoch_; }

  /// Whether id `i` is in the set this epoch.
  bool Test(size_t i) const { return stamps_[i] == epoch_; }

  /// Heap footprint in bytes.
  size_t MemoryBytes() const { return stamps_.size() * sizeof(uint32_t); }

 private:
  std::vector<uint32_t> stamps_;
  // Starts above the zero-initialized stamps so a fresh set reads as
  // empty even before the first NewEpoch().
  uint32_t epoch_ = 1;
};

/// The per-thread scratch the counting kernels share. One arena serves any
/// number of graphs: Ensure*() only ever grows the arrays, and epochs make
/// stale contents from a previous graph invisible. Obtain it through
/// LocalScratchArena() inside a worker; never share one across threads.
struct ScratchArena {
  /// w(e_x, ·) scatter target (MoCHy-E pair loop, sampler stamp arrays).
  StampedWeights edge_weight;
  /// Second edge-indexed array for kernels that stamp two neighborhoods
  /// at once (the samplers' N(e_i) membership + weights), or a pair's
  /// triple intersections next to w(e_i, ·) (MoCHy-E's closed triples).
  StampedWeights edge_weight2;
  /// Node membership of the current hub / sampled hyperedge e_i.
  StampedSet node_hub;
  /// Node membership of e_i ∩ e_j for the current pair (triple kernel).
  StampedSet node_pair;

  /// Sizes every edge-indexed structure for `m` hyperedges.
  void EnsureEdges(size_t m) {
    edge_weight.EnsureSize(m);
    edge_weight2.EnsureSize(m);
  }

  /// Sizes every node-indexed structure for `n` nodes.
  void EnsureNodes(size_t n) {
    node_hub.EnsureSize(n);
    node_pair.EnsureSize(n);
  }

  /// Total heap footprint in bytes.
  size_t MemoryBytes() const {
    return edge_weight.MemoryBytes() + edge_weight2.MemoryBytes() +
           node_hub.MemoryBytes() + node_pair.MemoryBytes();
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
