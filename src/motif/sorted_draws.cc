#include "motif/sorted_draws.h"

#include <array>
#include <bit>
#include <utility>

#include "common/logging.h"

namespace mochy::internal {

std::span<uint64_t> RadixSortDraws(std::span<uint64_t> keys,
                                   std::span<uint64_t> scratch,
                                   uint64_t population) {
  MOCHY_CHECK(scratch.size() == keys.size());
  const size_t n = keys.size();
  const int bits =
      population <= 1 ? 0 : static_cast<int>(std::bit_width(population - 1));
  const int bytes = n == 0 ? 0 : (bits + 7) / 8;
  // Every byte's histogram in one read pass.
  std::array<std::array<uint32_t, 256>, 8> histogram{};
  for (const uint64_t key : keys) {
    MOCHY_DCHECK(key < population);
    for (int b = 0; b < bytes; ++b) ++histogram[b][(key >> (8 * b)) & 0xff];
  }
  std::span<uint64_t> from = keys;
  std::span<uint64_t> to = scratch;
  for (int b = 0; b < bytes; ++b) {
    std::array<uint32_t, 256>& count = histogram[b];
    const int shift = 8 * b;
    // A byte every key shares leaves the order as it is.
    if (count[(from[0] >> shift) & 0xff] == n) continue;
    uint32_t offset = 0;
    for (uint32_t& c : count) offset += std::exchange(c, offset);
    for (const uint64_t key : from) to[count[(key >> shift) & 0xff]++] = key;
    std::swap(from, to);
  }
  return from;
}

size_t GroupRuns(std::span<const uint64_t> sorted, std::span<uint64_t> keys,
                 std::span<uint64_t> times) {
  if (sorted.empty()) return 0;
  // Run i is written after sorted[i] has been read, so `sorted` may alias
  // either output.
  size_t runs = 0;
  uint64_t key = sorted[0];
  uint64_t length = 1;
  for (size_t s = 1; s < sorted.size(); ++s) {
    if (sorted[s] == key) {
      ++length;
      continue;
    }
    keys[runs] = key;
    times[runs] = length;
    ++runs;
    key = sorted[s];
    length = 1;
  }
  keys[runs] = key;
  times[runs] = length;
  return runs + 1;
}

}  // namespace mochy::internal
