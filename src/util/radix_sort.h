// LSD radix sort of unsigned integer keys with 8-bit digits.
//
// Sorting a few thousand 32-bit ids this way costs a counting read plus one
// stable scatter per significant byte — about a tenth of a comparison sort
// at the sizes PPR answer assembly sees (docs/SERVING.md §3). The pass count
// is the byte width of the largest key the caller can hold, so ids below
// 2^16 take two passes however many keys there are. Keys equal under the
// sort are indistinguishable, so the result is exactly std::sort's.
#ifndef SRC_UTIL_RADIX_SORT_H_
#define SRC_UTIL_RADIX_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace knightking {

// Sorts `keys` ascending. Every key must be <= `max_key`. `scratch` is the
// ping-pong buffer: its contents are clobbered and, after an odd number of
// passes, it trades buffers with `keys` instead of being copied back, so a
// caller that keeps one scratch vector alive stops allocating once both
// buffers have reached the largest size it sorts.
template <typename Key>
void RadixSort(std::vector<Key>& keys, std::vector<Key>& scratch, Key max_key) {
  static_assert(std::is_unsigned_v<Key>, "radix sort orders unsigned keys");
  constexpr size_t kDigits = 256;
  size_t passes = 0;
  for (Key rest = max_key; rest != 0; rest >>= 8) {
    ++passes;
  }
  const size_t n = keys.size();
  if (passes == 0 || n < 2) {
    return;
  }
  // One read fills every pass's digit histogram.
  std::array<std::array<size_t, kDigits>, sizeof(Key)> counts{};
  for (Key k : keys) {
    KK_DCHECK(k <= max_key);
    for (size_t p = 0; p < passes; ++p) {
      counts[p][(k >> (8 * p)) & 0xff] += 1;
    }
  }
  scratch.resize(n);
  for (size_t p = 0; p < passes; ++p) {
    std::array<size_t, kDigits>& next = counts[p];
    size_t offset = 0;
    for (size_t& c : next) {
      offset += std::exchange(c, offset);
    }
    const unsigned shift = static_cast<unsigned>(8 * p);
    for (Key k : keys) {
      scratch[next[(k >> shift) & 0xff]++] = k;
    }
    keys.swap(scratch);
  }
}

}  // namespace knightking

#endif  // SRC_UTIL_RADIX_SORT_H_
