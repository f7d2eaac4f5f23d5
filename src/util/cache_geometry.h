// Cache-geometry detection and the locality constants.
//
// The engine's locality pass (docs/PERFORMANCE.md §4) groups each active
// walker batch by vertex range; kAuto decides whether a batch is worth
// grouping by comparing its estimated touched bytes against the detected L2.
// This header is the single sanctioned home for cache-flavored magic
// numbers: kk-lint rule KK011 flags hardcoded bucket counts, prefetch
// distances, and cache sizes anywhere else under src/, so tuning lives in
// one reviewable place.
//
// Detection reads the Linux sysfs cache topology (cpu0's index* directories).
// On kernels or platforms without it, `CacheGeometry::Fallback()` supplies
// conservative defaults; `detected` records which path was taken so tests and
// metrics can tell the difference. Detection takes the sysfs root as a
// parameter so tests can point it at a synthetic tree (or a nonexistent one).
#ifndef SRC_UTIL_CACHE_GEOMETRY_H_
#define SRC_UTIL_CACHE_GEOMETRY_H_

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

namespace knightking {

// Conservative fallback geometry for unknown hardware: a small, ubiquitous
// configuration so the kAuto estimate never overshoots a real cache.
inline constexpr uint64_t kFallbackL1dBytes = 32ull * 1024;
inline constexpr uint64_t kFallbackL2Bytes = 512ull * 1024;
inline constexpr uint64_t kFallbackLlcBytes = 8ull * 1024 * 1024;
inline constexpr uint64_t kCacheLineBytes = 64;

// kAuto groups a batch once its estimated touched bytes exceed this fraction
// of L2 (the other half is left for scratch and the sampler's transient
// reads).
inline constexpr uint64_t kBucketCacheShareDiv = 2;

// Fixed vertex-range bucket count of the locality pass's counting sort.
inline constexpr uint32_t kSortBuckets = 256;

// Batches smaller than this are never worth grouping regardless of the
// touched-bytes estimate: the sort pass itself would dominate.
inline constexpr size_t kMinSortBatch = 64;

struct CacheGeometry {
  uint64_t l1d_bytes = kFallbackL1dBytes;
  uint64_t l2_bytes = kFallbackL2Bytes;
  uint64_t llc_bytes = kFallbackLlcBytes;
  uint64_t line_bytes = kCacheLineBytes;
  bool detected = false;

  static CacheGeometry Fallback() { return CacheGeometry{}; }

  // Reads cpu0's cache hierarchy from `cpu_root` (default the live sysfs
  // tree). Unified caches count as data caches; the deepest level seen
  // becomes the LLC. Any parse failure falls back wholesale rather than
  // mixing detected and default levels.
  static CacheGeometry Detect(const std::string& cpu_root = "/sys/devices/system/cpu") {
    CacheGeometry geo = Fallback();
    bool saw_l1 = false, saw_deeper = false;
    uint64_t deepest_level = 0;
    uint64_t deepest_bytes = 0;
    uint64_t l2 = 0;
    for (int index = 0; index < 16; ++index) {
      const std::string dir = cpu_root + "/cpu0/cache/index" + std::to_string(index);
      std::string type = ReadString(dir + "/type");
      if (type.empty()) {
        break;  // indices are contiguous; first miss ends the scan
      }
      if (type != "Data" && type != "Unified") {
        continue;
      }
      uint64_t level = 0, bytes = 0;
      if (!ParseNumber(ReadString(dir + "/level"), &level) ||
          !ParseSize(ReadString(dir + "/size"), &bytes) || bytes == 0) {
        return Fallback();
      }
      if (level == 1) {
        geo.l1d_bytes = bytes;
        saw_l1 = true;
      } else {
        if (level == 2) {
          l2 = bytes;
        }
        if (level > deepest_level) {
          deepest_level = level;
          deepest_bytes = bytes;
        }
        saw_deeper = true;
      }
      uint64_t line = 0;
      if (ParseNumber(ReadString(dir + "/coherency_line_size"), &line) && line > 0) {
        geo.line_bytes = line;
      }
    }
    if (!saw_l1 || !saw_deeper) {
      return Fallback();
    }
    geo.l2_bytes = l2 > 0 ? l2 : deepest_bytes;
    geo.llc_bytes = std::max(deepest_bytes, geo.l2_bytes);
    geo.detected = true;
    return geo;
  }

 private:
  static std::string ReadString(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      return "";
    }
    std::string value;
    std::getline(in, value);
    while (!value.empty() && (value.back() == '\r' || value.back() == ' ')) {
      value.pop_back();
    }
    return value;
  }

  static bool ParseNumber(const std::string& text, uint64_t* out) {
    if (text.empty()) {
      return false;
    }
    uint64_t value = 0;
    std::istringstream in(text);
    if (!(in >> value)) {
      return false;
    }
    *out = value;
    return true;
  }

  // sysfs sizes read "32K" / "2048K" / "1M"; a bare number means bytes.
  static bool ParseSize(const std::string& text, uint64_t* out) {
    if (text.empty()) {
      return false;
    }
    uint64_t value = 0;
    size_t pos = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      value = value * 10 + static_cast<uint64_t>(text[pos] - '0');
      ++pos;
    }
    if (pos == 0) {
      return false;
    }
    uint64_t scale = 1;
    if (pos < text.size()) {
      switch (text[pos]) {
        case 'K':
        case 'k':
          scale = 1024;
          break;
        case 'M':
        case 'm':
          scale = 1024 * 1024;
          break;
        case 'G':
        case 'g':
          scale = 1024ull * 1024 * 1024;
          break;
        default:
          return false;
      }
    }
    *out = value * scale;
    return true;
  }
};

}  // namespace knightking

#endif  // SRC_UTIL_CACHE_GEOMETRY_H_
