// Pure helpers of the kkbench harness: exact percentiles from raw samples,
// the capacity rate ladder, output digests and /proc/stat parsing. Kept free
// of engine headers so kkbench_helpers_test can cover them in isolation.
#ifndef KKBENCH_HELPERS_H_
#define KKBENCH_HELPERS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace kkbench {

// Nearest-rank percentile of raw samples: the smallest sample with at least
// q * n samples at or below it. q in (0, 1]. Never interpolates and never
// bins, so the value is always one that was measured. 0 on no samples.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const size_t n = samples.size();
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Median(const std::vector<double>& samples) { return Percentile(samples, 0.5); }

// The highest percentile level that still leaves `min_beyond` samples above
// it, e.g. 0.998 for 5000 samples. 0 when there are too few samples for any.
inline double HighestResolvableLevel(size_t n, size_t min_beyond = 10) {
  if (n <= min_beyond) {
    return 0.0;
  }
  return static_cast<double>(n - min_beyond) / static_cast<double>(n);
}

// Geometric offered-rate ladder lo, lo*(1+step), ... up to hi. The step is a
// fraction and must be finer than the regression bound on capacity, so that
// a regression larger than the bound always moves the result a rung.
inline std::vector<double> RateLadder(double lo, double hi, double step) {
  std::vector<double> ladder;
  if (!(lo > 0.0) || !(step > 0.0)) {
    return ladder;
  }
  for (double r = lo; r <= hi * (1.0 + 1e-12); r *= 1.0 + step) {
    ladder.push_back(r);
  }
  return ladder;
}

// Index of the highest rung at which `passes(rate)` holds, assuming passing
// is monotone (a rung passes only if every lower rung would). Binary search:
// O(log n) probes. -1 when even the lowest rung fails.
template <typename Probe>
int HighestPassingRung(const std::vector<double>& ladder, Probe&& passes) {
  int lo = 0;
  int hi = static_cast<int>(ladder.size()) - 1;
  int best = -1;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(ladder[static_cast<size_t>(mid)])) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

// FNV-1a over bytes: order-sensitive, platform-independent for the
// fixed-width integers and strings fed to it.
class Digest {
 public:
  void AddBytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void AddU64(uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    AddBytes(bytes, sizeof(bytes));
  }
  void AddString(std::string_view s) {
    AddU64(s.size());
    AddBytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Aggregate CPU jiffies from the first ("cpu ") line of /proc/stat.
struct CpuJiffies {
  uint64_t total = 0;  // user + nice + system + idle + iowait + irq + softirq + steal
  uint64_t steal = 0;
  bool ok = false;
};

inline CpuJiffies ParseProcStatCpuLine(std::string_view line) {
  CpuJiffies j;
  if (line.substr(0, 4) != "cpu ") {
    return j;
  }
  std::istringstream in{std::string(line.substr(4))};
  uint64_t field[8] = {};
  for (uint64_t& f : field) {
    if (!(in >> f)) {
      return j;
    }
  }
  for (uint64_t f : field) {
    j.total += f;
  }
  j.steal = field[7];
  j.ok = true;
  return j;
}

// Share of host CPU time stolen by the hypervisor between two readings.
inline double StealShare(const CpuJiffies& before, const CpuJiffies& after) {
  if (!before.ok || !after.ok || after.total <= before.total) {
    return 0.0;
  }
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

}  // namespace kkbench

#endif  // KKBENCH_HELPERS_H_
