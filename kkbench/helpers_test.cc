// Tests of kkbench's own helpers: percentiles, the capacity rate ladder,
// output digests and /proc/stat parsing. Self-contained (no test framework)
// so the benchmark package builds with the toolchain alone.
#include <cmath>
#include <cstdio>
#include <vector>

#include "kkbench/helpers.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    failures += 1;
  }
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);  // unsorted input
  }
  Expect(kkbench::Percentile(v, 0.50) == 50.0, "p50 of 1..100 is 50");
  Expect(kkbench::Percentile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  Expect(kkbench::Percentile(v, 1.0) == 100.0, "p100 is the maximum");
  Expect(kkbench::Percentile(v, 0.001) == 1.0, "a tiny level is the minimum");
  Expect(kkbench::Percentile({}, 0.5) == 0.0, "no samples read 0");
  Expect(kkbench::Percentile({7.0}, 0.99) == 7.0, "one sample is every percentile");
  // Always a measured value: never interpolated between samples.
  Expect(kkbench::Percentile({1.0, 2.0}, 0.5) == 1.0, "p50 of two samples is the lower");
  Expect(kkbench::Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  // 134.2177 ms was a log2 bucket edge; raw samples never round to one.
  std::vector<double> lat = {100.1, 101.3, 99.7, 100.4};
  Expect(kkbench::Percentile(lat, 0.5) == 100.1, "percentile is a raw sample");
}

void TestResolvableLevel() {
  Expect(kkbench::HighestResolvableLevel(10) == 0.0, "10 samples resolve nothing");
  Expect(std::abs(kkbench::HighestResolvableLevel(1000) - 0.99) < 1e-12,
         "1000 samples resolve p99");
  Expect(std::abs(kkbench::HighestResolvableLevel(5000) - 0.998) < 1e-12,
         "5000 samples resolve p99.8");
  // The level leaves exactly 10 samples above it.
  std::vector<double> v;
  for (int i = 1; i <= 500; ++i) {
    v.push_back(i);
  }
  const double level = kkbench::HighestResolvableLevel(v.size());
  Expect(kkbench::Percentile(v, level) == 490.0, "10 samples lie beyond the level");
}

void TestRateLadder() {
  const std::vector<double> ladder = kkbench::RateLadder(400.0, 6400.0, 0.04);
  Expect(!ladder.empty() && ladder.front() == 400.0, "ladder starts at lo");
  Expect(ladder.back() <= 6400.0 && ladder.back() * 1.04 > 6400.0, "ladder ends at hi");
  bool finer = true;
  for (size_t i = 1; i < ladder.size(); ++i) {
    const double step = ladder[i] / ladder[i - 1] - 1.0;
    finer = finer && step < 0.1 && std::abs(step - 0.04) < 1e-9;
  }
  Expect(finer, "every rung is 4% above the last, finer than a 10% bound");
  Expect(kkbench::RateLadder(0.0, 10.0, 0.1).empty(), "non-positive lo gives no ladder");

  // The search finds the highest passing rung of a monotone predicate.
  for (double cap : {350.0, 400.0, 1000.0, 1999.0, 7000.0}) {
    int probes = 0;
    const int rung = kkbench::HighestPassingRung(ladder, [&](double r) {
      probes += 1;
      return r <= cap;
    });
    int expect = -1;
    for (size_t i = 0; i < ladder.size(); ++i) {
      if (ladder[i] <= cap) {
        expect = static_cast<int>(i);
      }
    }
    Expect(rung == expect, "capacity search finds the highest passing rung");
    Expect(probes <= 8, "capacity search is logarithmic");
  }
}

void TestDigest() {
  kkbench::Digest a, b, c;
  a.AddU64(1);
  a.AddU64(2);
  b.AddU64(1);
  b.AddU64(2);
  c.AddU64(2);
  c.AddU64(1);
  Expect(a.value() == b.value(), "equal input gives equal digest");
  Expect(a.value() != c.value(), "digest is order-sensitive");
  kkbench::Digest s1, s2;
  s1.AddString("ab");
  s1.AddString("c");
  s2.AddString("a");
  s2.AddString("bc");
  Expect(s1.value() != s2.value(), "string boundaries are part of the digest");
  kkbench::Digest empty;
  Expect(empty.Hex() == "cbf29ce484222325", "empty digest is the FNV-1a offset basis");
  Expect(a.Hex().size() == 16, "hex digest has 16 digits");
}

void TestProcStat() {
  const auto before = kkbench::ParseProcStatCpuLine("cpu  100 0 50 800 10 0 5 35 0 0");
  const auto after = kkbench::ParseProcStatCpuLine("cpu  200 0 70 1600 10 0 5 115 0 0");
  Expect(before.ok && before.total == 1000 && before.steal == 35, "parses the cpu line");
  Expect(std::abs(kkbench::StealShare(before, after) - 0.08) < 1e-12, "steal share 80/1000");
  Expect(!kkbench::ParseProcStatCpuLine("cpu0 1 2 3").ok, "per-CPU lines are rejected");
  Expect(kkbench::StealShare(after, before) == 0.0, "a backwards reading is no steal");
}

}  // namespace

int main() {
  TestPercentile();
  TestResolvableLevel();
  TestRateLadder();
  TestDigest();
  TestProcStat();
  if (failures == 0) {
    std::printf("kkbench helpers: all tests passed\n");
  }
  return failures == 0 ? 0 : 1;
}
