// Log-linear latency histogram for the serving layer.
//
// HDR-style fixed layout (nanoseconds, the full uint64 range): values below
// 16 get one exact bucket each, and every power of two [2^e, 2^(e+1)) above
// that splits into 16 equal-width linear sub-buckets of width 2^(e-4). A
// bucket's width is therefore at most 1/16 of any value it holds. The fixed
// layout keeps Record() allocation-free and O(1), and makes two histograms
// over the same samples byte-identical regardless of arrival order —
// percentiles are a pure function of the recorded multiset, which the
// serving determinism tests rely on. Percentile() answers with the midpoint
// of the bucket holding the requested nearest-rank sample, clamped to the
// observed [min, max]: within 1/32 of the exact sample percentile, and never
// a bucket edge by construction.
#ifndef SRC_OBS_HISTOGRAM_H_
#define SRC_OBS_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace knightking {
namespace obs {

class LatencyHistogram {
 public:
  // Linear sub-buckets per power of two: 2^4 = 16 bounds the relative bucket
  // width by 1/16.
  static constexpr int kSubBits = 4;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBits;
  // The exact range [0, 16) plus 16 sub-buckets for each exponent 4..63.
  static constexpr size_t kNumBuckets = kSubBuckets * (64 - kSubBits + 1);

  // Bucket index of a value: the value itself below kSubBuckets, else the
  // exponent's row and the kSubBits bits below the leading one.
  static size_t BucketOf(uint64_t nanos) {
    if (nanos < kSubBuckets) {
      return static_cast<size_t>(nanos);
    }
    const int shift = static_cast<int>(std::bit_width(nanos)) - 1 - kSubBits;
    return static_cast<size_t>(shift + 1) * kSubBuckets +
           static_cast<size_t>((nanos >> shift) - kSubBuckets);
  }
  // Smallest value bucket b holds.
  static uint64_t BucketLower(size_t b) {
    if (b < kSubBuckets) {
      return b;
    }
    return (kSubBuckets + b % kSubBuckets) << (b / kSubBuckets - 1);
  }
  // Number of distinct values bucket b holds.
  static uint64_t BucketWidth(size_t b) {
    return b < kSubBuckets ? 1 : uint64_t{1} << (b / kSubBuckets - 1);
  }

  void Record(uint64_t nanos) {
    buckets_[BucketOf(nanos)] += 1;
    count_ += 1;
    sum_ += nanos;
    if (nanos < min_ || count_ == 1) {
      min_ = nanos;
    }
    if (nanos > max_) {
      max_ = nanos;
    }
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }

  double MeanNanos() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Value (in nanos) at quantile q in [0, 1]: the midpoint of the bucket
  // holding the ceil(q * count)-th smallest sample (nearest rank, at least
  // the first), clamped to the observed [min, max]. 0 when empty.
  uint64_t PercentileNanos(double q) const {
    if (count_ == 0) {
      return 0;
    }
    q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
    auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_) - 1e-9));
    rank = rank < 1 ? 1 : (rank > count_ ? count_ : rank);
    uint64_t seen = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      seen += buckets_[b];
      if (seen >= rank) {
        const uint64_t mid = BucketLower(b) + (BucketWidth(b) - 1) / 2;
        return mid < min_ ? min_ : (mid > max_ ? max_ : mid);
      }
    }
    return max_;
  }

  void Merge(const LatencyHistogram& other) {
    if (other.count_ == 0) {
      return;
    }
    for (size_t b = 0; b < buckets_.size(); ++b) {
      buckets_[b] += other.buckets_[b];
    }
    if (count_ == 0 || other.min_ < min_) {
      min_ = other.min_;
    }
    if (other.max_ > max_) {
      max_ = other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  void Reset() { *this = LatencyHistogram{}; }

  friend bool operator==(const LatencyHistogram&, const LatencyHistogram&) = default;

 private:
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace obs
}  // namespace knightking

#endif  // SRC_OBS_HISTOGRAM_H_
