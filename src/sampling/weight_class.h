// Bingo-style power-of-two weight-class sampling for mutable rows
// (docs/DYNAMIC_GRAPHS.md, "Weight-class sampler rows").
//
// A LazyAliasRow buckets a row's edges by floor(log2(weight)): class c holds
// weights in [2^(e_c), 2^(e_c+1)). Sampling picks a class by a CDF walk over
// at most kNumClasses running totals, then draws inside the class from a
// per-class alias table — exactly three RNG draws, no rejection loop.
//
// The point of the structure is the update cost: insert, delete and reweight
// each adjust one or two class summaries in O(1), with no row rebuild (a
// whole-row alias table would cost O(degree) per update). A class's alias
// table is built lazily, by the first sample that lands in it after the
// class last changed.
//
// Determinism: class totals are maintained incrementally in double. They
// drift from the exact sum as IEEE arithmetic does, but identically for any
// replay of the same mutation sequence — which is all the engine's
// byte-identical-recovery contract needs.
#ifndef SRC_SAMPLING_WEIGHT_CLASS_H_
#define SRC_SAMPLING_WEIGHT_CLASS_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "src/sampling/alias_table.h"
#include "src/util/check.h"
#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "src/util/types.h"

namespace knightking {

// Lazy per-class alias row: Bingo's radix bias factorization, the sampler
// behind every weighted dirty row. It does the minimum work each event
// actually needs:
//
//   * Build() is one O(degree) summary pass — per-class counts and weight
//     totals plus a per-edge class tag. No item lists, no alias tables.
//   * The first Sample() landing in a class materializes that class only:
//     its member list (ascending edge-index order) and a Vose alias table
//     over the member weights, O(degree) + O(bucket) once. Classes a walk
//     never touches are never built — the overlay counts these as
//     bucket_builds, distinct from full_builds.
//   * Sampling is a CDF walk over the live classes followed by one alias
//     draw: exactly three RNG draws, zero rejection attempts.
//   * Mutations stay O(1): they adjust the class summary and invalidate the
//     class's alias (and, when membership changes, its item list), which the
//     next sample rebuilds in O(bucket).
//
// Materialized state is always a pure function of the current (class, weight)
// assignment — item lists are kept in ascending index order and dropped
// whenever membership changes — so a crash-recovery replay that skips the
// sampling reproduces byte-identical draws once sampling resumes.
//
// Thread safety: mutators and Build are driver-only (between supersteps, no
// concurrent reader). Sample() runs on concurrent workers and may
// materialize a class: builds serialize on the row mutex and publish via a
// release-store on the per-class ready bitmask, which readers acquire-load
// before touching items/prob/alias lock-free.
class LazyAliasRow {
 public:
  // 64 classes covering weights in [2^-32, 2^32); out-of-range weights clamp
  // to the edge classes.
  static constexpr int kMinExp = -32;
  static constexpr int kNumClasses = 64;

  // O(degree) summary build — the first-touch path when a clean row gets its
  // first mutation. Counted by the overlay as a full build.
  void Build(std::span<const real_t> weights) {
    classes_.clear();
    class_of_.clear();
    weight_of_.clear();
    total_ = 0.0;
    max_bound_ = 0.0f;
    ready_.store(0, std::memory_order_relaxed);
    class_of_.reserve(weights.size());
    weight_of_.reserve(weights.size());
    for (real_t w : weights) {
      PushBack(w);
    }
  }

  // Appends the edge at local index size() with weight w. O(1) amortized
  // (plus a one-time sorted insert when w opens a new weight class).
  void PushBack(real_t w) {
    KK_CHECK_MSG(std::isfinite(w) && w >= 0.0f, "weight-class row rejects weight %f",
                 static_cast<double>(w));
    const uint32_t idx = size();
    const int8_t c = ClassOf(w);
    weight_of_.push_back(w);
    class_of_.push_back(c);
    if (c < 0) return;
    ClassBucket& cb = BucketFor(c);
    ++cb.count;
    cb.total += static_cast<double>(w);
    total_ += static_cast<double>(w);
    if (max_bound_ < w) max_bound_ = w;
    if (cb.has_items) {
      // The appended index is the row's largest, so pushing it keeps the
      // item list in ascending (scan) order; only the alias goes stale.
      cb.items.push_back(idx);
    }
    ClearReady(c);
  }

  // Mirrors the overlay row's swap-with-last delete of local index i. O(1).
  void SwapRemove(uint32_t i) {
    const uint32_t last = size() - 1;
    KK_DCHECK(i <= last);
    DetachAt(i);
    if (i != last) {
      class_of_[i] = class_of_[last];
      weight_of_[i] = weight_of_[last];
      // Index `last` renumbers to `i`: its class's item list (if built)
      // holds a stale index now, so drop it back to rebuild-on-next-sample.
      DropItems(class_of_[last]);
    }
    class_of_.pop_back();
    weight_of_.pop_back();
  }

  // Changes the weight of local index i. O(1); an in-class reweight keeps
  // the (membership-unchanged) item list and only stales the alias.
  void Reweight(uint32_t i, real_t w) {
    KK_CHECK_MSG(std::isfinite(w) && w >= 0.0f, "weight-class row rejects weight %f",
                 static_cast<double>(w));
    KK_DCHECK(i < size());
    const int8_t oc = class_of_[i];
    const int8_t nc = ClassOf(w);
    if (oc == nc && oc >= 0) {
      ClassBucket& cb = *FindBucket(oc);
      const double old_w = static_cast<double>(weight_of_[i]);
      cb.total -= old_w;
      total_ -= old_w;
      cb.total += static_cast<double>(w);
      total_ += static_cast<double>(w);
      weight_of_[i] = w;
      if (max_bound_ < w) max_bound_ = w;
      ClearReady(oc);
      return;
    }
    DetachAt(i);
    weight_of_[i] = w;
    class_of_[i] = nc;
    if (nc < 0) return;
    ClassBucket& cb = BucketFor(nc);
    ++cb.count;
    cb.total += static_cast<double>(w);
    total_ += static_cast<double>(w);
    if (max_bound_ < w) max_bound_ = w;
    DropItems(nc);  // i is an arbitrary index: scan order is not maintainable
  }

  // Samples a local edge index proportional to weight: a CDF walk over the
  // live classes, then one alias draw — exactly three RNG draws, never a
  // rejection loop. Safe on concurrent workers (see class comment).
  uint32_t Sample(Rng& rng) {
    KK_DCHECK(total_ > 0.0);
    const double r = rng.NextDouble(total_);
    size_t chosen = classes_.size();
    double cum = 0.0;
    for (size_t k = 0; k < classes_.size(); ++k) {
      const ClassBucket& cb = classes_[k];
      if (cb.count == 0 || cb.total <= 0.0) continue;
      chosen = k;
      cum += cb.total;
      if (r < cum) break;
    }
    // FP drift in the running totals can leave r >= cum; the scan then lands
    // on the last live class, which is the correct clamp.
    KK_CHECK(chosen < classes_.size());
    ClassBucket& cb = classes_[chosen];
    const uint64_t bit = 1ull << static_cast<unsigned>(cb.cls);
    if ((ready_.load(std::memory_order_acquire) & bit) == 0) {
      MaterializeClass(cb, bit);
    }
    return cb.items[alias_internal::SampleAliasRow(cb.prob, cb.alias, rng)];
  }

  double total_weight() const { return total_; }

  // Monotone upper bound on every weight the row has ever held (removals do
  // not lower it). Callers use it as a width bound, so an over-estimate costs
  // efficiency, never correctness.
  real_t max_weight() const { return max_bound_; }

  uint32_t size() const { return static_cast<uint32_t>(weight_of_.size()); }

  // Class materializations + alias rebuilds performed by samples so far.
  uint64_t bucket_builds() const { return bucket_builds_.load(std::memory_order_relaxed); }

 private:
  struct ClassBucket {
    int8_t cls = 0;      // class id in [0, kNumClasses); zero class never listed
    uint32_t count = 0;  // live members (entry persists at 0 for slot stability)
    double total = 0.0;  // running sum of member weights (exact-zeroed on empty)
    // Lazily built sampling state: `items` lists member edge indices in
    // ascending order, prob/alias is the Vose table over their weights.
    // Written under the row mutex (workers) or between phases (driver); read
    // lock-free only after an acquire-load sees this class's ready bit.
    bool has_items = false;
    std::vector<uint32_t> items;
    std::vector<real_t> prob;
    std::vector<uint32_t> alias;
  };

  // -1 is the zero class: edges that exist but are never sampled
  // (reweight-to-zero parks them there).
  static int8_t ClassOf(real_t w) {
    if (w <= 0.0f) return -1;
    int e = std::ilogb(w) - kMinExp;
    if (e < 0) e = 0;
    if (e >= kNumClasses) e = kNumClasses - 1;
    return static_cast<int8_t>(e);
  }

  // Live-class entry for c, inserted (sorted by class id) on first use.
  // Driver-only: samples never create classes.
  ClassBucket& BucketFor(int8_t c) {
    size_t k = 0;
    while (k < classes_.size() && classes_[k].cls < c) ++k;
    if (k == classes_.size() || classes_[k].cls != c) {
      ClassBucket cb;
      cb.cls = c;
      classes_.insert(classes_.begin() + static_cast<ptrdiff_t>(k), std::move(cb));
    }
    return classes_[k];
  }

  ClassBucket* FindBucket(int8_t c) {
    for (ClassBucket& cb : classes_) {
      if (cb.cls == c) return &cb;
    }
    KK_CHECK_MSG(false, "weight class %d has no bucket", static_cast<int>(c));
    return nullptr;
  }

  // Removes index i's weight from its class summary and drops the class's
  // materialized items (membership changed). Leaves class_of_/weight_of_
  // untouched for the caller to overwrite.
  void DetachAt(uint32_t i) {
    const int8_t c = class_of_[i];
    if (c < 0) return;
    ClassBucket& cb = *FindBucket(c);
    KK_DCHECK(cb.count > 0);
    --cb.count;
    const double w = static_cast<double>(weight_of_[i]);
    cb.total -= w;
    total_ -= w;
    if (cb.count == 0) {
      // Zero the drift so an emptied class contributes exactly nothing.
      total_ -= cb.total;
      cb.total = 0.0;
    }
    if (total_ < 0.0) total_ = 0.0;
    DropItems(c);
  }

  void DropItems(int8_t c) {
    if (c < 0) return;
    ClassBucket& cb = *FindBucket(c);
    cb.has_items = false;
    cb.items.clear();
    ClearReady(c);
  }

  // Driver-side staleness mark; visibility to workers rides on the engine's
  // superstep barrier, so relaxed ordering suffices.
  void ClearReady(int8_t c) {
    ready_.fetch_and(~(1ull << static_cast<unsigned>(c)), std::memory_order_relaxed);
  }

  // Worker-side (re)build of one class's item list + alias table: serialize
  // on the row mutex, publish with a release-store of the ready bit.
  void MaterializeClass(ClassBucket& cb, uint64_t bit) {
    MutexLock lock(mu_);
    if ((ready_.load(std::memory_order_relaxed) & bit) != 0) {
      return;  // another worker built it while we waited on the lock
    }
    if (!cb.has_items) {
      cb.items.clear();
      for (uint32_t i = 0; i < static_cast<uint32_t>(class_of_.size()); ++i) {
        if (class_of_[i] == cb.cls) cb.items.push_back(i);
      }
      cb.has_items = true;
    }
    KK_DCHECK(cb.items.size() == cb.count);
    // Workers build different rows' classes at once, each under its own row
    // mutex, so the scratch is per thread rather than per row.
    thread_local std::vector<real_t> weights;
    thread_local alias_internal::AliasScratch scratch;
    weights.resize(cb.items.size());
    for (size_t k = 0; k < cb.items.size(); ++k) {
      weights[k] = weight_of_[cb.items[k]];
    }
    cb.prob.resize(cb.items.size());
    cb.alias.resize(cb.items.size());
    alias_internal::BuildAliasRow(weights, cb.prob, cb.alias, scratch);
    bucket_builds_.fetch_add(1, std::memory_order_relaxed);
    ready_.fetch_or(bit, std::memory_order_release);
  }

  std::vector<ClassBucket> classes_;  // live classes, sorted by class id
  std::vector<int8_t> class_of_;      // per local index; -1 = zero class
  std::vector<real_t> weight_of_;     // per local index
  double total_ = 0.0;
  real_t max_bound_ = 0.0f;
  // Bit c set <=> class c's items are current AND its alias is fresh.
  std::atomic<uint64_t> ready_{0};
  std::atomic<uint64_t> bucket_builds_{0};
  Mutex mu_;
};

// Type of WalkEngineOptions::dynamic_sampler (see the comment there).
enum class DynamicSamplerMode : uint8_t {
  kAliasClass,
};

// Per-dirty-vertex LazyAliasRows, riding alongside the flat alias
// tables: the engine samples a clean vertex from the static tables and a
// dirty vertex from its overlay row. Counts full builds (first touch,
// O(degree)) separately from bucket builds (lazy per-class
// materializations) and incremental updates (O(1)) — the tests pin "no
// rebuild per update" on these counters.
class DynamicSamplerOverlay {
 public:
  void Reset(vertex_id_t num_vertices) {
    slot_.assign(num_vertices, kInvalidSlot);
    rows_.clear();
    full_builds_ = 0;
    incremental_updates_ = 0;
  }

  void BuildRow(vertex_id_t v, std::span<const real_t> weights) {
    if (slot_[v] == kInvalidSlot) {
      slot_[v] = static_cast<uint32_t>(rows_.size());
      rows_.emplace_back();
    }
    rows_[slot_[v]].Build(weights);
    ++full_builds_;
  }

  void PushBack(vertex_id_t v, real_t w) {
    Row(v).PushBack(w);
    ++incremental_updates_;
  }

  void SwapRemove(vertex_id_t v, uint32_t local_index) {
    Row(v).SwapRemove(local_index);
    ++incremental_updates_;
  }

  void Reweight(vertex_id_t v, uint32_t local_index, real_t w) {
    Row(v).Reweight(local_index, w);
    ++incremental_updates_;
  }

  // Non-const: a sample may materialize the class it lands in (thread-safe
  // — see LazyAliasRow).
  uint32_t Sample(vertex_id_t v, Rng& rng) { return Row(v).Sample(rng); }
  double TotalWeight(vertex_id_t v) const { return Row(v).total_weight(); }
  real_t MaxWeight(vertex_id_t v) const { return Row(v).max_weight(); }

  uint64_t full_builds() const { return full_builds_; }
  uint64_t incremental_updates() const { return incremental_updates_; }
  uint64_t bucket_builds() const {
    uint64_t total = 0;
    for (const LazyAliasRow& row : rows_) {
      total += row.bucket_builds();
    }
    return total;
  }

 private:
  static constexpr uint32_t kInvalidSlot = 0xffffffffu;

  LazyAliasRow& Row(vertex_id_t v) {
    KK_DCHECK(slot_[v] != kInvalidSlot);
    return rows_[slot_[v]];
  }
  const LazyAliasRow& Row(vertex_id_t v) const {
    KK_DCHECK(slot_[v] != kInvalidSlot);
    return rows_[slot_[v]];
  }

  std::vector<uint32_t> slot_;
  // LazyAliasRow is address-pinned (mutex + atomics): a deque grows without
  // moving its elements.
  std::deque<LazyAliasRow> rows_;
  uint64_t full_builds_ = 0;
  uint64_t incremental_updates_ = 0;
};

}  // namespace knightking

#endif  // SRC_SAMPLING_WEIGHT_CLASS_H_
