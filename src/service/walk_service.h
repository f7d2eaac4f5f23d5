// WalkService: long-lived online query serving on top of WalkEngine.
//
// The batch engine answers "run N walks"; the service answers a *stream* of
// per-user queries — a personalized-PageRank score vector for a source
// vertex, or a node2vec/DeepWalk-style context sample around a vertex — the
// PowerWalk serving model layered on KnightKing's walker engine:
//
//   * A precomputed per-vertex walk-segment index (SegmentIndex) supplies
//     walk material; queries stitch segments online and only fall back to
//     live engine walks when the index runs dry (ThunderRW-style batching
//     folds all fallback walks of a batch into ONE shared engine run).
//   * Admission is a bounded FIFO queue: Submit() refuses (backpressure)
//     when the queue is full; ProcessBatch() drains up to max_batch queries
//     into a shared serving pass.
//   * Hot results live in a deterministic LRU keyed by content hashes
//     derived from the service seed.
//
// Determinism contract (tested by tests/service_test.cc): a response is a
// pure function of (service seed, index, query content). Stitching draws
// come from a per-query CounterRng keyed on the query's content hash, and
// live-walk RNG streams are content hashes too (WalkerSpec::rng_stream), so
// neither batch composition, worker count, nor cache hits can change any
// response byte. See docs/SERVING.md.
#ifndef SRC_SERVICE_WALK_SERVICE_H_
#define SRC_SERVICE_WALK_SERVICE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/apps/ppr.h"
#include "src/engine/walk_engine.h"
#include "src/graph/csr.h"
#include "src/obs/histogram.h"
#include "src/obs/metrics_registry.h"
#include "src/service/segment_index.h"
#include "src/util/mutex.h"
#include "src/util/radix_sort.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"
#include "src/util/timer.h"
#include "src/util/types.h"

namespace knightking {

enum class QueryKind : uint8_t {
  kPpr = 0,      // Monte-Carlo PPR score vector for source `vertex`
  kContext = 1,  // the next `count` vertices of one walk from `vertex`
};

struct ServiceQuery {
  QueryKind kind = QueryKind::kPpr;
  vertex_id_t vertex = 0;
  // kPpr: number of walks backing the estimate. kContext: context size.
  uint32_t count = 0;

  friend bool operator==(const ServiceQuery&, const ServiceQuery&) = default;
};

// Content hash of a query — the identity under which it is cached and the
// base of every random stream that serves it. Not seeded: two services with
// different seeds derive different streams by combining their seed with it.
uint64_t QueryContentKey(const ServiceQuery& q);

struct ServiceResult {
  ServiceQuery query;
  // kPpr: normalized visit-frequency scores and raw endpoint counts, both
  // sorted by vertex id (endpoints are one-per-walk and iid, which is what
  // the statistical accuracy test consumes).
  std::vector<std::pair<vertex_id_t, double>> scores;
  std::vector<std::pair<vertex_id_t, uint32_t>> endpoints;
  // kContext: up to `count` vertices following `vertex` on one walk (fewer
  // when the walk terminates early — geometric-decay context).
  std::vector<vertex_id_t> context;
  // Serving provenance; NOT part of Canonical() (a cache hit must serialize
  // identically to the miss that populated it).
  bool from_cache = false;

  // Byte-stable text serialization; the determinism tests compare response
  // streams with string equality on this form.
  std::string Canonical() const;
};

// Deterministic LRU over content-hash keys. Plain recency eviction — no
// clocks, no randomized admission — so eviction order is a pure function of
// the access sequence; the determinism test cross-checks hits/misses/
// evictions against the exported metrics exactly.
//
// Internally synchronized: every method takes the cache's own mutex, so
// concurrent readers (metrics export, future async serving) never race the
// serving thread's Get/Put. Get copies the entry out instead of returning a
// pointer — a reference into the LRU could be invalidated by a concurrent
// eviction the moment the lock drops.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  // Copies the entry at `key` into *out and touches its recency; false on
  // miss. Hit/miss counters update either way.
  bool Get(uint64_t key, ServiceResult* out);

  // Inserts or refreshes; evicts the least recently used entry when full.
  void Put(uint64_t key, ServiceResult result);

  size_t size() const {
    MutexLock lock(mu_);
    return map_.size();
  }
  uint64_t hits() const {
    MutexLock lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    MutexLock lock(mu_);
    return misses_;
  }
  uint64_t evictions() const {
    MutexLock lock(mu_);
    return evictions_;
  }

  // Keys from most to least recently used (test introspection).
  std::vector<uint64_t> KeysByRecency() const;

 private:
  using LruList = std::list<std::pair<uint64_t, ServiceResult>>;

  mutable Mutex mu_;
  size_t capacity_;
  LruList lru_ KK_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<uint64_t, LruList::iterator> map_ KK_GUARDED_BY(mu_);
  uint64_t hits_ KK_GUARDED_BY(mu_) = 0;
  uint64_t misses_ KK_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ KK_GUARDED_BY(mu_) = 0;
};

struct WalkServiceOptions {
  // Master seed: every stitching draw, live-walk stream, and index-build
  // seed derives from it.
  uint64_t seed = 1;
  // Index shape; segments_per_vertex == 0 serves everything live.
  uint32_t segments_per_vertex = 4;
  uint32_t segment_cap = 16;
  // PPR per-arrival termination probability (index build AND live walks
  // must agree, so it lives here, not per query).
  double terminate_prob = 1.0 / 80.0;
  // A walk consuming more than this many index segments falls back to a
  // live engine walk for its remainder.
  uint32_t max_stitches_per_walk = 64;
  // Admission control: Submit() refuses beyond this depth.
  size_t max_queue_depth = 1024;
  // Queries drained per ProcessBatch() call.
  size_t max_batch = 64;
  // Result-cache entries; 0 disables caching.
  size_t cache_capacity = 0;
  // Engine topology/faults/determinism knobs. seed, collect_paths, and
  // reuse_static_state are overridden by the service.
  WalkEngineOptions engine;
};

// Aggregate serving counters (all deterministic given the query trace).
struct ServiceCounters {
  uint64_t submitted = 0;
  uint64_t rejected = 0;  // backpressure refusals
  uint64_t served = 0;
  uint64_t ppr_queries = 0;
  uint64_t context_queries = 0;
  uint64_t batches = 0;
  uint64_t peak_queue_depth = 0;
  uint64_t segments_stitched = 0;
  uint64_t live_walks = 0;
  uint64_t live_walk_steps = 0;
  uint64_t index_swaps = 0;  // staged indexes adopted at batch boundaries
};

template <typename EdgeData>
class WalkService {
 public:
  using EngineT = WalkEngine<EdgeData>;

  WalkService(Csr<EdgeData> graph, WalkServiceOptions options)
      : options_(options), cache_(options.cache_capacity) {
    KK_CHECK(options_.segment_cap >= 1);
    KK_CHECK(options_.max_batch >= 1);
    WalkEngineOptions eopts = options_.engine;
    eopts.seed = options_.seed;
    eopts.collect_paths = true;
    eopts.reuse_static_state = true;  // one sampler build for the service lifetime
    engine_ = std::make_unique<EngineT>(std::move(graph), eopts);
  }

  // --- Index lifecycle --------------------------------------------------

  // The index build walks under master seed HashCombine64(seed, this salt).
  static constexpr uint64_t kIndexSeedSalt = 0x6b6b2d696e646578ULL;  // "kk-index"

  // Precomputes segments_per_vertex walk prefixes per vertex by running the
  // service's own engine once (walker v*spv+s starts at v). The build uses a
  // master seed derived from the service seed, so index randomness and
  // live-serving randomness are unrelated streams.
  void BuildIndex() KK_EXCLUDES(serve_mu_) {
    MutexLock serve(serve_mu_);
    uint32_t spv = options_.segments_per_vertex;
    vertex_id_t num_v = engine_->graph().num_vertices();
    if (spv == 0) {
      index_ = SegmentIndex{};
      return;
    }
    Timer timer;
    engine_->set_seed(HashCombine64(options_.seed, kIndexSeedSalt));
    WalkerSpec<> spec;
    spec.num_walkers = static_cast<walker_id_t>(num_v) * spv;
    spec.start_vertex = [spv](walker_id_t id, Rng&) {
      return static_cast<vertex_id_t>(id / spv);
    };
    spec.max_steps = options_.segment_cap;
    spec.terminate_prob = options_.terminate_prob;
    engine_->Run(PprTransition<EdgeData>(), spec);
    engine_->set_seed(options_.seed);
    // The flat paths are the index's CSR as is: walker s is segment s.
    FlatPaths paths;
    engine_->TakeFlatPaths(&paths);
    uint64_t num_segments = static_cast<uint64_t>(num_v) * spv;
    KK_CHECK(paths.num_paths() == num_segments);
    std::vector<uint8_t> terminated(num_segments, 0);
    for (uint64_t s = 0; s < num_segments; ++s) {
      const uint64_t length = paths.offsets[s + 1] - paths.offsets[s];
      KK_CHECK(length != 0);
      // max_steps preempts the arrival coin, so a full-length path means the
      // walk was truncated (coin pending at the endpoint); anything shorter
      // genuinely ended (coin or dead end).
      terminated[s] = length < uint64_t{options_.segment_cap} + 1 ? 1 : 0;
    }
    SegmentIndexParams params;
    params.segments_per_vertex = spv;
    params.segment_cap = options_.segment_cap;
    params.terminate_prob = options_.terminate_prob;
    params.seed = options_.seed;
    index_ = SegmentIndex::FromParts(params, num_v, std::move(paths.offsets),
                                     std::move(paths.vertices), std::move(terminated));
    index_build_seconds_ = timer.Seconds();
  }

  bool SaveIndex(const std::string& path, std::string* error) const
      KK_EXCLUDES(serve_mu_) {
    MutexLock serve(serve_mu_);
    return index_.Save(path, error);
  }

  // Loads a previously saved index; refuses one whose shape or walk
  // parameters disagree with this service (stitching with foreign-law
  // segments would silently skew every answer). Takes effect immediately —
  // use StageIndex to refresh without blocking admission.
  bool LoadIndex(const std::string& path, std::string* error) KK_EXCLUDES(serve_mu_) {
    SegmentIndex loaded;
    if (!ValidateLoaded(path, &loaded, error)) {
      return false;
    }
    MutexLock serve(serve_mu_);
    options_.segments_per_vertex = loaded.params().segments_per_vertex;
    options_.segment_cap = loaded.params().segment_cap;
    index_ = std::move(loaded);
    return true;
  }

  // Online index refresh (ROADMAP: "index refresh without downtime"): loads
  // and validates a saved index but parks it in a staging slot instead of
  // installing it. The serving thread adopts it at its next batch boundary,
  // so an in-flight ProcessBatch never observes a mid-batch index change and
  // Submit() is never blocked behind index deserialization. A second stage
  // before adoption simply replaces the first.
  bool StageIndex(const std::string& path, std::string* error) KK_EXCLUDES(mu_) {
    auto staged = std::make_unique<SegmentIndex>();
    if (!ValidateLoaded(path, staged.get(), error)) {
      return false;
    }
    MutexLock lock(mu_);
    staged_index_ = std::move(staged);
    return true;
  }

  // Borrows the live index without synchronization. Callers are tests and
  // sequential drivers inspecting state between serving calls; a reference
  // into guarded state cannot be expressed to the analysis, and locking here
  // would only protect the pointer read, not the borrow.
  const SegmentIndex& index() const KK_NO_THREAD_SAFETY_ANALYSIS { return index_; }

  // --- Query admission and serving --------------------------------------

  // Enqueues a query; false = queue full (caller should back off). Takes
  // only the admission lock, so producers are never blocked behind a batch
  // in flight (the graph bound check reads immutable topology lock-free).
  bool Submit(const ServiceQuery& q) KK_EXCLUDES(mu_) {
    KK_CHECK(q.vertex < engine_->graph().num_vertices());
    MutexLock lock(mu_);
    if (queue_.size() >= options_.max_queue_depth) {
      counters_.rejected += 1;
      return false;
    }
    counters_.submitted += 1;
    queue_.push_back(Pending{q, Timer{}});
    if (queue_.size() > counters_.peak_queue_depth) {
      counters_.peak_queue_depth = queue_.size();
    }
    return true;
  }

  size_t queue_depth() const KK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return queue_.size();
  }

  // Drains up to max_batch queued queries and serves them in one shared
  // pass: cache lookups first, then index stitching for every miss, then a
  // single engine run covering ALL live-fallback walks of the batch.
  // Results come back in submission order.
  //
  // With WalkServiceOptions::engine.trace attached, the pass is recorded as
  // a "service.batch" span on the driver lane holding one span per stage
  // (service.stitch, service.run, service.accumulate, service.finalize); the
  // engine's own phase spans nest inside service.run.
  //
  // serve_mu_ serializes concurrent ProcessBatch callers and covers the
  // whole pass; mu_ is held only to drain the queue (adopting any staged
  // index first) and to fold counters back in, so Submit stays responsive
  // while the batch serves. Lock order: serve_mu_ before mu_, always.
  std::vector<ServiceResult> ProcessBatch() KK_EXCLUDES(serve_mu_, mu_) {
    MutexLock serve(serve_mu_);
    obs::TraceRecorder* const trace = options_.engine.trace;
    const double batch_start = trace != nullptr ? trace->Now() : 0.0;
    uint64_t batch_number = 0;
    std::vector<Pending> batch;
    {
      MutexLock lock(mu_);
      if (staged_index_ != nullptr) {
        index_ = std::move(*staged_index_);
        staged_index_.reset();
        options_.segments_per_vertex = index_.params().segments_per_vertex;
        options_.segment_cap = index_.params().segment_cap;
        counters_.index_swaps += 1;
      }
      size_t n = std::min(queue_.size(), options_.max_batch);
      if (n == 0) {
        return {};
      }
      counters_.batches += 1;
      batch_number = counters_.batches;
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    size_t n = batch.size();

    std::vector<ServiceResult> results(n);
    std::vector<QueryWork> work;  // cache misses only
    for (size_t i = 0; i < n; ++i) {
      const ServiceQuery& q = batch[i].query;
      uint64_t cache_key = HashCombine64(options_.seed, QueryContentKey(q));
      ServiceResult hit;
      if (options_.cache_capacity > 0 && cache_.Get(cache_key, &hit)) {
        results[i] = std::move(hit);
        results[i].from_cache = true;
        continue;
      }
      QueryWork qw;
      qw.slot = i;
      qw.query = q;
      qw.cache_key = cache_key;
      work.push_back(std::move(qw));
    }

    // Serving-side counter deltas accumulate locally and fold into
    // counters_ at the end — the stitching loops must not take mu_.
    ServiceCounters delta;

    // Stitch every miss from the index; collect live-fallback cursors.
    std::vector<LiveWalk> live;
    {
      obs::StageTimer stage(trace, "service.stitch", 0, batch_number, &stage_seconds_.stitch);
      for (size_t wi = 0; wi < work.size(); ++wi) {
        StitchQuery(wi, work[wi], &live, &delta);
      }
    }

    // One shared engine run finishes every pending walk of the batch.
    {
      obs::StageTimer stage(trace, "service.run", 0, batch_number, &stage_seconds_.run);
      if (!live.empty()) {
        RunLiveWalks(work, live);
      }
    }
    {
      obs::StageTimer stage(trace, "service.accumulate", 0, batch_number,
                            &stage_seconds_.accumulate);
      AccumulateVisits(live, &work, &delta);
    }

    {
      obs::StageTimer stage(trace, "service.finalize", 0, batch_number, &stage_seconds_.finalize);
      for (QueryWork& w : work) {
        ServiceResult r = Finalize(w);
        if (options_.cache_capacity > 0) {
          cache_.Put(w.cache_key, r);
        }
        results[w.slot] = std::move(r);
      }
    }

    {
      MutexLock lock(mu_);
      counters_.segments_stitched += delta.segments_stitched;
      counters_.live_walks += delta.live_walks;
      counters_.live_walk_steps += delta.live_walk_steps;
      for (size_t i = 0; i < n; ++i) {
        counters_.served += 1;
        if (batch[i].query.kind == QueryKind::kPpr) {
          counters_.ppr_queries += 1;
        } else {
          counters_.context_queries += 1;
        }
        latency_.Record(static_cast<uint64_t>(batch[i].timer.Seconds() * 1e9));
      }
    }
    if (trace != nullptr) {
      trace->RecordSpan("service.batch", 0, 0, batch_start, trace->Now() - batch_start,
                        batch_number);
    }
    return results;
  }

  // Convenience: submit one query and serve it immediately (tests, simple
  // callers). KK_CHECKs admission — use Submit/ProcessBatch under load.
  ServiceResult ServeOne(const ServiceQuery& q) KK_EXCLUDES(serve_mu_, mu_) {
    KK_CHECK(Submit(q));
    std::vector<ServiceResult> r = ProcessBatch();
    KK_CHECK(r.size() == 1);
    return std::move(r.front());
  }

  // Snapshot copies: a reference into guarded state would outlive the lock.
  // (Callers binding `const ServiceCounters&` to these still compile — the
  // temporary's lifetime extends to the reference's.)
  ServiceCounters counters() const KK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return counters_;
  }
  obs::LatencyHistogram latency() const KK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return latency_;
  }
  const ResultCache& cache() const { return cache_; }  // internally synchronized
  const Csr<EdgeData>& graph() const { return engine_->graph(); }
  double index_build_seconds() const KK_EXCLUDES(serve_mu_) {
    MutexLock serve(serve_mu_);
    return index_build_seconds_;
  }

  // Serving metrics in the kk-metrics schema. Counters and cache/queue/index
  // state are stable (pure functions of the query trace); latency gauges are
  // wall clock and therefore unstable. Snapshots each lock domain in turn
  // (never nested — lock order with a concurrent ProcessBatch is moot) so
  // the export is a consistent cut of each domain, not of the whole service.
  void ExportMetrics(obs::MetricsRegistry& out, const obs::Labels& base = {}) const
      KK_EXCLUDES(serve_mu_, mu_) {
    auto with = [&base](obs::Labels extra) {
      extra.insert(extra.end(), base.begin(), base.end());
      return extra;
    };
    ServiceCounters c;
    uint64_t depth = 0;
    obs::LatencyHistogram lat;
    {
      MutexLock lock(mu_);
      c = counters_;
      depth = queue_.size();
      lat = latency_;
    }
    uint64_t index_segments = 0;
    uint64_t index_bytes = 0;
    double build_seconds = 0.0;
    StageSeconds stages;
    {
      MutexLock serve(serve_mu_);
      index_segments = index_.num_segments();
      index_bytes = index_.PayloadBytes();
      build_seconds = index_build_seconds_;
      stages = stage_seconds_;
    }
    out.AddCounter("service.queries_submitted", with({}), c.submitted);
    out.AddCounter("service.queries_rejected", with({}), c.rejected);
    out.AddCounter("service.queries_served", with({{"kind", "ppr"}}), c.ppr_queries);
    out.AddCounter("service.queries_served", with({{"kind", "context"}}),
                   c.context_queries);
    out.AddCounter("service.batches", with({}), c.batches);
    out.AddCounter("service.peak_queue_depth", with({}), c.peak_queue_depth);
    out.AddCounter("service.queue_depth", with({}), depth);
    out.AddCounter("service.cache_hits", with({}), cache_.hits());
    out.AddCounter("service.cache_misses", with({}), cache_.misses());
    out.AddCounter("service.cache_evictions", with({}), cache_.evictions());
    out.AddCounter("service.cache_entries", with({}), cache_.size());
    out.AddCounter("service.segments_stitched", with({}), c.segments_stitched);
    out.AddCounter("service.live_walks", with({}), c.live_walks);
    out.AddCounter("service.live_walk_steps", with({}), c.live_walk_steps);
    out.AddCounter("service.index_swaps", with({}), c.index_swaps);
    out.AddCounter("service.index_segments", with({}), index_segments);
    out.AddCounter("service.index_bytes", with({}), index_bytes);
    out.SetGauge("service.latency_p50_ms", with({}),
                 static_cast<double>(lat.PercentileNanos(0.50)) / 1e6, false);
    out.SetGauge("service.latency_p99_ms", with({}),
                 static_cast<double>(lat.PercentileNanos(0.99)) / 1e6, false);
    out.SetGauge("service.latency_mean_ms", with({}), lat.MeanNanos() / 1e6, false);
    out.SetGauge("service.index_build_seconds", with({}), build_seconds, false);
    out.SetGauge("service.stage_seconds", with({{"stage", "stitch"}}), stages.stitch, false);
    out.SetGauge("service.stage_seconds", with({{"stage", "run"}}), stages.run, false);
    out.SetGauge("service.stage_seconds", with({{"stage", "accumulate"}}), stages.accumulate,
                 false);
    out.SetGauge("service.stage_seconds", with({{"stage", "finalize"}}), stages.finalize,
                 false);
  }

  void ExportEngineMetrics(obs::MetricsRegistry& out, const obs::Labels& base = {}) const
      KK_EXCLUDES(serve_mu_) {
    MutexLock serve(serve_mu_);
    engine_->ExportMetrics(out, base);
  }

 private:
  static constexpr uint64_t kLiveSalt = 0x6b6b2d6c697665ULL;  // "kk-live"
  // WalkerSpec::rng_stream values must stay below kDeployStream (2^62 - 1).
  static constexpr uint64_t kStreamMask = (uint64_t{1} << 61) - 1;

  struct Pending {
    ServiceQuery query;
    Timer timer;
  };

  // Cumulative wall-clock seconds ProcessBatch spent per serving stage. Not
  // deterministic; exported as unstable gauges.
  struct StageSeconds {
    double stitch = 0.0;      // index stitching of every cache miss
    double run = 0.0;         // the shared live-walk engine Run and path assembly
    double accumulate = 0.0;  // filling each query's logs from segments and live paths
    double finalize = 0.0;    // radix-sort-and-count answers, cache Put
  };

  // A vertex's segment cursor within one query: the random base offset and
  // how many of its segments the query consumed. Current only while
  // `query` equals stitch_query_.
  struct StitchCursor {
    uint32_t query = 0;
    uint32_t base = 0;
    uint32_t used = 0;
  };

  // One walk that ran out of index segments and needs a live remainder.
  struct LiveWalk {
    size_t work_idx = 0;       // into the batch's `work` vector
    uint32_t walk_slot = 0;    // walk number within its query
    vertex_id_t cur = 0;       // continuation start (pending arrival coin)
    uint32_t cap = 0;          // context: remaining steps wanted; 0 = uncapped
    bool stitched_any = false; // true: `cur` was already visited via a segment
  };

  struct QueryWork {
    size_t slot = 0;  // position in the batch / results vector
    ServiceQuery query;
    uint64_t cache_key = 0;
    // PPR accumulation: one entry per visit and one per finished walk.
    // Finalize sorts each log once and counts its runs. The visited parts of
    // the query's stitched segments are stitched_[stitched_begin,
    // stitched_end), holding visit_count visits until AccumulateVisits adds
    // the live paths and fills `visits` with one allocation.
    std::vector<vertex_id_t> visits;
    std::vector<vertex_id_t> endpoints;
    size_t stitched_begin = 0;
    size_t stitched_end = 0;
    size_t visit_count = 0;
    // Context accumulation.
    std::vector<vertex_id_t> context;
  };

  // Loads `path` into *loaded and refuses an index whose shape or walk
  // parameters disagree with this service. Reads only immutable state
  // (topology, construction-time options), so stagers need no lock here.
  bool ValidateLoaded(const std::string& path, SegmentIndex* loaded,
                      std::string* error) const {
    if (!SegmentIndex::Load(path, loaded, error)) {
      return false;
    }
    if (loaded->num_vertices() != engine_->graph().num_vertices() ||
        loaded->params().terminate_prob != options_.terminate_prob ||
        loaded->params().seed != options_.seed) {
      if (error != nullptr) {
        *error = "index was built for a different graph, walk law, or seed";
      }
      return false;
    }
    return true;
  }

  // Serves the index-stitching stage of one query; walks that exhaust the
  // index (or exceed the stitch budget) are appended to `live` with their
  // continuation cursor. Counter deltas go to *delta (the caller folds them
  // into counters_ under mu_ once the batch completes).
  void StitchQuery(size_t work_idx, QueryWork& w, std::vector<LiveWalk>* live,
                   ServiceCounters* delta) KK_REQUIRES(serve_mu_) {
    const ServiceQuery& q = w.query;
    uint64_t qkey = QueryContentKey(q);
    // Per-query stitching randomness: a pure function of (seed, content).
    CounterRng qrng(HashCombine64(options_.seed, qkey));
    uint32_t spv = index_.empty() ? 0 : index_.params().segments_per_vertex;
    // Round-robin-without-reuse segment selection: each vertex gets a random
    // base offset, then consecutive consumptions take consecutive segments.
    // No segment is consumed twice within one query, so its walks are
    // mutually independent — the property the chi-square accuracy test
    // needs. The cursors are per query (stamped with its number), so
    // queries never share segment state, which is what keeps responses
    // independent of batch composition. A vertex draws its base offset on
    // its first touch by the query, so qrng's draws follow first-touch order.
    if (spv != 0 && stitch_cursors_.size() != index_.num_vertices()) {
      stitch_cursors_.assign(index_.num_vertices(), StitchCursor{});
      stitch_query_ = 0;
    }
    if (++stitch_query_ == 0) {  // stamp wrapped: no cursor may look current
      std::ranges::fill(stitch_cursors_, StitchCursor{});
      stitch_query_ = 1;
    }
    auto next_segment = [&](vertex_id_t v) -> int64_t {
      if (spv == 0) {
        return -1;
      }
      StitchCursor& c = stitch_cursors_[v];
      if (c.query != stitch_query_) {
        c = {stitch_query_, static_cast<uint32_t>(qrng.Next() % spv), 0};
      }
      if (c.used >= spv) {
        return -1;  // vertex dry for this query
      }
      uint32_t s = (c.base + c.used) % spv;
      c.used += 1;
      return static_cast<int64_t>(s);
    };

    uint32_t num_walks = q.kind == QueryKind::kPpr ? std::max(q.count, 1u) : 1u;
    if (q.kind == QueryKind::kPpr) {
      w.endpoints.reserve(num_walks);  // every walk ends exactly once
    }
    w.stitched_begin = stitched_.size();
    for (uint32_t walk = 0; walk < num_walks; ++walk) {
      vertex_id_t cur = q.vertex;
      // Steps still wanted (context only); PPR walks are uncapped (0).
      uint32_t remaining = q.kind == QueryKind::kContext ? q.count : 0;
      bool stitched_any = false;
      bool finished = q.kind == QueryKind::kContext && remaining == 0;
      for (uint32_t stitch = 0; !finished && stitch < options_.max_stitches_per_walk;
           ++stitch) {
        int64_t s = next_segment(cur);
        if (s < 0) {
          break;  // index dry here → live fallback
        }
        delta->segments_stitched += 1;
        auto seg = index_.Segment(cur, static_cast<uint32_t>(s));
        bool terminated = index_.Terminated(cur, static_cast<uint32_t>(s));
        if (q.kind == QueryKind::kPpr) {
          // seg[0] is `cur`: the walk start on the first segment (count it),
          // an already-counted endpoint on continuations (skip it).
          auto visited = seg.subspan(stitched_any ? 1 : 0);
          stitched_.push_back(visited);
          w.visit_count += visited.size();
        } else {
          // Context = vertices *after* the walk start; seg[0] is never new
          // material (the query vertex on the first segment, a duplicate
          // endpoint on continuations).
          for (size_t i = 1; i < seg.size() && remaining > 0; ++i) {
            w.context.push_back(seg[i]);
            remaining -= 1;
          }
        }
        stitched_any = true;
        cur = seg.back();
        if (terminated) {
          if (q.kind == QueryKind::kPpr) {
            w.endpoints.push_back(cur);
          }
          finished = true;
        } else if (q.kind == QueryKind::kContext && remaining == 0) {
          finished = true;
        }
      }
      if (!finished) {
        live->push_back(LiveWalk{work_idx, walk, cur, remaining, stitched_any});
      }
    }
    w.stitched_end = stitched_.size();
  }

  // Runs every pending live walk of the batch as ONE engine pass with
  // shared supersteps, leaving walk i's path in live_paths_.Path(i). Each
  // walker's RNG stream is a hash of (its query's content, its walk slot),
  // so the walk is independent of which other queries happen to share the
  // run.
  void RunLiveWalks(const std::vector<QueryWork>& work, const std::vector<LiveWalk>& live)
      KK_REQUIRES(serve_mu_) {
    std::vector<uint64_t> streams(live.size());
    std::vector<uint32_t> caps(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      const LiveWalk& lw = live[i];
      uint64_t qkey = QueryContentKey(work[lw.work_idx].query);
      streams[i] =
          HashCombine64(HashCombine64(kLiveSalt, qkey), lw.walk_slot) & kStreamMask;
      caps[i] = lw.cap;
    }
    WalkerSpec<> spec;
    spec.num_walkers = static_cast<walker_id_t>(live.size());
    spec.start_vertex = [&live](walker_id_t id, Rng&) {
      return live[static_cast<size_t>(id)].cur;
    };
    spec.rng_stream = [&streams](walker_id_t id) {
      return streams[static_cast<size_t>(id)];
    };
    spec.max_steps = 0;
    spec.terminate_prob = options_.terminate_prob;
    spec.terminate_if = [&caps](const Walker<>& walker) {
      uint32_t cap = caps[static_cast<size_t>(walker.id)];
      return cap != 0 && walker.step >= cap;
    };
    engine_->Run(PprTransition<EdgeData>(), spec);
    engine_->TakeFlatPaths(&live_paths_);
    KK_CHECK(live_paths_.num_paths() == live.size());
  }

  // Fills each PPR query's visit log with its stitched segments and then
  // its live paths, reserving the exact total first, and folds each live
  // walk's endpoint or context vertices into its query.
  void AccumulateVisits(const std::vector<LiveWalk>& live, std::vector<QueryWork>* work,
                        ServiceCounters* delta) KK_REQUIRES(serve_mu_) {
    for (size_t i = 0; i < live.size(); ++i) {
      const LiveWalk& lw = live[i];
      QueryWork& w = (*work)[lw.work_idx];
      std::span<const vertex_id_t> path = live_paths_.Path(i);
      KK_CHECK(!path.empty() && path.front() == lw.cur);
      delta->live_walks += 1;
      delta->live_walk_steps += path.size() - 1;
      if (w.query.kind == QueryKind::kPpr) {
        w.visit_count += path.size() - (lw.stitched_any ? 1 : 0);
      }
    }
    for (QueryWork& w : *work) {
      w.visits.reserve(w.visit_count);
      for (size_t p = w.stitched_begin; p < w.stitched_end; ++p) {
        w.visits.insert(w.visits.end(), stitched_[p].begin(), stitched_[p].end());
      }
    }
    stitched_.clear();  // its views must not outlive the batch's index
    for (size_t i = 0; i < live.size(); ++i) {
      const LiveWalk& lw = live[i];
      QueryWork& w = (*work)[lw.work_idx];
      std::span<const vertex_id_t> path = live_paths_.Path(i);
      if (w.query.kind == QueryKind::kPpr) {
        // path[0] == cur: already counted when this walk stitched at least
        // one segment; a never-stitched walk starts fresh here and its
        // start vertex has not been visited yet.
        auto visited = path.subspan(lw.stitched_any ? 1 : 0);
        w.visits.insert(w.visits.end(), visited.begin(), visited.end());
        w.endpoints.push_back(path.back());
      } else {
        for (size_t p = 1; p < path.size(); ++p) {
          w.context.push_back(path[p]);
        }
      }
    }
  }

  // Sorts `log` and returns one (vertex, value(run length)) pair per distinct
  // vertex, ascending. The sort is a radix sort on vertex ids with one pass
  // per byte of the largest id; it orders exactly as a comparison sort
  // would. The runs are counted before the output is filled so its
  // capacity is exact: results live on in the cache and in callers' hands,
  // and growth slack there would be pure resident overhead.
  template <typename T, typename ValueFn>
  std::vector<std::pair<vertex_id_t, T>> CountRuns(std::vector<vertex_id_t>& log,
                                                   ValueFn value) KK_REQUIRES(serve_mu_) {
    RadixSort(log, sort_scratch_, engine_->graph().num_vertices() - 1);
    size_t distinct = log.empty() ? 0 : 1;
    for (size_t i = 1; i < log.size(); ++i) {
      if (log[i] != log[i - 1]) {
        ++distinct;
      }
    }
    std::vector<std::pair<vertex_id_t, T>> runs;
    runs.reserve(distinct);
    for (size_t i = 0; i < log.size();) {
      size_t end = i + 1;
      while (end < log.size() && log[end] == log[i]) {
        ++end;
      }
      runs.emplace_back(log[i], value(static_cast<uint32_t>(end - i)));
      i = end;
    }
    return runs;
  }

  ServiceResult Finalize(QueryWork& w) KK_REQUIRES(serve_mu_) {
    ServiceResult r;
    r.query = w.query;
    if (w.query.kind == QueryKind::kPpr) {
      const auto total_visits = static_cast<double>(w.visits.size());
      r.scores = CountRuns<double>(w.visits, [total_visits](uint32_t c) {
        return static_cast<double>(c) / total_visits;
      });
      r.endpoints = CountRuns<uint32_t>(w.endpoints, [](uint32_t c) { return c; });
    } else {
      r.context = std::move(w.context);
      if (r.context.size() > w.query.count) {
        r.context.resize(w.query.count);
      }
    }
    return r;
  }

  // Admission fields (seed, queue/batch limits, cache_capacity, walk law)
  // are immutable after construction and read lock-free; the index-shape
  // fields (segments_per_vertex, segment_cap) are written only under
  // serve_mu_ (LoadIndex, staged-index adoption) and read under it
  // (BuildIndex). The split is documented rather than annotated: per-field
  // guards inside one options struct are inexpressible to the analysis.
  WalkServiceOptions options_;
  // The engine runs only under serve_mu_ (BuildIndex, RunLiveWalks); its
  // graph() accessor returns immutable topology and stays lock-free.
  std::unique_ptr<EngineT> engine_;

  // Serving lock: serializes ProcessBatch / index lifecycle. Ordered BEFORE
  // mu_ — a serve_mu_ holder may take mu_, never the reverse.
  mutable Mutex serve_mu_;
  SegmentIndex index_ KK_GUARDED_BY(serve_mu_);
  // Per-batch scratch; capacity persists across batches. live_paths_ holds
  // the live-walk paths of the batch in flight, stitched_ the visited parts
  // of its stitched PPR segments (views into index_, which a batch never
  // swaps; empty between batches), and sort_scratch_ is CountRuns' radix
  // ping-pong buffer.
  FlatPaths live_paths_ KK_GUARDED_BY(serve_mu_);
  std::vector<std::span<const vertex_id_t>> stitched_ KK_GUARDED_BY(serve_mu_);
  std::vector<vertex_id_t> sort_scratch_ KK_GUARDED_BY(serve_mu_);
  // StitchQuery's per-vertex segment cursors, reused across queries: one
  // entry per vertex, current for the query numbered stitch_query_.
  std::vector<StitchCursor> stitch_cursors_ KK_GUARDED_BY(serve_mu_);
  uint32_t stitch_query_ KK_GUARDED_BY(serve_mu_) = 0;
  double index_build_seconds_ KK_GUARDED_BY(serve_mu_) = 0.0;
  StageSeconds stage_seconds_ KK_GUARDED_BY(serve_mu_);

  // Admission lock: queue, counters, latency, and the staged-index slot.
  // Submit takes only this, so producers never wait on a batch in flight.
  mutable Mutex mu_;
  std::deque<Pending> queue_ KK_GUARDED_BY(mu_);
  std::unique_ptr<SegmentIndex> staged_index_ KK_GUARDED_BY(mu_);
  ServiceCounters counters_ KK_GUARDED_BY(mu_);
  obs::LatencyHistogram latency_ KK_GUARDED_BY(mu_);

  ResultCache cache_;  // internally synchronized
};

}  // namespace knightking

#endif  // SRC_SERVICE_WALK_SERVICE_H_
