// WalkService determinism, caching, backpressure, and index-integrity tests.
//
// The serving determinism contract (docs/SERVING.md): a response is a pure
// function of (service seed, index, query content). The matrix here replays
// one query trace across worker counts 0/4 and cache on/off and requires the
// concatenated canonical response streams to be byte-identical, also with
// message faults injected into every engine run; the LRU's
// hit/miss/eviction counters must match the exported obs metrics exactly.
// Segment-index files get the same corruption matrix the checkpoint format
// has: every mutation must fail cleanly at load, before any allocation blow-
// up, leaving service state untouched.
//
// The CI deterministic-sim job re-runs this binary under TSan with
// KK_SIM_WORKERS=4.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/service/segment_index.h"
#include "src/service/walk_service.h"
#include "src/testing/fault_injector.h"
#include "src/util/rng.h"
#include "tools/kk-metrics/check.h"

namespace knightking {
namespace {

constexpr uint64_t kSeed = 417;

size_t WorkersFromEnv() {
  const char* env = std::getenv("KK_SIM_WORKERS");
  return env != nullptr ? static_cast<size_t>(std::atoi(env)) : 0;
}

std::string IndexPath(const std::string& tag) {
  return testing::TempDir() + "kk_segidx_" + tag + ".bin";
}

Csr<EmptyEdgeData> TestGraph() {
  return Csr<EmptyEdgeData>::FromEdgeList(GenerateTruncatedPowerLaw(200, 2.2, 2, 24, 7));
}

WalkServiceOptions BaseOptions(size_t workers, size_t cache_capacity) {
  WalkServiceOptions opts;
  opts.seed = kSeed;
  opts.segments_per_vertex = 4;
  opts.segment_cap = 8;
  opts.terminate_prob = 0.15;  // short walks keep the test fast
  opts.cache_capacity = cache_capacity;
  opts.engine.workers_per_node = workers;
  return opts;
}

// A fixed trace with deliberate repeats (cache hits) spanning both kinds.
std::vector<ServiceQuery> FixedTrace(vertex_id_t num_v) {
  std::vector<ServiceQuery> trace;
  CounterRng rng(999);
  for (int i = 0; i < 40; ++i) {
    ServiceQuery q;
    if (i % 4 == 3) {
      q.kind = QueryKind::kContext;
      q.count = 6;
    } else {
      q.kind = QueryKind::kPpr;
      q.count = 20;
    }
    // A small vertex pool guarantees repeated queries in the trace.
    q.vertex = static_cast<vertex_id_t>(rng.Next() % (num_v / 8));
    trace.push_back(q);
  }
  return trace;
}

// Serves the whole trace (in submission order, batch by batch) and returns
// the concatenated canonical response stream.
std::string ServeTrace(WalkService<EmptyEdgeData>& service,
                       const std::vector<ServiceQuery>& trace) {
  std::string stream;
  size_t next = 0;
  while (next < trace.size() || service.queue_depth() > 0) {
    while (next < trace.size() && service.Submit(trace[next])) {
      ++next;
    }
    for (const ServiceResult& r : service.ProcessBatch()) {
      stream += r.Canonical();
    }
  }
  return stream;
}

TEST(ServiceDeterminismTest, ResponseStreamInvariantAcrossWorkersAndCache) {
  auto trace = FixedTrace(200);
  std::string reference;
  for (size_t workers : {size_t{0}, size_t{4}}) {
    for (size_t cache : {size_t{0}, size_t{16}}) {
      WalkService<EmptyEdgeData> service(TestGraph(), BaseOptions(workers, cache));
      service.BuildIndex();
      std::string stream = ServeTrace(service, trace);
      if (reference.empty()) {
        reference = stream;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(stream, reference)
            << "response stream diverged at workers=" << workers << " cache=" << cache;
      }
    }
  }
  // Message faults in every engine run (index build and live walks) over
  // four nodes, since faults hit cross-node channels only: the reliability
  // protocol must hide them, so the stream stays byte-identical to the
  // fault-free single-node reference.
  for (size_t workers : {size_t{0}, WorkersFromEnv()}) {
    SCOPED_TRACE("faulted, workers=" + std::to_string(workers));
    FaultInjector injector(
        FaultPolicy{.drop = 0.02, .delay = 0.02, .duplicate = 0.01, .reorder = true});
    WalkServiceOptions opts = BaseOptions(workers, 16);
    opts.engine.num_nodes = 4;
    opts.engine.fault_injector = &injector;
    WalkService<EmptyEdgeData> service(TestGraph(), opts);
    service.BuildIndex();
    injector.ResetCounters();  // count the live walks' faults only
    EXPECT_EQ(ServeTrace(service, trace), reference);
    const FaultCounters fired = injector.counters();
    EXPECT_GT(fired.dropped, 0u);
    EXPECT_GT(fired.delayed, 0u);
    EXPECT_GT(fired.duplicated, 0u);
    EXPECT_GT(service.counters().live_walks, 0u);
  }
}

TEST(ServiceDeterminismTest, RepeatedIndexBuildsAreByteIdentical) {
  std::string paths[2];
  for (int i = 0; i < 2; ++i) {
    WalkService<EmptyEdgeData> service(TestGraph(), BaseOptions(WorkersFromEnv(), 0));
    service.BuildIndex();
    paths[i] = IndexPath("rebuild_" + std::to_string(i));
    std::string error;
    ASSERT_TRUE(service.SaveIndex(paths[i], &error)) << error;
  }
  std::FILE* a = std::fopen(paths[0].c_str(), "rb");
  std::FILE* b = std::fopen(paths[1].c_str(), "rb");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::string da, db;
  int c;
  while ((c = std::fgetc(a)) != EOF) {
    da.push_back(static_cast<char>(c));
  }
  while ((c = std::fgetc(b)) != EOF) {
    db.push_back(static_cast<char>(c));
  }
  std::fclose(a);
  std::fclose(b);
  ASSERT_FALSE(da.empty());
  EXPECT_EQ(da, db);
}

TEST(ServiceDeterminismTest, SavedIndexRoundTripsThroughLoad) {
  WalkService<EmptyEdgeData> built(TestGraph(), BaseOptions(WorkersFromEnv(), 0));
  built.BuildIndex();
  std::string path = IndexPath("roundtrip");
  std::string error;
  ASSERT_TRUE(built.SaveIndex(path, &error)) << error;
  auto trace = FixedTrace(200);
  std::string from_build = ServeTrace(built, trace);

  WalkService<EmptyEdgeData> loaded(TestGraph(), BaseOptions(WorkersFromEnv(), 0));
  ASSERT_TRUE(loaded.LoadIndex(path, &error)) << error;
  EXPECT_EQ(ServeTrace(loaded, trace), from_build);
}

uint64_t CounterValue(const obs::MetricsRegistry& reg, const std::string& name,
                      const std::string& label_value = "") {
  for (const obs::Metric* m : reg.Sorted()) {
    if (m->name != name) {
      continue;
    }
    if (!label_value.empty()) {
      bool match = false;
      for (const auto& [k, v] : m->labels) {
        match |= v == label_value;
      }
      if (!match) {
        continue;
      }
    }
    return m->ivalue;
  }
  ADD_FAILURE() << "metric not found: " << name;
  return ~uint64_t{0};
}

// Online index refresh: StageIndex validates and parks a new index without
// touching the serving path; the next ProcessBatch adopts it at the batch
// boundary, so no query ever observes a half-swapped index.
TEST(ServiceStagedIndexTest, StagedIndexIsAdoptedAtTheNextBatchBoundary) {
  // Build and save a refreshed index with a different shape.
  WalkServiceOptions big = BaseOptions(WorkersFromEnv(), 0);
  big.segments_per_vertex = 8;
  WalkService<EmptyEdgeData> builder(TestGraph(), big);
  builder.BuildIndex();
  std::string path = IndexPath("staged");
  std::string error;
  ASSERT_TRUE(builder.SaveIndex(path, &error)) << error;

  // A serving instance still on the original (smaller) index.
  WalkService<EmptyEdgeData> service(TestGraph(), BaseOptions(WorkersFromEnv(), 0));
  service.BuildIndex();
  const size_t old_segments = service.index().num_segments();
  ASSERT_NE(old_segments, builder.index().num_segments());

  ServiceQuery q{QueryKind::kPpr, 7, 20};
  ASSERT_TRUE(service.Submit(q));
  ASSERT_EQ(service.ProcessBatch().size(), 1u);

  ASSERT_TRUE(service.StageIndex(path, &error)) << error;
  // Staging alone must not disturb the serving index.
  EXPECT_EQ(service.index().num_segments(), old_segments);
  EXPECT_EQ(service.counters().index_swaps, 0u);

  ASSERT_TRUE(service.Submit(q));
  auto after = service.ProcessBatch();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(service.counters().index_swaps, 1u);
  EXPECT_EQ(service.index().num_segments(), builder.index().num_segments());

  // Post-swap responses match a service that loaded the same index directly:
  // the response stays a pure function of (seed, index, query content).
  WalkService<EmptyEdgeData> loaded(TestGraph(), BaseOptions(WorkersFromEnv(), 0));
  ASSERT_TRUE(loaded.LoadIndex(path, &error)) << error;
  EXPECT_EQ(loaded.ServeOne(q).Canonical(), after[0].Canonical());

  // The swap shows up in the exported snapshot.
  obs::MetricsRegistry reg;
  service.ExportMetrics(reg);
  EXPECT_EQ(CounterValue(reg, "service.index_swaps"), 1u);
}

TEST(ServiceStagedIndexTest, StageIndexRefusesForeignIndex) {
  WalkServiceOptions other = BaseOptions(WorkersFromEnv(), 0);
  other.seed = kSeed + 1;
  WalkService<EmptyEdgeData> builder(TestGraph(), other);
  builder.BuildIndex();
  std::string path = IndexPath("staged_foreign");
  std::string error;
  ASSERT_TRUE(builder.SaveIndex(path, &error)) << error;

  WalkService<EmptyEdgeData> service(TestGraph(), BaseOptions(WorkersFromEnv(), 0));
  service.BuildIndex();
  EXPECT_FALSE(service.StageIndex(path, &error));
  EXPECT_FALSE(error.empty());
  // The rejected stage leaves serving untouched and counts no swap.
  ASSERT_TRUE(service.Submit(ServiceQuery{QueryKind::kPpr, 3, 10}));
  EXPECT_EQ(service.ProcessBatch().size(), 1u);
  EXPECT_EQ(service.counters().index_swaps, 0u);
}

TEST(ServiceDeterminismTest, IdenticalQueriesShareRandomnessWithinABatch) {
  WalkService<EmptyEdgeData> service(TestGraph(), BaseOptions(WorkersFromEnv(), 0));
  service.BuildIndex();
  ServiceQuery q{QueryKind::kPpr, 11, 25};
  ASSERT_TRUE(service.Submit(q));
  ASSERT_TRUE(service.Submit(q));
  auto results = service.ProcessBatch();
  ASSERT_EQ(results.size(), 2u);
  // No cache: both are computed, and must still agree byte for byte.
  EXPECT_EQ(results[0].Canonical(), results[1].Canonical());
}

TEST(ServiceCacheTest, LruEvictionOrderAndCountersMatchExportedMetrics) {
  WalkServiceOptions opts = BaseOptions(WorkersFromEnv(), 2);  // capacity 2
  WalkService<EmptyEdgeData> service(TestGraph(), opts);
  service.BuildIndex();
  ServiceQuery a{QueryKind::kPpr, 1, 10};
  ServiceQuery b{QueryKind::kPpr, 2, 10};
  ServiceQuery c{QueryKind::kPpr, 3, 10};

  auto first_a = service.ServeOne(a);  // miss -> {a}
  EXPECT_FALSE(first_a.from_cache);
  service.ServeOne(b);                // miss -> {b, a}
  auto hit_a = service.ServeOne(a);   // hit  -> {a, b}
  EXPECT_TRUE(hit_a.from_cache);
  EXPECT_EQ(hit_a.Canonical(), first_a.Canonical());
  service.ServeOne(c);                // miss, evicts b -> {c, a}
  auto miss_b = service.ServeOne(b);  // miss again (was evicted), evicts a
  EXPECT_FALSE(miss_b.from_cache);

  const ResultCache& cache = service.cache();
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);
  std::vector<uint64_t> expected_keys = {HashCombine64(kSeed, QueryContentKey(b)),
                                         HashCombine64(kSeed, QueryContentKey(c))};
  EXPECT_EQ(cache.KeysByRecency(), expected_keys);

  obs::MetricsRegistry reg;
  service.ExportMetrics(reg);
  EXPECT_EQ(CounterValue(reg, "service.cache_hits"), cache.hits());
  EXPECT_EQ(CounterValue(reg, "service.cache_misses"), cache.misses());
  EXPECT_EQ(CounterValue(reg, "service.cache_evictions"), cache.evictions());
  EXPECT_EQ(CounterValue(reg, "service.cache_entries"), 2u);
  EXPECT_EQ(CounterValue(reg, "service.queries_served", "ppr"), 5u);
  // The exported snapshot must satisfy the kk-metrics schema.
  metrics::CheckResult check = metrics::CheckJsonText(reg.ToJson());
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(ServiceBackpressureTest, BoundedQueueRefusesAndCounts) {
  WalkServiceOptions opts = BaseOptions(WorkersFromEnv(), 0);
  opts.max_queue_depth = 4;
  opts.max_batch = 3;
  WalkService<EmptyEdgeData> service(TestGraph(), opts);
  service.BuildIndex();
  ServiceQuery q{QueryKind::kPpr, 5, 10};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(service.Submit(q));
  }
  EXPECT_FALSE(service.Submit(q));
  EXPECT_FALSE(service.Submit(q));
  EXPECT_EQ(service.queue_depth(), 4u);
  EXPECT_EQ(service.counters().rejected, 2u);
  EXPECT_EQ(service.counters().peak_queue_depth, 4u);

  EXPECT_EQ(service.ProcessBatch().size(), 3u);  // max_batch bounds the drain
  EXPECT_EQ(service.queue_depth(), 1u);
  EXPECT_TRUE(service.Submit(q));  // space again after the drain
  EXPECT_EQ(service.ProcessBatch().size(), 2u);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.counters().served, 5u);
}

TEST(ServiceQueryTest, ContextSampleIsBoundedAndStartsAtNeighbor) {
  auto graph = TestGraph();
  WalkService<EmptyEdgeData> service(TestGraph(), BaseOptions(WorkersFromEnv(), 0));
  service.BuildIndex();
  ServiceQuery q{QueryKind::kContext, 9, 6};
  ServiceResult r = service.ServeOne(q);
  ASSERT_LE(r.context.size(), 6u);
  if (graph.OutDegree(9) > 0) {
    ASSERT_FALSE(r.context.empty());
    bool neighbor = false;
    for (const auto& e : graph.Neighbors(9)) {
      neighbor |= e.neighbor == r.context.front();
    }
    EXPECT_TRUE(neighbor) << "first context vertex must be a neighbor of the query vertex";
  }
  for (vertex_id_t v : r.context) {
    EXPECT_LT(v, graph.num_vertices());
  }
}

TEST(ServiceQueryTest, LiveOnlyServiceAnswersWithoutIndex) {
  WalkServiceOptions opts = BaseOptions(WorkersFromEnv(), 0);
  opts.segments_per_vertex = 0;  // no index: everything is a live walk
  WalkService<EmptyEdgeData> service(TestGraph(), opts);
  service.BuildIndex();
  EXPECT_TRUE(service.index().empty());
  ServiceResult r = service.ServeOne(ServiceQuery{QueryKind::kPpr, 3, 50});
  EXPECT_EQ(service.counters().segments_stitched, 0u);
  EXPECT_EQ(service.counters().live_walks, 50u);
  uint32_t endpoint_total = 0;
  for (const auto& [v, c] : r.endpoints) {
    endpoint_total += c;
  }
  EXPECT_EQ(endpoint_total, 50u);  // exactly one endpoint per walk
}

TEST(ServiceMetricsTest, StageSecondsAreUnstableGaugesPerStage) {
  WalkServiceOptions opts = BaseOptions(WorkersFromEnv(), 0);
  opts.segments_per_vertex = 1;  // one segment per vertex: live walks too
  WalkService<EmptyEdgeData> service(TestGraph(), opts);
  service.BuildIndex();
  service.ServeOne(ServiceQuery{QueryKind::kPpr, 4, 30});
  ASSERT_GT(service.counters().live_walks, 0u);

  obs::MetricsRegistry reg;
  service.ExportMetrics(reg);
  std::vector<std::string> stages;
  for (const obs::Metric* m : reg.Sorted()) {
    if (m->name == "service.stage_seconds") {
      EXPECT_FALSE(m->stable);
      EXPECT_GE(m->dvalue, 0.0);
      ASSERT_EQ(m->labels.size(), 1u);
      stages.push_back(m->labels[0].second);
    }
  }
  EXPECT_EQ(stages, (std::vector<std::string>{"accumulate", "finalize", "run", "stitch"}));
  EXPECT_EQ(reg.ToJson(obs::MetricsRegistry::Snapshot::kStableOnly).find("stage_seconds"),
            std::string::npos);
}

// With a trace recorder attached, every non-empty ProcessBatch records one
// service.batch span on the driver lane holding its four stage spans in
// order, and the live-walk engine run's own spans nest inside service.run.
TEST(ServiceTraceTest, BatchSpansHoldStageSpansAndEngineSpans) {
  obs::TraceRecorder trace;
  WalkServiceOptions opts = BaseOptions(WorkersFromEnv(), 0);
  opts.segments_per_vertex = 1;  // one segment per vertex: live walks too
  opts.engine.trace = &trace;
  WalkService<EmptyEdgeData> service(TestGraph(), opts);
  service.BuildIndex();
  trace.Reset();  // drop the index build's engine spans

  EXPECT_TRUE(service.ProcessBatch().empty());
  EXPECT_EQ(trace.size(), 0u) << "an empty queue is not a batch";
  service.ServeOne(ServiceQuery{QueryKind::kPpr, 4, 30});
  ASSERT_TRUE(service.Submit(ServiceQuery{QueryKind::kPpr, 9, 30}));
  ASSERT_TRUE(service.Submit(ServiceQuery{QueryKind::kContext, 9, 5}));
  ASSERT_EQ(service.ProcessBatch().size(), 2u);
  ASSERT_GT(service.counters().live_walks, 0u);

  const std::vector<std::string> kStages = {"service.stitch", "service.run",
                                            "service.accumulate", "service.finalize"};
  std::vector<obs::TraceRecorder::Event> batches;
  std::vector<obs::TraceRecorder::Event> stages;
  std::vector<obs::TraceRecorder::Event> engine;
  for (const obs::TraceRecorder::Event& e : trace.TakeEvents()) {
    const std::string name = e.name;
    if (name == "service.batch") {
      batches.push_back(e);
    } else if (name.rfind("service.", 0) == 0) {
      stages.push_back(e);
    } else {
      engine.push_back(e);
    }
  }
  auto inside = [](const obs::TraceRecorder::Event& inner,
                   const obs::TraceRecorder::Event& outer) {
    return inner.ts >= outer.ts && inner.ts + inner.dur <= outer.ts + outer.dur + 1e-9;
  };
  ASSERT_EQ(batches.size(), 2u);
  ASSERT_EQ(stages.size(), 2 * kStages.size());
  ASSERT_FALSE(engine.empty());
  for (size_t b = 0; b < batches.size(); ++b) {
    EXPECT_EQ(batches[b].pid, 0u);
    EXPECT_EQ(batches[b].iteration, b + 1) << "spans carry the batch number";
    for (size_t s = 0; s < kStages.size(); ++s) {
      const obs::TraceRecorder::Event& stage = stages[b * kStages.size() + s];
      EXPECT_EQ(stage.name, kStages[s]);
      EXPECT_EQ(stage.pid, 0u);
      EXPECT_EQ(stage.iteration, b + 1);
      EXPECT_TRUE(inside(stage, batches[b])) << kStages[s] << " of batch " << b + 1;
      if (s > 0) {
        const obs::TraceRecorder::Event& prev = stages[b * kStages.size() + s - 1];
        EXPECT_GE(stage.ts + 1e-9, prev.ts + prev.dur) << kStages[s] << " of batch " << b + 1;
      }
    }
  }
  for (const obs::TraceRecorder::Event& e : engine) {
    const bool in_a_run = inside(e, stages[1]) || inside(e, stages[kStages.size() + 1]);
    EXPECT_TRUE(in_a_run) << "engine span " << e.name << " outside service.run";
  }

  // A service without a recorder records no spans.
  WalkServiceOptions untraced = opts;
  untraced.engine.trace = nullptr;
  WalkService<EmptyEdgeData> quiet(TestGraph(), untraced);
  quiet.BuildIndex();
  quiet.ServeOne(ServiceQuery{QueryKind::kPpr, 4, 30});
  EXPECT_EQ(trace.size(), 0u);
}

// The visit total behind a score vector: the smallest T for which every
// score is an integral multiple of 1/T, or 0 when no T up to 10^6 is.
uint64_t VisitTotalOf(const ServiceResult& r) {
  for (uint64_t total = 1; total <= 1000000; ++total) {
    bool integral = true;
    for (const auto& [v, score] : r.scores) {
      double visits = score * static_cast<double>(total);
      if (std::abs(visits - std::round(visits)) > 1e-9) {
        integral = false;
        break;
      }
    }
    if (integral) {
      return total;
    }
  }
  return 0;
}

// A PPR answer built from `total_visits` visits of `r.query.count` walks:
// both vectors strictly ascending by vertex and exactly sized, scores
// summing to 1 and counting whole visits, endpoints one per walk.
void ExpectPprAnswerShape(const ServiceResult& r, uint64_t total_visits) {
  ASSERT_FALSE(r.scores.empty());
  ASSERT_GT(total_visits, 0u);
  double score_sum = 0.0;
  uint64_t visit_sum = 0;
  for (size_t i = 0; i < r.scores.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(r.scores[i - 1].first, r.scores[i].first);
    }
    score_sum += r.scores[i].second;
    double visits = r.scores[i].second * static_cast<double>(total_visits);
    EXPECT_NEAR(visits, std::round(visits), 1e-9) << "vertex " << r.scores[i].first;
    EXPECT_GE(std::round(visits), 1.0);
    visit_sum += static_cast<uint64_t>(std::llround(visits));
  }
  EXPECT_NEAR(score_sum, 1.0, 1e-12);
  EXPECT_EQ(visit_sum, total_visits);
  uint64_t endpoint_sum = 0;
  for (size_t i = 0; i < r.endpoints.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(r.endpoints[i - 1].first, r.endpoints[i].first);
    }
    EXPECT_GT(r.endpoints[i].second, 0u);
    endpoint_sum += r.endpoints[i].second;
  }
  EXPECT_EQ(endpoint_sum, r.query.count);
  EXPECT_EQ(r.scores.capacity(), r.scores.size());
  EXPECT_EQ(r.endpoints.capacity(), r.endpoints.size());
}

TEST(ServiceQueryTest, PprAnswersWithRevisitsAreSortedCountedAndExactlySized) {
  // 12 vertices of degree ~6 and walks of ~10 steps: every walk revisits.
  auto dense = [] {
    return Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(12, 6, 23));
  };
  std::vector<ServiceQuery> queries;
  for (vertex_id_t v : {0u, 5u, 11u}) {
    queries.push_back(ServiceQuery{QueryKind::kPpr, v, 40});
  }

  // Two segments per vertex run dry within one 40-walk query, so answers
  // mix stitched and live walks. The second pass is served from the cache.
  WalkServiceOptions opts = BaseOptions(WorkersFromEnv(), 8);
  opts.segments_per_vertex = 2;
  opts.segment_cap = 3;
  opts.terminate_prob = 0.1;
  WalkService<EmptyEdgeData> mixed(dense(), opts);
  mixed.BuildIndex();
  for (bool cached : {false, true}) {
    for (const ServiceQuery& q : queries) {
      ASSERT_TRUE(mixed.Submit(q));
    }
    for (const ServiceResult& r : mixed.ProcessBatch()) {
      EXPECT_EQ(r.from_cache, cached);
      uint64_t total_visits = VisitTotalOf(r);
      EXPECT_GT(total_visits, r.scores.size());  // some vertex was revisited
      ExpectPprAnswerShape(r, total_visits);
    }
  }
  EXPECT_GT(mixed.counters().segments_stitched, 0u);
  EXPECT_GT(mixed.counters().live_walks, 0u);

  // Live only: every walk is one engine path, so the visit total is exactly
  // the query's walks plus their steps.
  opts.segments_per_vertex = 0;
  opts.cache_capacity = 0;
  WalkService<EmptyEdgeData> live(dense(), opts);
  live.BuildIndex();
  for (const ServiceQuery& q : queries) {
    ServiceCounters before = live.counters();
    ServiceResult r = live.ServeOne(q);
    ServiceCounters after = live.counters();
    const uint64_t walks = after.live_walks - before.live_walks;
    EXPECT_EQ(walks, q.count);
    ExpectPprAnswerShape(r, walks + (after.live_walk_steps - before.live_walk_steps));
  }
}

// FNV-1a 64 of `bytes`.
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// A fixed graph, seed and query trace whose whole answer stream hashes to a
// recorded constant, so any change to an answer byte (sort order, counting,
// score arithmetic, stitching or live-walk randomness) is deliberate. The
// graph has more than 256 vertices so answer assembly sorts multi-byte ids;
// its hubs make PPR walks revisit; two short segments per vertex mix
// stitched and live walks; a small cache and 16-query batches add hits and
// batch boundaries.
TEST(ServiceGoldenTest, AnswerStreamMatchesRecordedHash) {
  constexpr vertex_id_t kVertices = 600;
  WalkServiceOptions opts = BaseOptions(WorkersFromEnv(), 8);
  opts.segments_per_vertex = 2;
  opts.segment_cap = 6;
  opts.terminate_prob = 0.1;
  opts.max_batch = 16;
  WalkService<EmptyEdgeData> service(
      Csr<EmptyEdgeData>::FromEdgeList(GenerateTruncatedPowerLaw(kVertices, 2.2, 2, 24, 11)),
      opts);
  service.BuildIndex();

  std::vector<ServiceQuery> trace;
  CounterRng rng(2024);
  for (int i = 0; i < 64; ++i) {
    ServiceQuery q;
    if (i % 5 == 4) {
      q.kind = QueryKind::kContext;
      q.count = 8;
    } else {
      q.kind = QueryKind::kPpr;
      q.count = 24;
    }
    // Half the trace comes from a 16-vertex pool so the cache hits.
    q.vertex = static_cast<vertex_id_t>(rng.Next() % (i % 2 == 0 ? 16 : kVertices));
    trace.push_back(q);
  }
  std::string stream;
  size_t revisiting_answers = 0;
  size_t next = 0;
  while (next < trace.size() || service.queue_depth() > 0) {
    while (next < trace.size() && service.Submit(trace[next])) {
      ++next;
    }
    for (const ServiceResult& r : service.ProcessBatch()) {
      stream += r.Canonical();
      if (r.query.kind == QueryKind::kPpr && VisitTotalOf(r) > r.scores.size()) {
        ++revisiting_answers;
      }
    }
  }

  const ServiceCounters c = service.counters();
  EXPECT_GT(revisiting_answers, 0u);
  EXPECT_EQ(c.served, trace.size());
  EXPECT_GT(c.segments_stitched, 0u);
  EXPECT_GT(c.live_walks, 0u);
  EXPECT_GT(service.cache().hits(), 0u);
  EXPECT_EQ(Fnv1a64(stream), 0x4034fa8899499408ULL) << std::hex << "stream hash 0x" << Fnv1a64(stream);
}

// --- Segment-index corruption matrix ----------------------------------

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string data;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    data.push_back(static_cast<char>(c));
  }
  std::fclose(f);
  return data;
}

void WriteAll(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(SegmentIndexCorruptionTest, EveryMutationFailsCleanly) {
  WalkService<EmptyEdgeData> service(TestGraph(), BaseOptions(WorkersFromEnv(), 0));
  service.BuildIndex();
  std::string path = IndexPath("corrupt_src");
  std::string error;
  ASSERT_TRUE(service.SaveIndex(path, &error)) << error;
  std::string valid = ReadAll(path);
  ASSERT_GT(valid.size(), 64u);

  // Sanity: the untouched file loads.
  SegmentIndex ok;
  ASSERT_TRUE(SegmentIndex::Load(path, &ok, &error)) << error;
  ASSERT_GT(ok.num_segments(), 0u);

  struct Mutation {
    const char* name;
    std::string data;
  };
  std::string bad_magic = valid;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x01);
  // The offsets-section count (u64) sits right after the 40-byte header;
  // 0xff bytes declare ~2^64 elements, which must be rejected before any
  // allocation is attempted.
  std::string huge_count = valid;
  for (size_t i = 0; i < 8; ++i) {
    huge_count[40 + i] = static_cast<char>(0xff);
  }
  std::string flipped = valid;
  flipped[valid.size() / 2] = static_cast<char>(flipped[valid.size() / 2] ^ 0x5a);
  const Mutation mutations[] = {
      {"bad_magic", bad_magic},
      {"truncated_header", valid.substr(0, 20)},
      {"huge_declared_count", huge_count},
      {"truncated_payload", valid.substr(0, valid.size() - 16)},
      {"flipped_payload_byte", flipped},
      {"trailing_garbage", valid + "extra"},
      {"empty_file", ""},
  };
  for (const Mutation& m : mutations) {
    std::string mutated_path = IndexPath(std::string("corrupt_") + m.name);
    WriteAll(mutated_path, m.data);
    SegmentIndex out;
    std::string err;
    EXPECT_FALSE(SegmentIndex::Load(mutated_path, &out, &err)) << m.name;
    EXPECT_FALSE(err.empty()) << m.name;
  }
}

TEST(SegmentIndexCorruptionTest, LoadRefusesForeignParameters) {
  WalkService<EmptyEdgeData> built(TestGraph(), BaseOptions(WorkersFromEnv(), 0));
  built.BuildIndex();
  std::string path = IndexPath("foreign");
  std::string error;
  ASSERT_TRUE(built.SaveIndex(path, &error)) << error;

  // Different seed: the index's walk streams would not match this service's
  // determinism contract.
  WalkServiceOptions other = BaseOptions(WorkersFromEnv(), 0);
  other.seed = kSeed + 1;
  WalkService<EmptyEdgeData> different_seed(TestGraph(), other);
  EXPECT_FALSE(different_seed.LoadIndex(path, &error));

  // Different walk law.
  WalkServiceOptions law = BaseOptions(WorkersFromEnv(), 0);
  law.terminate_prob = 0.5;
  WalkService<EmptyEdgeData> different_law(TestGraph(), law);
  EXPECT_FALSE(different_law.LoadIndex(path, &error));

  // Different graph size.
  WalkService<EmptyEdgeData> different_graph(
      Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(64, 4, 3)),
      BaseOptions(WorkersFromEnv(), 0));
  EXPECT_FALSE(different_graph.LoadIndex(path, &error));
}

}  // namespace
}  // namespace knightking
