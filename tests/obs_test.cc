// Observability-layer tests: metrics registry canonical JSON, chrome trace
// export, per-phase counter attribution, snapshot determinism, the kk-metrics
// schema checker, and the rejection-sampling telemetry checks from the paper:
// measured trials must match the Q(v)-envelope analytic expectation (§4,
// Eq. 3), and L(v) pre-acceptance must cut Pd evaluations without touching
// the walk itself (§4.2, Table 5's "L" column).
//
// The CI deterministic-sim job re-runs this binary with KK_SIM_WORKERS=4 and
// under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/apps/node2vec.h"
#include "src/apps/ppr.h"
#include "src/engine/walk_engine.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/obs/counters.h"
#include "src/obs/histogram.h"
#include "src/obs/json.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/testing/fault_injector.h"
#include "src/util/rng.h"
#include "tools/kk-metrics/check.h"

namespace knightking {
namespace {

constexpr uint64_t kSeed = 1234;

size_t WorkersFromEnv() {
  const char* env = std::getenv("KK_SIM_WORKERS");
  return env != nullptr ? static_cast<size_t>(std::atoi(env)) : 0;
}

WalkEngineOptions BaseOptions(node_rank_t num_nodes, size_t workers) {
  WalkEngineOptions opts;
  opts.num_nodes = num_nodes;
  opts.workers_per_node = workers;
  opts.seed = kSeed;
  return opts;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, CanonicalJsonRoundTripsThroughParser) {
  obs::MetricsRegistry reg;
  // Insert out of canonical order; labels out of key order.
  reg.AddCounter("zzz.last", {}, 7);
  reg.AddCounter("engine.trials", {{"workload", "n2v"}, {"node", "1"}}, 41);
  reg.AddCounter("engine.trials", {{"node", "1"}, {"workload", "n2v"}}, 1);  // same key
  reg.SetGauge("engine.acceptance_rate", {}, 0.5, /*stable=*/true);
  reg.SetGauge("engine.phase_seconds", {{"phase", "sample"}}, 1.25);  // unstable

  std::string json = reg.ToJson();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(json, &doc, &error)) << error;

  const obs::JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->AsArray().size(), 4u);
  // Canonical order: acceptance_rate, phase_seconds, trials, zzz.last.
  EXPECT_EQ(metrics->AsArray()[0].Find("name")->AsString(), "engine.acceptance_rate");
  EXPECT_EQ(metrics->AsArray()[1].Find("name")->AsString(), "engine.phase_seconds");
  EXPECT_EQ(metrics->AsArray()[2].Find("name")->AsString(), "engine.trials");
  EXPECT_EQ(metrics->AsArray()[3].Find("name")->AsString(), "zzz.last");
  // Duplicate AddCounter accumulated into one metric.
  EXPECT_EQ(metrics->AsArray()[2].Find("value")->AsNumber(), 42.0);
  // Label keys sorted regardless of insertion order.
  const auto& labels = metrics->AsArray()[2].Find("labels")->AsObject();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].first, "node");
  EXPECT_EQ(labels[1].first, "workload");

  // Stable-only mode drops exactly the unstable gauge.
  obs::JsonValue stable_doc;
  ASSERT_TRUE(obs::JsonValue::Parse(reg.ToJson(obs::MetricsRegistry::Snapshot::kStableOnly),
                                    &stable_doc, &error))
      << error;
  EXPECT_EQ(stable_doc.Find("metrics")->AsArray().size(), 3u);
}

TEST(MetricsRegistryTest, EmittedJsonPassesSchemaChecker) {
  obs::MetricsRegistry reg;
  reg.AddCounter("engine.steps", {{"workload", "ppr"}}, 100);
  reg.SetGauge("engine.acceptance_rate", {}, 1.0, /*stable=*/true);
  metrics::CheckResult r = metrics::CheckJsonText(reg.ToJson());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.kind, "kk-metrics-snapshot");

  // An empty registry is still a valid snapshot.
  obs::MetricsRegistry empty;
  EXPECT_TRUE(metrics::CheckJsonText(empty.ToJson()).ok);
}

TEST(MetricsCheckerTest, RejectsMalformedSnapshots) {
  // Wrong schema version.
  EXPECT_FALSE(metrics::CheckJsonText(
                   R"({"schema_version": 2, "kind": "kk-metrics-snapshot", "metrics": []})")
                   .ok);
  // Unrecognized document kind.
  EXPECT_FALSE(metrics::CheckJsonText(R"({"schema_version": 1, "kind": "mystery"})").ok);
  // Metric missing its value.
  EXPECT_FALSE(
      metrics::CheckJsonText(
          R"({"schema_version": 1, "kind": "kk-metrics-snapshot",
              "metrics": [{"name": "a", "labels": {}, "stable": true}]})")
          .ok);
  // Metrics out of canonical order.
  metrics::CheckResult unsorted = metrics::CheckJsonText(
      R"({"schema_version": 1, "kind": "kk-metrics-snapshot",
          "metrics": [
            {"name": "b", "labels": {}, "stable": true, "value": 1},
            {"name": "a", "labels": {}, "stable": true, "value": 1}
          ]})");
  EXPECT_FALSE(unsorted.ok);
  EXPECT_NE(unsorted.error.find("canonical"), std::string::npos) << unsorted.error;
  // Plain parse errors surface as failures, not crashes.
  EXPECT_FALSE(metrics::CheckJsonText("{\"schema_version\": 1,").ok);
}

TEST(MetricsCheckerTest, ValidatesHotpathBenchReports) {
  const std::string valid = R"({
    "schema_version": 1,
    "bench": "hotpath",
    "config": {"small": true, "sort_batches": true, "num_nodes": 4,
               "workers_per_node": 0, "checkpoint_every": 8,
               "graph_vertices": 100, "graph_edges": 400},
    "workloads": [{
      "name": "ppr", "walkers": 100, "seconds": 0.5, "walks_per_sec": 200.0,
      "steps_per_sec": 1000.0, "steps": 500, "iterations": 30,
      "edges_per_step": 0.0,
      "phase_seconds": {"sample": 0.1, "respond": 0.0, "resolve": 0.0,
                        "exchange": 0.2},
      "cross_node_messages": 10, "cross_node_bytes": 640,
      "checkpoints": 4, "checkpoint_bytes": 8192, "checkpoint_micros": 120
    }]
  })";
  metrics::CheckResult r = metrics::CheckJsonText(valid);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.kind, "hotpath");

  // The checkpoint fields are optional (pre-checkpoint reports lack them)
  // but must be numeric when present.
  std::string no_ckpt = valid;
  size_t cpos = no_ckpt.find("\"checkpoint_every\": 8,");
  ASSERT_NE(cpos, std::string::npos);
  no_ckpt.erase(cpos, std::string("\"checkpoint_every\": 8,").size());
  cpos = no_ckpt.find(",\n      \"checkpoints\": 4, \"checkpoint_bytes\": 8192, "
                      "\"checkpoint_micros\": 120");
  ASSERT_NE(cpos, std::string::npos);
  no_ckpt.erase(cpos, std::string(",\n      \"checkpoints\": 4, \"checkpoint_bytes\": "
                                  "8192, \"checkpoint_micros\": 120")
                          .size());
  metrics::CheckResult r_old = metrics::CheckJsonText(no_ckpt);
  EXPECT_TRUE(r_old.ok) << r_old.error;
  std::string bad_type = valid;
  cpos = bad_type.find("\"checkpoint_bytes\": 8192");
  ASSERT_NE(cpos, std::string::npos);
  bad_type.replace(cpos, std::string("\"checkpoint_bytes\": 8192").size(),
                   "\"checkpoint_bytes\": \"lots\"");
  EXPECT_FALSE(metrics::CheckJsonText(bad_type).ok);

  // Dropping a phase bucket must fail the check.
  std::string broken = valid;
  size_t pos = broken.find("\"resolve\": 0.0,");
  ASSERT_NE(pos, std::string::npos);
  broken.erase(pos, std::string("\"resolve\": 0.0,").size());
  EXPECT_FALSE(metrics::CheckJsonText(broken).ok);

  // Empty workload list is not a usable report.
  EXPECT_FALSE(metrics::CheckJsonText(
                   R"({"schema_version": 1, "bench": "hotpath",
                       "config": {"small": true, "sort_batches": true, "num_nodes": 4,
                                  "workers_per_node": 0, "graph_vertices": 1,
                                  "graph_edges": 1},
                       "workloads": []})")
                   .ok);
}

TEST(MetricsCheckerTest, ValidatesHotpathLocalityFields) {
  // Locality-era reports carry the machine (usable CPUs, cache sizes), the
  // setup phases and the locality/worker counters; all optional (older
  // reports lack them), numbers type-checked.
  const std::string valid = R"({
    "schema_version": 1,
    "bench": "hotpath",
    "config": {"small": true, "sort_batches": true, "num_nodes": 4,
               "workers_per_node": 0, "graph_vertices": 100, "graph_edges": 400,
               "usable_cpus": 4, "parallel_nodes": true, "l1d_bytes": 49152,
               "l2_bytes": 2097152, "llc_bytes": 314572800},
    "workloads": [{
      "name": "node2vec", "walkers": 100, "seconds": 0.5, "walks_per_sec": 200.0,
      "steps_per_sec": 1000.0, "steps": 500, "iterations": 30,
      "edges_per_step": 1.5,
      "phase_seconds": {"spec_build_s": 0.01, "prepare": 0.02, "deploy": 0.01,
                        "sample": 0.1, "respond": 0.0, "resolve": 0.0,
                        "exchange": 0.2},
      "cross_node_messages": 10, "cross_node_bytes": 640,
      "effective_workers": 0, "batch_sorts": 120
    }]
  })";
  metrics::CheckResult r = metrics::CheckJsonText(valid);
  EXPECT_TRUE(r.ok) << r.error;

  std::string bad_cpus = valid;
  size_t pos = bad_cpus.find("\"usable_cpus\": 4");
  ASSERT_NE(pos, std::string::npos);
  bad_cpus.replace(pos, std::string("\"usable_cpus\": 4").size(), "\"usable_cpus\": \"four\"");
  metrics::CheckResult r_cpus = metrics::CheckJsonText(bad_cpus);
  EXPECT_FALSE(r_cpus.ok);
  EXPECT_NE(r_cpus.error.find("usable_cpus"), std::string::npos) << r_cpus.error;

  std::string bad_counter = valid;
  pos = bad_counter.find("\"batch_sorts\": 120");
  ASSERT_NE(pos, std::string::npos);
  bad_counter.replace(pos, std::string("\"batch_sorts\": 120").size(),
                      "\"batch_sorts\": \"many\"");
  EXPECT_FALSE(metrics::CheckJsonText(bad_counter).ok);
}

// Minimal valid bench_hotpath report shared by the diff tests.
std::string HotpathReport(double walks_per_sec) {
  std::string out = R"({
    "schema_version": 1,
    "bench": "hotpath",
    "config": {"small": true, "sort_batches": true, "num_nodes": 4,
               "workers_per_node": 0, "graph_vertices": 100, "graph_edges": 400},
    "workloads": [{
      "name": "deepwalk", "walkers": 100, "seconds": 0.5, "walks_per_sec": @WPS@,
      "steps_per_sec": 1000.0, "steps": 500, "iterations": 30,
      "edges_per_step": 0.0,
      "phase_seconds": {"sample": 0.1, "respond": 0.0, "resolve": 0.0,
                        "exchange": 0.2},
      "cross_node_messages": 10, "cross_node_bytes": 640
    }]
  })";
  const std::string tag = "@WPS@";
  out.replace(out.find(tag), tag.size(), std::to_string(walks_per_sec));
  return out;
}

TEST(MetricsCheckerTest, DiffRendersPerMetricDeltas) {
  obs::JsonValue old_doc;
  obs::JsonValue new_doc;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(HotpathReport(200.0), &old_doc, &error)) << error;
  ASSERT_TRUE(obs::JsonValue::Parse(HotpathReport(250.0), &new_doc, &error)) << error;

  std::string diff = metrics::DiffDocuments(old_doc, new_doc);
  // Rows are keyed by workload name, changed metrics carry the delta and
  // percentage, unchanged metrics are dashed out.
  EXPECT_NE(diff.find("| workloads.deepwalk.walks_per_sec | 200 | 250 | +50 (+25.0%) |"),
            std::string::npos)
      << diff;
  EXPECT_NE(diff.find("| workloads.deepwalk.iterations | 30 | 30 | — |"), std::string::npos)
      << diff;

  // Invalid input and cross-kind comparisons are refused.
  obs::JsonValue junk;
  ASSERT_TRUE(obs::JsonValue::Parse("{\"schema_version\": 1}", &junk, &error)) << error;
  EXPECT_EQ(metrics::DiffDocuments(junk, new_doc).rfind("error:", 0), 0u);
}

TEST(MetricsCheckerTest, DiffListsOneSidedMetricsAsAddedAndRemoved) {
  // Rename the workload on one side: every metric under it then exists in
  // only one report, so the diff must render added/removed rows instead of
  // silently dropping them (or worse, pairing them up by position).
  std::string renamed = HotpathReport(250.0);
  size_t pos = renamed.find("\"deepwalk\"");
  ASSERT_NE(pos, std::string::npos);
  renamed.replace(pos, std::string("\"deepwalk\"").size(), "\"node2vec\"");

  obs::JsonValue old_doc;
  obs::JsonValue new_doc;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(HotpathReport(200.0), &old_doc, &error)) << error;
  ASSERT_TRUE(obs::JsonValue::Parse(renamed, &new_doc, &error)) << error;

  std::string diff = metrics::DiffDocuments(old_doc, new_doc);
  EXPECT_NE(diff.find("| workloads.node2vec.walks_per_sec | — | 250 | added |"),
            std::string::npos)
      << diff;
  EXPECT_NE(diff.find("| workloads.deepwalk.walks_per_sec | 200 | — | removed |"),
            std::string::npos)
      << diff;
  // Shared paths (config) still diff normally alongside.
  EXPECT_NE(diff.find("| config.num_nodes | 4 | 4 | — |"), std::string::npos) << diff;
}

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(TraceRecorderTest, ExportsValidChromeTraceJson) {
  obs::TraceRecorder trace;
  trace.SetProcessName(0, "driver");
  trace.SetProcessName(1, "node 0");
  double start = trace.Now();
  trace.RecordSpan("sample", 1, 0, start, 0.001, 3);
  trace.RecordSpan("exchange", 0, 0, start + 0.001, 0.002, 3);
  ASSERT_EQ(trace.size(), 2u);

  std::string json = trace.ToChromeJson();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(json, &doc, &error)) << error;
  const obs::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  // Two process_name metadata events plus the two spans.
  ASSERT_EQ(events->AsArray().size(), 4u);
  size_t metadata = 0;
  size_t spans = 0;
  for (const obs::JsonValue& e : events->AsArray()) {
    const std::string& ph = e.Find("ph")->AsString();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.Find("name")->AsString(), "process_name");
    } else {
      ASSERT_EQ(ph, "X");
      ++spans;
      EXPECT_GE(e.Find("dur")->AsNumber(), 0.0);
      EXPECT_EQ(e.Find("args")->Find("iteration")->AsNumber(), 3.0);
    }
  }
  EXPECT_EQ(metadata, 2u);
  EXPECT_EQ(spans, 2u);

  trace.Reset();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceRecorderTest, EngineRecordsPhaseSpansPerIteration) {
  auto edges = GenerateUniformDegree(100, 6, 17);
  obs::TraceRecorder trace;
  WalkEngineOptions opts = BaseOptions(2, WorkersFromEnv());
  opts.trace = &trace;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
  Node2VecParams params{.p = 2.0, .q = 0.5, .walk_length = 6};
  SamplingStats stats = engine.Run(Node2VecTransition(engine.graph(), params),
                                   Node2VecWalkers(50, params));
  ASSERT_GT(stats.iterations, 0u);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(trace.ToChromeJson(), &doc, &error)) << error;
  // Driver lane (pid 0) must carry at least one span per phase per iteration
  // family; node lanes must exist for both logical nodes.
  size_t driver_sample_spans = 0;
  bool node_lane_seen[2] = {false, false};
  for (const obs::JsonValue& e : doc.Find("traceEvents")->AsArray()) {
    if (e.Find("ph")->AsString() != "X") {
      continue;
    }
    auto pid = static_cast<uint32_t>(e.Find("pid")->AsNumber());
    if (pid == 0 && e.Find("name")->AsString() == "sample") {
      ++driver_sample_spans;
    }
    if (pid == 1 || pid == 2) {
      node_lane_seen[pid - 1] = true;
    }
  }
  EXPECT_EQ(driver_sample_spans, stats.iterations);
  EXPECT_TRUE(node_lane_seen[0]);
  EXPECT_TRUE(node_lane_seen[1]);
}

// ---------------------------------------------------------------------------
// Per-phase counters & merge behavior

// Sums one field across every node and phase of the engine's accumulators.
template <typename EdgeData>
SamplingStats SumPhaseStats(const WalkEngine<EdgeData>& engine, node_rank_t num_nodes) {
  SamplingStats total;
  for (node_rank_t n = 0; n < num_nodes; ++n) {
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      total.Merge(engine.node_observability(n).Stats(static_cast<obs::Phase>(p)));
    }
  }
  return total;
}

TEST(PhaseCountersTest, PhaseSumsMatchAggregateAcrossWorkerCounts) {
  auto edges = GenerateUniformDegree(150, 8, 31);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 10};
  SamplingStats per_worker_totals[2];
  for (size_t wi = 0; wi < 2; ++wi) {
    const size_t workers = wi == 0 ? 0 : 4;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges),
                                     BaseOptions(3, workers));
    SamplingStats aggregate = engine.Run(Node2VecTransition(engine.graph(), params),
                                         Node2VecWalkers(120, params));
    SamplingStats phase_sum = SumPhaseStats(engine, 3);
    // Every counter that flows through scratch merges or driver deltas must
    // be fully phase-attributed. (`iterations` is driver-side bookkeeping
    // and intentionally not part of the phase breakdown.)
    phase_sum.iterations = aggregate.iterations;
    aggregate.ForEachField([&](const char* field, uint64_t expect) {
      uint64_t got = 0;
      phase_sum.ForEachField([&](const char* f2, uint64_t v) {
        if (std::string(field) == f2) {
          got = v;
        }
      });
      EXPECT_EQ(got, expect) << "field " << field << " workers=" << workers;
    });
    // Sampling work lands in the sample phase; query resolution in resolve.
    SamplingStats sample;
    SamplingStats resolve;
    for (node_rank_t n = 0; n < 3; ++n) {
      sample.Merge(engine.node_observability(n).Stats(obs::Phase::kSample));
      resolve.Merge(engine.node_observability(n).Stats(obs::Phase::kResolve));
    }
    EXPECT_GT(sample.trials, 0u);
    EXPECT_EQ(sample.trials, aggregate.trials) << "trials are drawn only in phase A";
    EXPECT_GT(resolve.pd_computations, 0u) << "remote queries must resolve in phase C";
    per_worker_totals[wi] = aggregate;
  }
  // Walker RNG streams make the counters worker-count-invariant.
  per_worker_totals[0].ForEachField([&](const char* field, uint64_t v0) {
    per_worker_totals[1].ForEachField([&](const char* f2, uint64_t v1) {
      if (std::string(field) == f2) {
        EXPECT_EQ(v0, v1) << "field " << field << " differs across worker counts";
      }
    });
  });
}

// ---------------------------------------------------------------------------
// Snapshot determinism

TEST(SnapshotDeterminismTest, StableMetricsAreByteIdenticalAcrossRuns) {
  auto edges = GenerateUniformDegree(150, 8, 31);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 10};
  auto run_snapshot = [&]() {
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges),
                                     BaseOptions(3, WorkersFromEnv()));
    engine.Run(Node2VecTransition(engine.graph(), params), Node2VecWalkers(120, params));
    obs::MetricsRegistry reg;
    engine.ExportMetrics(reg, {{"workload", "node2vec"}});
    return reg.ToJson(obs::MetricsRegistry::Snapshot::kStableOnly);
  };
  std::string first = run_snapshot();
  std::string second = run_snapshot();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_TRUE(metrics::CheckJsonText(first).ok);
}

TEST(SnapshotDeterminismTest, StableMetricsSurviveFaultInjection) {
  auto edges = GenerateUniformDegree(120, 8, 77);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 8};
  FaultPolicy policy;
  policy.drop = 0.1;
  policy.delay = 0.1;
  auto run_snapshot = [&]() {
    FaultInjector injector(policy);
    WalkEngineOptions opts = BaseOptions(3, WorkersFromEnv());
    opts.fault_injector = &injector;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
    SamplingStats stats = engine.Run(Node2VecTransition(engine.graph(), params),
                                     Node2VecWalkers(100, params));
    EXPECT_GT(stats.walker_retransmits + stats.query_retries, 0u)
        << "fault policy never fired; determinism check is vacuous";
    obs::MetricsRegistry reg;
    engine.ExportMetrics(reg, {{"workload", "node2vec"}});
    return reg.ToJson(obs::MetricsRegistry::Snapshot::kStableOnly);
  };
  // The content-keyed fault schedule makes even retransmit/retry counters a
  // pure function of (graph, options, seed, policy): snapshots must match.
  EXPECT_EQ(run_snapshot(), run_snapshot());
}

// ---------------------------------------------------------------------------
// Rejection-sampling telemetry vs. the paper's analytic model

// With p = 1 and q = 4, 1/p == 1 does not dominate max(1, 1/q) == 1, so no
// outlier is folded and the envelope Q(v) is exactly 1 with uniform Ps. The
// acceptance probability of a trial at v (arrived from t) is then
//     acc(t, v) = sum_x Pd(t, v, x) / (Q * deg(v)),
// and trials-to-acceptance is geometric, so the expected total trial count is
// the sum of 1/acc over every realized transition of every walk.
TEST(TelemetryTest, ExpectedTrialsMatchEnvelopeAnalytic) {
  auto edges = GenerateUniformDegree(200, 8, 201);
  auto replay = Csr<EmptyEdgeData>::FromEdgeList(edges);
  Node2VecParams params{.p = 1.0, .q = 4.0, .walk_length = 16};
  const double inv_q = 1.0 / params.q;

  WalkEngineOptions opts = BaseOptions(4, WorkersFromEnv());
  opts.collect_paths = true;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
  SamplingStats stats = engine.Run(Node2VecTransition(engine.graph(), params),
                                   Node2VecWalkers(300, params));
  std::vector<std::vector<vertex_id_t>> paths = engine.TakePaths();

  double expected_trials = 0.0;
  size_t transitions = 0;
  for (const auto& path : paths) {
    for (size_t s = 0; s + 1 < path.size(); ++s) {
      ++transitions;
      if (s == 0) {
        expected_trials += 1.0;  // step 0 accepts every dart (Pd == Q)
        continue;
      }
      vertex_id_t t = path[s - 1];
      vertex_id_t v = path[s];
      double pd_sum = 0.0;
      for (const auto& adj : replay.Neighbors(v)) {
        if (adj.neighbor == t) {
          pd_sum += 1.0;  // 1/p
        } else {
          pd_sum += replay.HasNeighbor(t, adj.neighbor) ? 1.0 : inv_q;
        }
      }
      ASSERT_GT(pd_sum, 0.0);
      // 1/acc with Q == 1 and uniform Ps: deg(v) / sum Pd.
      expected_trials += static_cast<double>(replay.OutDegree(v)) / pd_sum;
    }
  }
  ASSERT_EQ(stats.steps, transitions);
  ASSERT_GT(expected_trials, 0.0);

  double measured = static_cast<double>(stats.trials);
  EXPECT_NEAR(measured, expected_trials, 0.10 * expected_trials)
      << "measured trials diverge >10% from the Q(v)-envelope expectation";
  // Sanity on the derived telemetry: every trial resolved one way.
  EXPECT_EQ(stats.trial_accepts + stats.trial_rejects, stats.trials);
  EXPECT_EQ(stats.trial_accepts, stats.steps);
  EXPECT_GT(stats.pre_accepts, 0u) << "L = 1/q must pre-accept some darts";
}

// L(v) pre-acceptance never changes a decision (L <= Pd by construction) and
// consumes no extra randomness, so the walks must be bit-identical with the
// optimization on or off — only the Pd-evaluation (and query) cost may drop.
TEST(TelemetryTest, LowerBoundPreAcceptanceCutsCostNotWalks) {
  auto edges = GenerateUniformDegree(200, 8, 201);
  Node2VecParams with_l{.p = 1.0, .q = 4.0, .walk_length = 16, .use_lower_bound = true};
  Node2VecParams without_l = with_l;
  without_l.use_lower_bound = false;

  auto run = [&](const Node2VecParams& params, std::vector<PathEntry>* paths) {
    WalkEngineOptions opts = BaseOptions(4, WorkersFromEnv());
    opts.collect_paths = true;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
    SamplingStats stats = engine.Run(Node2VecTransition(engine.graph(), params),
                                     Node2VecWalkers(300, params));
    *paths = engine.TakePathEntries();
    return stats;
  };

  std::vector<PathEntry> paths_with;
  std::vector<PathEntry> paths_without;
  SamplingStats s_with = run(with_l, &paths_with);
  SamplingStats s_without = run(without_l, &paths_without);

  EXPECT_EQ(paths_with, paths_without) << "pre-acceptance changed the walk";
  EXPECT_EQ(s_with.trials, s_without.trials);
  EXPECT_GT(s_with.pre_accepts, 0u);
  EXPECT_EQ(s_without.pre_accepts, 0u);
  EXPECT_LT(s_with.pd_computations, s_without.pd_computations)
      << "the lower bound must measurably reduce Pd evaluations";
  // Pre-acceptance happens before the adjacency query is even issued, so it
  // also saves query traffic.
  EXPECT_LT(s_with.queries_local + s_with.queries_remote,
            s_without.queries_local + s_without.queries_remote);
}

// --- LatencyHistogram --------------------------------------------------------

// The log-linear buckets tile [0, 2^64) without gaps or overlaps, and every
// bucket above the exact range is at most 1/16 as wide as its smallest value.
TEST(LatencyHistogramTest, BucketsTileTheRangeAtOneSixteenthWidth) {
  using H = obs::LatencyHistogram;
  uint64_t expected_lower = 0;
  for (size_t b = 0; b < H::kNumBuckets; ++b) {
    const uint64_t lower = H::BucketLower(b);
    const uint64_t last = lower + (H::BucketWidth(b) - 1);
    ASSERT_EQ(lower, expected_lower) << "bucket " << b;
    EXPECT_EQ(H::BucketOf(lower), b);
    EXPECT_EQ(H::BucketOf(last), b);
    if (b >= H::kSubBuckets) {
      EXPECT_LE(H::BucketWidth(b) * H::kSubBuckets, lower) << "bucket " << b;
    }
    expected_lower = last + 1;  // wraps to 0 after the last bucket
  }
  EXPECT_EQ(expected_lower, 0u);
  EXPECT_EQ(H::BucketOf(~uint64_t{0}), H::kNumBuckets - 1);
}

// Nearest-rank percentile of raw samples: the ceil(q * n)-th smallest.
uint64_t ExactPercentile(std::vector<uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

// Reported percentiles are bucket midpoints: within 1/32 of the exact
// raw-sample percentile (half the 1/16 bucket width), for every level and
// sample shape, including the shape the old log2 layout reported as 2^27 ns.
TEST(LatencyHistogramTest, PercentilesWithinBucketErrorOfExact) {
  CounterRng rng(0x68697374ULL);
  struct Shape {
    const char* name;
    std::function<uint64_t()> draw;
  };
  const Shape shapes[] = {
      {"log_uniform_100ns_10s",
       [&] { return static_cast<uint64_t>(100.0 * std::pow(1e8, rng.NextDouble())); }},
      {"exponential_2ms",
       [&] { return static_cast<uint64_t>(-2e6 * std::log(1.0 - rng.NextDouble())); }},
      {"band_100_110ms", [&] { return 100'000'000 + rng.Next() % 10'000'000; }},
      {"tiny_0_40ns", [&] { return rng.Next() % 40; }},
      {"constant", [] { return uint64_t{123'456'789}; }},
  };
  const double levels[] = {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0};
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{1000}, size_t{20000}}) {
      std::vector<uint64_t> samples(n);
      obs::LatencyHistogram h;
      for (uint64_t& s : samples) {
        s = shape.draw();
        h.Record(s);
      }
      ASSERT_EQ(h.count(), n);
      EXPECT_EQ(h.min(), *std::min_element(samples.begin(), samples.end()));
      EXPECT_EQ(h.max(), *std::max_element(samples.begin(), samples.end()));
      for (double q : levels) {
        const uint64_t exact = ExactPercentile(samples, q);
        const uint64_t got = h.PercentileNanos(q);
        const uint64_t err = got > exact ? got - exact : exact - got;
        EXPECT_LE(err * 32, exact) << "n=" << n << " q=" << q << " exact=" << exact
                                   << " reported=" << got;
      }
    }
  }
  EXPECT_EQ(obs::LatencyHistogram{}.PercentileNanos(0.5), 0u);
}

// Merging shards gives the histogram of the union whatever the merge order
// or the order samples arrived in — the property the serving determinism
// tests rely on.
TEST(LatencyHistogramTest, MergeIsIndependentOfOrder) {
  CounterRng rng(0x6d657267ULL);
  std::vector<uint64_t> samples(5000);
  for (uint64_t& s : samples) {
    s = static_cast<uint64_t>(1000.0 * std::pow(1e6, rng.NextDouble()));
  }
  obs::LatencyHistogram shards[3];
  obs::LatencyHistogram whole;
  for (size_t i = 0; i < samples.size(); ++i) {
    shards[i % 3].Record(samples[i]);
    whole.Record(samples[i]);
  }
  std::vector<uint64_t> shuffled = samples;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  obs::LatencyHistogram reordered;
  for (uint64_t s : shuffled) {
    reordered.Record(s);
  }
  EXPECT_EQ(reordered, whole);

  const int orders[][3] = {{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}};
  for (const auto& order : orders) {
    obs::LatencyHistogram merged;
    merged.Merge(obs::LatencyHistogram{});  // merging empty is the identity
    for (int i : order) {
      merged.Merge(shards[i]);
    }
    EXPECT_EQ(merged, whole);
    EXPECT_EQ(merged.PercentileNanos(0.5), whole.PercentileNanos(0.5));
    EXPECT_EQ(merged.PercentileNanos(0.99), whole.PercentileNanos(0.99));
  }
}

}  // namespace
}  // namespace knightking
