// The two batch workloads, node2vec and deepwalk_churn: one Run of one
// walker per vertex is a repetition. An untraced run times fresh set-ups
// and Runs until --seconds are spent; a traced run alternates traced and
// untraced Runs and then times each layer's public functions on the
// workload's own data.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kkbench/bench.h"
#include "src/apps/deepwalk.h"
#include "src/apps/node2vec.h"
#include "src/engine/mailbox.h"
#include "src/graph/annotate.h"
#include "src/graph/delta_store.h"
#include "src/graph/generators.h"
#include "src/graph/neighbor_index.h"
#include "src/obs/metrics_registry.h"
#include "src/sampling/static_sampler.h"
#include "src/sampling/weight_class.h"

namespace kkbench {

using namespace knightking;  // NOLINT(build/namespaces): benchmark TU

namespace {

using obs::TraceRecorder;

// bench_hotpath's graph: large enough that a batch's working set exceeds the
// L2 share, so the engine's locality pass stays on.
constexpr vertex_id_t kBatchVertices = 60000;
constexpr step_t kWalkLength = 80;

// deepwalk_churn's mutation log: one batch per superstep for the whole walk.
// A tenth of the sources follow a Zipf law over degree rank, so popular rows
// cross the engine's merge threshold (64) several times per run.
constexpr size_t kChurnBatches = kWalkLength - 1;
constexpr size_t kMutationsPerBatch = 600;
constexpr double kHotSourceShare = 0.1;
constexpr double kHotZipfTheta = 1.0;

// The graph and its weights are fixed (bench_hotpath's graph seed); --seed
// drives the walks and the mutation log, so seeds differ in work, not in
// input shape.
constexpr uint64_t kGraphSeed = 20190707;
constexpr uint64_t kWeightSeed = 41;
// Salts that derive the other inputs from --seed.
constexpr uint64_t kLogSalt = 0x6c6f67ULL;
constexpr uint64_t kRunSalt = 0x72756eULL;

// p99 is reported from at least this many raw samples (ten beyond it).
constexpr size_t kMinLatencySamples = 1000;

// Probe sizes: operations per timed round of each unit-cost loop.
constexpr uint64_t kProbeOps = 1u << 21;
constexpr int kProbeRounds = 5;

template <typename EdgeData>
struct BatchWorkload {
  const char* name = "";
  EdgeList<EdgeData> edges;
  const MutationLog* log = nullptr;
  std::function<TransitionSpec<EdgeData>(const Csr<EdgeData>&)> make_spec;
  WalkerSpec<> walkers;
  uint64_t run_seed = 0;
  bool second_order = false;
};

struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  SamplingStats stats;
  EnginePhaseTimes phases;
  uint64_t cross_node_bytes = 0;
  MutationCounters mutations;
  uint64_t merge_micros = 0;
  uint64_t sampler_bytes = 0;
  std::vector<double> superstep_ms;
  std::vector<std::vector<vertex_id_t>> paths;
};

// Superstep latency from the engine's driver-lane phase spans: the time from
// one superstep's first span to the next one's, which includes the
// top-of-loop mutation apply and merges; the last ends with its last span.
std::vector<double> SuperstepMillis(const std::vector<TraceRecorder::Event>& events) {
  std::map<uint64_t, std::pair<double, double>> bounds;  // iteration -> [start, end]
  for (const auto& e : events) {
    if (e.pid != 0 || e.iteration == 0) {
      continue;
    }
    auto [it, inserted] = bounds.try_emplace(e.iteration, e.ts, e.ts + e.dur);
    if (!inserted) {
      it->second.first = std::min(it->second.first, e.ts);
      it->second.second = std::max(it->second.second, e.ts + e.dur);
    }
  }
  std::vector<double> ms;
  for (auto it = bounds.begin(); it != bounds.end(); ++it) {
    auto next = std::next(it);
    const double end = next != bounds.end() ? next->second.first : it->second.second;
    ms.push_back((end - it->second.first) * 1e3);
  }
  return ms;
}

template <typename EdgeData>
uint64_t SamplerBytes(const WalkEngine<EdgeData>& e) {
  obs::MetricsRegistry reg;
  e.ExportMetrics(reg);
  for (const obs::Metric* m : reg.Sorted()) {
    if (m->name == "engine.sampler_bytes") {
      return m->ivalue;
    }
  }
  return 0;
}

// One repetition: set up from the edge list, then Run. `engine_trace` gets
// the engine's own phase spans, `bench_trace` the benchmark's layer spans.
template <typename EdgeData>
RepResult RunRep(const BatchWorkload<EdgeData>& w, TraceRecorder* engine_trace,
                 TraceRecorder* bench_trace, bool collect_paths) {
  WalkEngineOptions opts = SingleThreadEngineOptions(w.run_seed);
  opts.trace = engine_trace;
  opts.collect_paths = collect_paths;
  if (w.log != nullptr) {
    opts.mutation_log = w.log;
    opts.dynamic_sampler = DynamicSamplerMode::kAliasClass;
  }
  RepResult r;
  Timer setup;
  std::unique_ptr<WalkEngine<EdgeData>> engine;
  {
    Csr<EdgeData> csr;
    {
      ScopedSpan span(bench_trace, "graph.csr_build");
      csr = Csr<EdgeData>::FromEdgeList(w.edges);
    }
    ScopedSpan span(bench_trace, "engine.construct");
    engine = std::make_unique<WalkEngine<EdgeData>>(std::move(csr), opts);
  }
  // node2vec's spec builds its NeighborIndex: part of being ready to walk.
  TransitionSpec<EdgeData> spec = w.make_spec(engine->graph());
  r.setup_s = setup.Seconds();

  Timer run;
  {
    ScopedSpan span(bench_trace, "engine.run");
    r.stats = engine->Run(spec, w.walkers);
  }
  r.run_s = run.Seconds();
  if (engine_trace != nullptr && bench_trace == nullptr) {
    r.superstep_ms = SuperstepMillis(engine_trace->TakeEvents());
  }
  r.phases = engine->phase_times();
  r.cross_node_bytes = engine->cross_node_bytes();
  r.mutations = engine->mutation_counters();
  r.merge_micros = engine->merge_micros();
  r.sampler_bytes = SamplerBytes(*engine);
  if (collect_paths) {
    r.paths = engine->TakePaths();
  }
  return r;
}

// The engine's stable counts: equal across repetitions and runs of a seed.
std::string CountsDigest(const RepResult& r) {
  Digest d;
  r.stats.ForEachField([&d](const char*, uint64_t v) { d.AddU64(v); });
  d.AddU64(r.mutations.applied());
  d.AddU64(r.mutations.rejected);
  d.AddU64(r.mutations.merges);
  d.AddU64(r.mutations.full_builds);
  d.AddU64(r.mutations.bucket_builds);
  d.AddU64(r.mutations.incremental_updates);
  return d.Hex();
}

// Checks every path of the untimed collect pass: full length, and (on a
// static graph) every step an edge of the graph. Returns the path digest.
template <typename EdgeData>
std::string CheckPaths(const BatchWorkload<EdgeData>& w, const RepResult& r,
                       const Csr<EdgeData>& csr, Outcome* out) {
  Digest d;
  uint64_t bad = 0;
  if (r.paths.size() != w.walkers.num_walkers) {
    out->Fail("collect pass returned " + std::to_string(r.paths.size()) + " paths");
  }
  for (const auto& path : r.paths) {
    d.AddU64(path.size());
    bool ok = path.size() == static_cast<size_t>(kWalkLength) + 1;
    for (size_t i = 0; i < path.size(); ++i) {
      d.AddU64(path[i]);
      if (w.log == nullptr && i > 0 && !csr.HasNeighbor(path[i - 1], path[i])) {
        ok = false;
      }
    }
    bad += ok ? 0 : 1;
  }
  if (bad > 0) {
    out->Fail(std::to_string(bad) + " walks failed the path check");
    out->failed += bad;
  }
  return d.Hex();
}

double MedianOf(const std::vector<RepResult>& reps, double RepResult::*field) {
  std::vector<double> v;
  for (const RepResult& r : reps) {
    v.push_back(r.*field);
  }
  return Median(v);
}

double MedianPhase(const std::vector<RepResult>& reps, double EnginePhaseTimes::*field) {
  std::vector<double> v;
  for (const RepResult& r : reps) {
    v.push_back(r.phases.*field);
  }
  return Median(v);
}

// Flattened walk-visit order of the collect pass (probe input).
std::vector<vertex_id_t> VisitOrder(const std::vector<std::vector<vertex_id_t>>& paths,
                                    size_t limit) {
  std::vector<vertex_id_t> order;
  for (size_t step = 0; step <= kWalkLength && order.size() < limit; ++step) {
    for (const auto& path : paths) {
      if (step < path.size()) {
        order.push_back(path[step]);
      }
    }
  }
  if (order.size() > limit) {
    order.resize(limit);
  }
  return order;
}

// Unit costs of the graph and sampling layers on the workload's own data.
template <typename EdgeData>
void ProbeLayers(const BatchWorkload<EdgeData>& w, const Csr<EdgeData>& csr,
                 const std::vector<std::vector<vertex_id_t>>& paths, LayerLedger* led) {
  const std::vector<vertex_id_t> visits = VisitOrder(paths, kProbeOps);

  // NeighborIndex::Contains on node2vec's own queries: (t, x) pairs of
  // consecutive path hops.
  {
    NeighborIndex index = NeighborIndex::Build(csr);
    std::vector<std::pair<vertex_id_t, vertex_id_t>> pairs;
    for (const auto& path : paths) {
      for (size_t i = 2; i < path.size() && pairs.size() < kProbeOps; ++i) {
        pairs.emplace_back(path[i - 2], path[i]);
      }
    }
    uint64_t hits = 0;
    led->neighbor_contains_ns = NsPerOp(pairs.size(), kProbeRounds, [&](uint64_t i) {
      hits += index.Contains(pairs[i].first, pairs[i].second) ? 1 : 0;
    });
    g_sink = hits;
  }

  // StaticSamplerSet::Build and Sample in walk-visit order.
  {
    std::vector<double> build_s;
    for (int r = 0; r < 3; ++r) {
      StaticSamplerSet<EdgeData> s;
      Timer t;
      s.Build(csr, StaticSamplerKind::kAuto, nullptr);
      build_s.push_back(t.Seconds());
    }
    led->static_build_s = Median(build_s);
    StaticSamplerSet<EdgeData> sampler;
    sampler.Build(csr, StaticSamplerKind::kAuto, nullptr);
    Rng rng(w.run_seed);
    uint64_t acc = 0;
    led->static_draw_ns = NsPerOp(visits.size(), kProbeRounds, [&](uint64_t i) {
      acc += sampler.Sample(visits[i], rng);
    });
    g_sink = acc;
  }

  if (w.log == nullptr) {
    return;
  }
  if constexpr (HasWeight<EdgeData>) {
    // DeltaStore::Apply over the workload's log (rows materialized first, so
    // the loop times Apply alone; no merges).
    std::vector<EdgeMutation> muts;
    for (size_t b = 0; b < w.log->num_batches(); ++b) {
      const auto& batch = w.log->batch(b).mutations;
      muts.insert(muts.end(), batch.begin(), batch.end());
    }
    std::vector<double> apply_ns;
    DeltaStore<EdgeData> final_store;
    for (int r = 0; r <= kProbeRounds; ++r) {
      DeltaStore<EdgeData> store;
      store.Reset(&csr);
      for (const EdgeMutation& m : muts) {
        if (!store.IsDirty(m.src)) {
          store.Materialize(m.src);
        }
      }
      Timer t;
      for (const EdgeMutation& m : muts) {
        store.Apply(m, 0);
      }
      if (r > 0) {
        apply_ns.push_back(t.Seconds() * 1e9 / static_cast<double>(muts.size()));
      }
      final_store = std::move(store);
    }
    led->delta_apply_ns = Median(apply_ns);

    // LazyAliasRow draws on the churned rows, in walk-visit order.
    std::map<vertex_id_t, size_t> row_of;
    std::deque<LazyAliasRow> rows;  // rows hold a mutex: never moved
    for (const EdgeMutation& m : muts) {
      if (row_of.count(m.src) != 0) {
        continue;
      }
      std::vector<real_t> weights;
      for (const auto& adj : final_store.Neighbors(m.src)) {
        weights.push_back(adj.data.weight);
      }
      row_of[m.src] = rows.size();
      rows.emplace_back().Build(weights);
    }
    std::vector<size_t> churned;
    for (vertex_id_t v : visits) {
      auto it = row_of.find(v);
      if (it != row_of.end()) {
        churned.push_back(it->second);
      }
    }
    Rng rng(w.run_seed ^ kLogSalt);
    uint64_t acc = 0;
    if (!churned.empty()) {
      led->dynamic_draw_ns = NsPerOp(churned.size(), kProbeRounds, [&](uint64_t i) {
        acc += rows[churned[i]].Sample(rng);
      });
    }
    g_sink = acc;
  }
}

template <typename EdgeData>
Outcome RunBatch(const Args& args, const BatchWorkload<EdgeData>& w) {
  Outcome out;
  const uint64_t walkers = w.walkers.num_walkers;
  const uint64_t expected_steps = walkers * kWalkLength;
  TraceRecorder phase_clock;
  TraceRecorder trace;

  // Warm-up repetition, discarded.
  RunRep(w, nullptr, nullptr, false);

  std::vector<RepResult> timed;    // untraced (superstep spans only in e2e)
  std::vector<RepResult> traced;   // benchmark + engine spans (trace mode)
  NoiseWindow noise;
  noise.Start();
  Timer elapsed;
  // Untraced runs also continue until p99 of the superstep latency has ten
  // samples beyond it, within twice the time.
  size_t supersteps = 0;
  auto more = [&] {
    const double t = elapsed.Seconds();
    if (timed.size() < 2 || (args.trace && traced.size() < 2)) {
      return true;
    }
    return t < args.seconds || (!args.trace && supersteps < kMinLatencySamples &&
                                t < 2 * args.seconds);
  };
  while (more()) {
    if (args.trace && traced.size() < timed.size()) {
      traced.push_back(RunRep(w, &trace, &trace, false));
    } else {
      timed.push_back(RunRep(w, args.trace ? nullptr : &phase_clock, nullptr, false));
      supersteps += timed.back().superstep_ms.size();
    }
  }
  noise.Stop();
  const double peak_rss_mb = PeakRssMb();

  // Stable counts must repeat exactly in every repetition.
  const std::string counts = CountsDigest(timed.front());
  uint64_t mismatched = 0;
  for (const auto* reps : {&timed, &traced}) {
    for (const RepResult& r : *reps) {
      if (CountsDigest(r) != counts || r.stats.steps != expected_steps) {
        mismatched += 1;
      }
    }
  }
  if (mismatched > 0) {
    out.Fail(std::to_string(mismatched) + " repetitions changed the stable counts");
  }
  if (timed.front().stats.steps != expected_steps) {
    out.Fail("steps " + std::to_string(timed.front().stats.steps) + " != walkers x " +
             std::to_string(kWalkLength));
  }

  // Untimed collect pass: output check and digest.
  RepResult collected = RunRep(w, nullptr, nullptr, true);
  const Csr<EdgeData> csr = Csr<EdgeData>::FromEdgeList(w.edges);
  const std::string paths = CheckPaths(w, collected, csr, &out);
  if (CountsDigest(collected) != counts) {
    out.Fail("collect pass changed the stable counts");
    mismatched += 1;
  }
  if (!MatchesEarlierRun(args, "counts", counts)) {
    out.Fail("stable counts differ from an earlier run of this seed");
    mismatched += 1;
  }
  if (!MatchesEarlierRun(args, "paths", paths)) {
    out.Fail("path digest differs from an earlier run of this seed");
    out.failed += walkers;
  }
  out.attempted = walkers * (timed.size() + traced.size() + 1);
  out.failed = std::min(out.attempted, out.failed + mismatched * walkers);

  const RepResult& first = timed.front();
  out.Note("walkers", std::to_string(walkers));
  out.Note("edges", std::to_string(csr.num_edges()));
  out.Note("timed_reps", std::to_string(timed.size()));
  out.Note("traced_reps", std::to_string(traced.size()));
  out.Note("counts_digest", "\"" + counts + "\"");
  out.Note("paths_digest", "\"" + paths + "\"");
  out.Note("steps", std::to_string(first.stats.steps));
  out.Note("trials", std::to_string(first.stats.trials));
  out.Note("mutations_applied", std::to_string(first.mutations.applied()));
  out.Note("merges", std::to_string(first.mutations.merges));
  noise.NoteTo(&out);

  if (!args.trace) {
    std::vector<double> walks_per_s;
    std::vector<double> setup_s;
    std::vector<double> superstep_ms;
    for (const RepResult& r : timed) {
      walks_per_s.push_back(static_cast<double>(walkers) / r.run_s);
      setup_s.push_back(r.setup_s);
      superstep_ms.insert(superstep_ms.end(), r.superstep_ms.begin(), r.superstep_ms.end());
    }
    std::string reps = "[";
    for (size_t i = 0; i < walks_per_s.size(); ++i) {
      reps += (i > 0 ? ", " : "") + std::to_string(walks_per_s[i]);
    }
    out.Note("rep_walks_per_s", reps + "]");
    EndToEnd e;
    e.walks_per_s = Median(walks_per_s);
    // A batch job's latency is the superstep: every walker waits one per step.
    e.p50_ms = Percentile(superstep_ms, 0.50);
    e.p99_ms = Percentile(superstep_ms, 0.99);
    // Every walk is a request to a batch engine, so its capacity is its
    // sustained walk rate.
    e.capacity_qps = e.walks_per_s;
    e.setup_s = Median(setup_s);
    e.peak_rss_mb = peak_rss_mb;
    e.AddTo(&out);
    const double level = HighestResolvableLevel(superstep_ms.size());
    out.Note("latency_samples", std::to_string(superstep_ms.size()));
    out.Note("latency_top_level", std::to_string(level));
    out.Note("latency_top_ms", std::to_string(Percentile(superstep_ms, level)));
    return out;
  }

  LayerLedger led;
  const std::vector<TraceRecorder::Event> events = trace.TakeEvents();
  led.csr_build_s = Median(SpanSeconds(events, "graph.csr_build"));
  led.run_s = Median(SpanSeconds(events, "engine.run"));
  led.sample_s = MedianPhase(traced, &EnginePhaseTimes::sample);
  led.respond_s = MedianPhase(traced, &EnginePhaseTimes::respond);
  led.resolve_s = MedianPhase(traced, &EnginePhaseTimes::resolve);
  led.exchange_s = MedianPhase(traced, &EnginePhaseTimes::exchange);
  const SamplingStats& s = first.stats;
  const double steps = static_cast<double>(s.steps);
  led.trials_per_step = s.TrialsPerStep();
  led.acceptance_rate = s.AcceptanceRate();
  led.pd_per_step = steps > 0 ? static_cast<double>(s.pd_computations) / steps : 0.0;
  led.fallback_scans = static_cast<double>(s.fallback_scans);
  led.iterations = static_cast<double>(s.iterations);
  led.queries_remote = static_cast<double>(s.queries_remote);
  led.queries_local = static_cast<double>(s.queries_local);
  led.walker_moves_remote = static_cast<double>(s.walker_moves_remote);
  led.cross_node_bytes = static_cast<double>(first.cross_node_bytes);
  led.sampler_bytes = static_cast<double>(first.sampler_bytes);
  led.mutations_applied = static_cast<double>(first.mutations.applied());
  led.merges = static_cast<double>(first.mutations.merges);
  std::vector<double> merge_s;
  for (const RepResult& r : traced) {
    merge_s.push_back(static_cast<double>(r.merge_micros) * 1e-6);
  }
  led.merge_s = Median(merge_s);
  led.full_builds = static_cast<double>(first.mutations.full_builds);
  led.bucket_builds = static_cast<double>(first.mutations.bucket_builds);
  led.incremental_updates = static_cast<double>(first.mutations.incremental_updates);
  led.trace_overhead_frac = led.run_s / MedianOf(timed, &RepResult::run_s) - 1.0;

  ProbeLayers(w, csr, collected.paths, &led);
  led.rng_draw_ns = RngDrawNs();
  led.mailbox_ns_per_msg = MailboxNsPerMsg();

  // Ledger of the sample phase: one static draw per trial, one dart draw per
  // rejection trial, one index lookup per node-local query.
  const double trials = static_cast<double>(s.trials);
  double explained_ns = trials * led.static_draw_ns;
  if (w.second_order) {
    explained_ns += trials * led.rng_draw_ns +
                    static_cast<double>(s.queries_local) * led.neighbor_contains_ns;
  }
  led.sample_explained_frac = led.sample_s > 0.0 ? explained_ns * 1e-9 / led.sample_s : 0.0;
  led.AddTo(&out);
  WriteTrace(args, trace);
  return out;
}

// Truncated power law degrees 4..100 (bench_hotpath's graph), seeded.
EdgeList<EmptyEdgeData> BatchGraph() {
  return GenerateTruncatedPowerLaw(kBatchVertices, 2.0, 4, 100, kGraphSeed);
}

// Zipf sampler over ranks 0..n-1: P(r) ~ 1 / (r + 1)^theta.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }
  size_t Sample(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// 60% reweights, 25% inserts, 15% deletes of existing edges. The generator
// mirrors each row so deletes always hit a present edge and never take a
// row below two edges: every walk then runs its full length.
MutationLog ChurnLog(const Csr<WeightedEdgeData>& csr, uint64_t seed) {
  const vertex_id_t n = csr.num_vertices();
  std::vector<std::vector<vertex_id_t>> rows(n);
  std::vector<vertex_id_t> by_degree(n);
  for (vertex_id_t v = 0; v < n; ++v) {
    for (const auto& adj : csr.Neighbors(v)) {
      rows[v].push_back(adj.neighbor);
    }
    by_degree[v] = v;
  }
  std::stable_sort(by_degree.begin(), by_degree.end(), [&csr](vertex_id_t a, vertex_id_t b) {
    return csr.OutDegree(a) > csr.OutDegree(b);
  });
  const Zipf hot(n, kHotZipfTheta);
  Rng rng(HashCombine64(seed, kLogSalt));
  MutationLog log(HashCombine64(seed, kRunSalt));
  for (size_t b = 0; b < kChurnBatches; ++b) {
    std::vector<EdgeMutation> muts;
    while (muts.size() < kMutationsPerBatch) {
      const vertex_id_t src = rng.NextDouble() < kHotSourceShare
                                  ? by_degree[hot.Sample(rng)]
                                  : static_cast<vertex_id_t>(rng.NextUInt64(n));
      auto& row = rows[src];
      const uint64_t kind = rng.NextUInt64(100);
      const auto weight = static_cast<real_t>(0.5 + rng.NextDouble() * 3.5);
      if (kind < 60 && !row.empty()) {
        muts.push_back({src, row[rng.NextUInt64(row.size())], weight, MutationOp::kReweight});
      } else if (kind < 85) {
        const auto dst = static_cast<vertex_id_t>(rng.NextUInt64(n));
        muts.push_back({src, dst, weight, MutationOp::kInsert});
        row.push_back(dst);
      } else if (row.size() > 2) {
        const size_t j = rng.NextUInt64(row.size());
        muts.push_back({src, row[j], 0.0f, MutationOp::kDelete});
        row[j] = row.back();
        row.pop_back();
      }
    }
    log.Append(b + 1, std::move(muts));
  }
  return log;
}

}  // namespace

double RngDrawNs() {
  Rng rng(0x726e67ULL);
  uint64_t acc = 0;
  const double ns = NsPerOp(kProbeOps * 4, kProbeRounds, [&](uint64_t) { acc += rng.Next(); });
  g_sink = acc;
  return ns;
}

double MailboxNsPerMsg() {
  // Walker-sized messages, 4 nodes all-to-all, batch posts then the barrier
  // Exchange — the engine's walker-move pattern.
  constexpr node_rank_t kNodes = 4;
  constexpr size_t kBatch = 512;
  constexpr int kRoundsPerTiming = 64;
  Mailbox<Walker<>> mail(kNodes);
  std::vector<std::vector<Walker<>>> out(static_cast<size_t>(kNodes) * kNodes);
  uint64_t acc = 0;
  auto round = [&] {
    for (node_rank_t src = 0; src < kNodes; ++src) {
      for (node_rank_t dst = 0; dst < kNodes; ++dst) {
        auto& batch = out[static_cast<size_t>(src) * kNodes + dst];
        batch.resize(kBatch);
        mail.Post(src, dst, std::move(batch));
        batch.clear();
      }
    }
    mail.Exchange();
    for (node_rank_t dst = 0; dst < kNodes; ++dst) {
      acc += mail.Inbox(dst).size();
    }
  };
  const uint64_t msgs_per_timing = kRoundsPerTiming * kNodes * kNodes * kBatch;
  const double ns_per_timing = NsPerOp(1, kProbeRounds * 4, [&](uint64_t) {
    for (int r = 0; r < kRoundsPerTiming; ++r) {
      round();
    }
  });
  g_sink = acc;
  return ns_per_timing / static_cast<double>(msgs_per_timing);
}

Outcome RunNode2Vec(const Args& args) {
  BatchWorkload<EmptyEdgeData> w;
  w.name = "node2vec";
  w.edges = BatchGraph();
  const Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = kWalkLength};
  w.make_spec = [params](const Csr<EmptyEdgeData>& g) { return Node2VecTransition(g, params); };
  w.walkers = Node2VecWalkers(kBatchVertices, params);
  w.run_seed = HashCombine64(args.seed, kRunSalt);
  w.second_order = true;
  return RunBatch(args, w);
}

Outcome RunDeepWalkChurn(const Args& args) {
  BatchWorkload<WeightedEdgeData> w;
  w.name = "deepwalk_churn";
  w.edges = AssignUniformWeights(BatchGraph(), 0.5f, 4.0f, kWeightSeed);
  const MutationLog log = ChurnLog(Csr<WeightedEdgeData>::FromEdgeList(w.edges), args.seed);
  w.log = &log;
  w.make_spec = [](const Csr<WeightedEdgeData>&) {
    return DeepWalkTransition<WeightedEdgeData>();
  };
  w.walkers = DeepWalkWalkers(kBatchVertices, {.walk_length = kWalkLength});
  w.run_seed = HashCombine64(args.seed, kRunSalt);
  return RunBatch(args, w);
}

}  // namespace kkbench
