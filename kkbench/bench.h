// Shared declarations of the kkbench workload binary: run arguments, the
// outcome each workload reports, the machine/noise record, and small
// measurement utilities used by every workload.
#ifndef KKBENCH_BENCH_H_
#define KKBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kkbench/helpers.h"
#include "src/engine/walk_engine.h"
#include "src/obs/trace.h"

namespace kkbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for per-seed output digests and written traces; empty skips
  // the cross-run comparison.
  std::string state_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Extra fields of the run record, as (key, JSON value text).
  std::vector<std::pair<std::string, std::string>> record;
  std::vector<std::string> errors;

  void Add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void Note(std::string key, std::string json_value) {
    record.emplace_back(std::move(key), std::move(json_value));
  }
  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

// The end-to-end metrics, reported by every workload in an untraced run.
// p99_ms goes to the run record, not the gated metrics: on a shared host
// ppr_serve's p99 tracks hypervisor steal (see README.md).
struct EndToEnd {
  double walks_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double capacity_qps = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;

  void AddTo(Outcome* out) const {
    out->Add("walks_per_s", "walks/s", walks_per_s);
    out->Add("p50_ms", "ms", p50_ms);
    out->Note("p99_ms", std::to_string(p99_ms));
    out->Add("capacity_qps", "queries/s", capacity_qps);
    out->Add("setup_s", "s", setup_s);
    out->Add("peak_rss_mb", "MiB", peak_rss_mb);
  }
};

// The per-layer metrics of a traced run, one field per metric. Every
// workload reports all of them; a layer the workload never calls reads 0.
struct LayerLedger {
  double csr_build_s = 0, neighbor_contains_ns = 0, delta_apply_ns = 0;
  double mutations_applied = 0, merges = 0, merge_s = 0;
  double static_build_s = 0, static_draw_ns = 0, dynamic_draw_ns = 0;
  double full_builds = 0, bucket_builds = 0, incremental_updates = 0;
  double trials_per_step = 0, acceptance_rate = 0, pd_per_step = 0, fallback_scans = 0;
  double run_s = 0, sample_s = 0, respond_s = 0, resolve_s = 0, exchange_s = 0;
  double iterations = 0, queries_remote = 0, queries_local = 0, walker_moves_remote = 0;
  double cross_node_bytes = 0, mailbox_ns_per_msg = 0, sampler_bytes = 0;
  double sample_explained_frac = 0;
  double build_index_s = 0, index_bytes = 0;
  double queue_wait_p50_ms = 0, queue_wait_p99_ms = 0, batch_p50_ms = 0, batch_p99_ms = 0;
  double batch_size_mean = 0, cache_hit_rate = 0, segments_stitched = 0, live_walk_frac = 0;
  double rejected = 0, generator_late_ms = 0;
  double rng_draw_ns = 0;
  double trace_overhead_frac = 0;

  void AddTo(Outcome* out) const {
    out->Add("graph.csr_build_s", "s", csr_build_s);
    out->Add("graph.neighbor_contains_ns", "ns", neighbor_contains_ns);
    out->Add("graph.delta_apply_ns", "ns", delta_apply_ns);
    out->Add("graph.mutations_applied", "count", mutations_applied);
    out->Add("graph.merges", "count", merges);
    out->Add("graph.merge_s", "s", merge_s);
    out->Add("sampling.static_build_s", "s", static_build_s);
    out->Add("sampling.static_draw_ns", "ns", static_draw_ns);
    out->Add("sampling.dynamic_draw_ns", "ns", dynamic_draw_ns);
    out->Add("sampling.full_builds", "count", full_builds);
    out->Add("sampling.bucket_builds", "count", bucket_builds);
    out->Add("sampling.incremental_updates", "count", incremental_updates);
    out->Add("sampling.trials_per_step", "ratio", trials_per_step);
    out->Add("sampling.acceptance_rate", "ratio", acceptance_rate);
    out->Add("sampling.pd_per_step", "ratio", pd_per_step);
    out->Add("sampling.fallback_scans", "count", fallback_scans);
    out->Add("engine.run_s", "s", run_s);
    out->Add("engine.phase.sample_s", "s", sample_s);
    out->Add("engine.phase.respond_s", "s", respond_s);
    out->Add("engine.phase.resolve_s", "s", resolve_s);
    out->Add("engine.phase.exchange_s", "s", exchange_s);
    out->Add("engine.iterations", "count", iterations);
    out->Add("engine.queries_remote", "count", queries_remote);
    out->Add("engine.queries_local", "count", queries_local);
    out->Add("engine.walker_moves_remote", "count", walker_moves_remote);
    out->Add("engine.cross_node_bytes", "bytes", cross_node_bytes);
    out->Add("engine.mailbox_ns_per_msg", "ns", mailbox_ns_per_msg);
    out->Add("engine.sampler_bytes", "bytes", sampler_bytes);
    out->Add("engine.ledger.sample_explained_frac", "ratio", sample_explained_frac);
    out->Add("service.build_index_s", "s", build_index_s);
    out->Add("service.index_bytes", "bytes", index_bytes);
    out->Add("service.queue_wait_ms.p50", "ms", queue_wait_p50_ms);
    out->Add("service.queue_wait_ms.p99", "ms", queue_wait_p99_ms);
    out->Add("service.batch_ms.p50", "ms", batch_p50_ms);
    out->Add("service.batch_ms.p99", "ms", batch_p99_ms);
    out->Add("service.batch_size_mean", "count", batch_size_mean);
    out->Add("service.cache_hit_rate", "ratio", cache_hit_rate);
    out->Add("service.segments_stitched", "count", segments_stitched);
    out->Add("service.live_walk_frac", "ratio", live_walk_frac);
    out->Add("service.rejected", "count", rejected);
    out->Add("service.generator_late_ms", "ms", generator_late_ms);
    out->Add("util.rng_draw_ns", "ns", rng_draw_ns);
    out->Add("obs.trace_overhead_frac", "ratio", trace_overhead_frac);
  }
};

// Unit costs shared by every workload's ledger.
double RngDrawNs();
double MailboxNsPerMsg();

Outcome RunNode2Vec(const Args& args);
Outcome RunDeepWalkChurn(const Args& args);
Outcome RunPprServe(const Args& args);

// Every workload process drives all logical nodes from its one thread: on a
// shared few-CPU host, worker threads measure the host's steal time rather
// than the program.
inline knightking::WalkEngineOptions SingleThreadEngineOptions(uint64_t seed) {
  knightking::WalkEngineOptions opts;
  opts.num_nodes = 4;
  opts.workers_per_node = 0;
  opts.parallel_nodes = false;
  opts.worker_schedule = knightking::WorkerSchedule::kFixed;
  opts.seed = seed;
  return opts;
}

// Wall time, process CPU time, time spent runnable but preempted, and the
// host steal share over a timed region.
class NoiseWindow {
 public:
  void Start();
  void Stop();
  // Adds wall_s, cpu_s, runq_wait_s and steal_frac to the run record.
  void NoteTo(Outcome* out) const;

 private:
  knightking::Timer wall_;
  double cpu_start_ = 0.0;
  double runq_start_ = 0.0;
  CpuJiffies jiffies_start_;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  double runq_wait_s_ = 0.0;
  double steal_frac_ = 0.0;
};

double PeakRssMb();
int ThreadCount();

// Compares `value` with the one stored for (workload, seed, key) by an
// earlier run of the same binary in `state_dir`, storing it if absent.
// Returns false on a mismatch.
bool MatchesEarlierRun(const Args& args, const std::string& key, const std::string& value);

// Records one benchmark-side span when a recorder is attached. `id` lands in
// the event's iteration field (the query id for ppr_serve spans).
class ScopedSpan {
 public:
  ScopedSpan(knightking::obs::TraceRecorder* trace, const char* name, uint64_t id = 0)
      : trace_(trace), name_(name), id_(id), start_(trace != nullptr ? trace->Now() : 0.0) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->RecordSpan(name_, kBenchLane, 0, start_, trace_->Now() - start_, id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Lane of benchmark-side spans; the engine uses 0 (driver) and 1..n.
  static constexpr uint32_t kBenchLane = 100;

 private:
  knightking::obs::TraceRecorder* trace_;
  const char* name_;
  uint64_t id_;
  double start_;
};

// Durations in seconds of the benchmark-side spans called `name`.
std::vector<double> SpanSeconds(const std::vector<knightking::obs::TraceRecorder::Event>& events,
                                const char* name);

// Writes the recorder's chrome://tracing JSON under state_dir (no-op without one).
void WriteTrace(const Args& args, const knightking::obs::TraceRecorder& trace);

// Nanoseconds per operation of `op`, called `n` times per round; the median
// of `rounds` rounds after one discarded warm-up round.
template <typename Op>
double NsPerOp(uint64_t n, int rounds, Op&& op) {
  std::vector<double> ns;
  for (int r = 0; r <= rounds; ++r) {
    knightking::Timer t;
    for (uint64_t i = 0; i < n; ++i) {
      op(i);
    }
    const double per_op = t.Seconds() * 1e9 / static_cast<double>(n);
    if (r > 0) {
      ns.push_back(per_op);
    }
  }
  return Median(ns);
}

// Defeats dead-code elimination of probe loops.
inline volatile uint64_t g_sink = 0;

}  // namespace kkbench

#endif  // KKBENCH_BENCH_H_
