// The ppr_serve workload: an open-loop generator in this one thread drives
// WalkService through Submit/ProcessBatch. Queries arrive as a seeded
// Poisson process; each query's latency runs from its scheduled arrival to
// its answer, so a stall also charges the queries it delayed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "kkbench/bench.h"
#include "src/graph/generators.h"
#include "src/sampling/static_sampler.h"
#include "src/service/walk_service.h"

namespace kkbench {

using namespace knightking;  // NOLINT(build/namespaces): benchmark TU

namespace {

using obs::TraceRecorder;
using Service = WalkService<EmptyEdgeData>;

// bench_service's serving configuration.
constexpr vertex_id_t kServeVertices = 30000;
constexpr uint32_t kSegmentsPerVertex = 8;
constexpr size_t kCacheCapacity = 256;
constexpr size_t kMaxBatch = 64;
constexpr size_t kMaxQueueDepth = 256;
constexpr uint64_t kUsers = 20000;
constexpr double kZipfTheta = 0.99;
constexpr uint32_t kPprWalks = 32;
constexpr uint32_t kContextSize = 10;

// Fixed offered rate and p99 latency limit, set from seed measurements on a
// 4-vCPU VM. One thread sustains 1.2k-1.7k queries/s open-loop, depending on
// how busy the host is, but a lone query already costs about 1.5 ms, so
// 300 queries/s kept the server 45% busy: p99 then doubled (6 -> 13 ms) in
// runs with 1.5-2% host steal, because every slow batch queued arrivals
// behind it. At 150 queries/s few queries wait behind another, so p50 and
// p99 measure service time, and capacity_qps measures queueing. The limit is
// twice the worst single query seen at 600 queries/s (110 ms): a query past
// it is a real stall, and capacity is the rate at which queueing alone costs
// that much.
constexpr double kOfferedQps = 150.0;
constexpr double kLatencyLimitMs = 200.0;

// Capacity ladder: 4% rungs, finer than the 10% bound on capacity_qps.
constexpr double kLadderLowQps = 400.0;
constexpr double kLadderHighQps = 6400.0;
constexpr double kLadderStep = 0.04;
constexpr double kProbeSeconds = 1.0;

constexpr int kSetupReps = 3;
constexpr double kWarmupSeconds = 1.0;
// Share of --seconds spent at the fixed rate; the rest searches capacity.
// The fixed phase is timed in repetitions of 7 s, about 1050 queries each,
// so every repetition's p99 has ten samples beyond it; a burst of host
// steal then spoils one repetition, not the run's median.
constexpr double kFixedShare = 0.7;
constexpr double kRepetitionSeconds = 7.0;
// Answers re-served by a fresh reference service as an output check.
constexpr size_t kReferenceChecks = 200;

// The graph and the service seed (hence the segment index) are fixed, as in
// bench_service; --seed drives the query trace and the arrivals, so seeds
// differ in the queries, not in the index the service builds.
constexpr uint64_t kGraphSeed = 20190707;
constexpr uint64_t kServiceSeed = 97;
constexpr uint64_t kTrafficSalt = 0x74726166ULL;
constexpr uint64_t kArrivalSalt = 0x617272ULL;

// Seeded query stream: Zipf-popular users, 90% PPR / 10% context.
class Traffic {
 public:
  explicit Traffic(uint64_t seed) : rng_(HashCombine64(seed, kTrafficSalt)), cdf_(kUsers) {
    double total = 0.0;
    for (uint64_t r = 0; r < kUsers; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfTheta);
      cdf_[r] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
    user_salt_ = HashCombine64(seed, kUsers);
  }

  ServiceQuery Next() {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.NextDouble());
    const auto user = static_cast<uint64_t>(it - cdf_.begin());
    ServiceQuery q;
    if (rng_.Next() % 10 == 0) {
      q.kind = QueryKind::kContext;
      q.count = kContextSize;
    } else {
      q.kind = QueryKind::kPpr;
      q.count = kPprWalks;
    }
    q.vertex = static_cast<vertex_id_t>(HashCombine64(user_salt_, user) % kServeVertices);
    return q;
  }

 private:
  CounterRng rng_;
  std::vector<double> cdf_;
  uint64_t user_salt_ = 0;
};

struct Answer {
  uint64_t id = 0;
  ServiceResult result;
};

// One timed repetition of the fixed phase: the queries due in it and the
// batches started in it.
struct Repetition {
  std::vector<double> latency_ms;
  double busy_s = 0.0;
  uint64_t walks = 0;
};

// What one open-loop phase measured.
struct Phase {
  uint64_t offered = 0;
  uint64_t refused = 0;
  uint64_t late = 0;  // answered past kLatencyLimitMs
  uint64_t mismatched = 0;
  std::vector<double> latency_ms;
  std::vector<double> batch_ms;
  uint64_t batched = 0;
  double generator_late_ms = 0.0;
  double busy_s = 0.0;
  double traced_busy_s = 0.0;
  uint64_t traced_served = 0;
  uint64_t walks = 0;
  size_t backlog_mid = 0;
  size_t backlog_end = 0;
  std::vector<Answer> answers;
  std::vector<Repetition> reps;
};

struct Waiting {
  uint64_t id = 0;
  double due = 0.0;
  ServiceQuery query;
};

// Serves the offered load for `seconds`, then drains, splitting the
// measurements into repetitions of `rep_s` seconds. With `trace`, spans are
// recorded in every other second (the rest measure the untraced cost for
// obs.trace_overhead_frac).
Phase RunOpenLoop(Service& svc, Traffic& traffic, Rng& arrivals, double rate, double seconds,
                  double rep_s, uint64_t* next_id, bool keep_answers,
                  TraceRecorder* trace = nullptr) {
  Phase p;
  p.reps.resize(static_cast<size_t>(std::max(1.0, std::floor(seconds / rep_s + 1e-9))));
  auto rep_at = [&](double t) -> Repetition& {
    return p.reps[std::min(p.reps.size() - 1, static_cast<size_t>(t / rep_s))];
  };
  std::deque<Waiting> fifo;  // mirrors the service's admission queue
  Timer clock;
  // Query spans are stamped on the recorder's clock; `due` is on `clock`.
  const double trace_offset = trace != nullptr ? trace->Now() - clock.Seconds() : 0.0;
  double next_due = -std::log(1.0 - arrivals.NextDouble()) / rate;
  bool mid_recorded = false;
  bool end_recorded = false;
  for (;;) {
    const double now = clock.Seconds();
    TraceRecorder* spans =
        trace != nullptr && static_cast<int64_t>(now) % 2 == 1 ? trace : nullptr;
    while (next_due <= now && next_due < seconds) {
      Waiting w{(*next_id)++, next_due, traffic.Next()};
      p.generator_late_ms = std::max(p.generator_late_ms, (now - next_due) * 1e3);
      p.offered += 1;
      bool admitted = false;
      {
        ScopedSpan span(spans, "service.submit", w.id);
        admitted = svc.Submit(w.query);
      }
      if (admitted) {
        fifo.push_back(w);
      } else {
        p.refused += 1;
      }
      next_due += -std::log(1.0 - arrivals.NextDouble()) / rate;
    }
    if (!mid_recorded && now >= seconds / 2) {
      p.backlog_mid = fifo.size();
      mid_recorded = true;
    }
    if (next_due >= seconds && !end_recorded) {
      p.backlog_end = fifo.size();
      end_recorded = true;
    }
    if (!fifo.empty()) {
      const double start = clock.Seconds();
      std::vector<ServiceResult> results;
      {
        ScopedSpan span(spans, "service.process_batch", fifo.front().id);
        results = svc.ProcessBatch();
      }
      const double end = clock.Seconds();
      p.busy_s += end - start;
      Repetition& batch_rep = rep_at(start);
      batch_rep.busy_s += end - start;
      if (spans != nullptr) {
        p.traced_busy_s += end - start;
        p.traced_served += results.size();
      }
      p.batch_ms.push_back((end - start) * 1e3);
      p.batched += results.size();
      for (ServiceResult& r : results) {
        const Waiting w = fifo.front();
        fifo.pop_front();
        const double latency_ms = (end - w.due) * 1e3;
        p.latency_ms.push_back(latency_ms);
        rep_at(w.due).latency_ms.push_back(latency_ms);
        if (spans != nullptr) {
          const double due = w.due + trace_offset;
          spans->RecordSpan("query", ScopedSpan::kBenchLane, 1, due, end - w.due, w.id);
          spans->RecordSpan("queue_wait", ScopedSpan::kBenchLane, 2, due, start - w.due, w.id);
        }
        if (latency_ms > kLatencyLimitMs) {
          p.late += 1;
        }
        if (!(r.query == w.query)) {
          p.mismatched += 1;
        }
        if (!r.from_cache) {
          const uint64_t walks = r.query.kind == QueryKind::kPpr ? r.query.count : 1;
          p.walks += walks;
          batch_rep.walks += walks;
        }
        if (keep_answers) {
          p.answers.push_back({w.id, std::move(r)});
        }
      }
      continue;
    }
    if (next_due >= seconds) {
      break;
    }
    const double wait = next_due - clock.Seconds();
    if (wait > 200e-6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait - 100e-6));
    }
  }
  return p;
}

// A rung passes when nothing is refused, p99 meets the limit and the backlog
// did not grow over the second half of the probe. A failed probe is retried
// once, so one host stall cannot fail a rung the service sustains.
bool Sustains(Service& svc, Traffic& traffic, Rng& arrivals, double rate, uint64_t* next_id) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Phase p =
        RunOpenLoop(svc, traffic, arrivals, rate, kProbeSeconds, kProbeSeconds, next_id, false);
    if (p.refused == 0 && Percentile(p.latency_ms, 0.99) <= kLatencyLimitMs &&
        p.backlog_end <= p.backlog_mid + kMaxBatch) {
      return true;
    }
  }
  return false;
}

WalkServiceOptions ServiceOptions(size_t cache, size_t batch) {
  WalkServiceOptions opts;
  opts.seed = kServiceSeed;
  opts.segments_per_vertex = kSegmentsPerVertex;
  opts.segment_cap = 16;
  opts.cache_capacity = cache;
  opts.max_batch = batch;
  opts.max_queue_depth = kMaxQueueDepth;
  opts.engine = SingleThreadEngineOptions(opts.seed);
  return opts;
}

// Answers must be well-formed: PPR scores sum to 1 over exactly one endpoint
// per walk; a context never exceeds its requested size.
bool WellFormed(const ServiceResult& r) {
  if (r.query.kind == QueryKind::kContext) {
    return r.context.size() <= r.query.count;
  }
  double total = 0.0;
  for (const auto& [v, s] : r.scores) {
    total += s;
  }
  uint64_t ends = 0;
  for (const auto& [v, c] : r.endpoints) {
    ends += c;
  }
  return std::abs(total - 1.0) < 1e-9 && ends == r.query.count;
}

}  // namespace

Outcome RunPprServe(const Args& args) {
  Outcome out;
  const EdgeList<EmptyEdgeData> edges = GenerateTruncatedPowerLaw(
      kServeVertices, 2.0, 4, 100, kGraphSeed);
  TraceRecorder trace;

  // Set-up: edge list in memory -> CSR -> service -> index, several times.
  std::vector<double> setup_s, index_s;
  std::unique_ptr<Service> svc;
  for (int r = 0; r < kSetupReps; ++r) {
    svc.reset();
    Timer total;
    Csr<EmptyEdgeData> csr;
    {
      ScopedSpan span(args.trace ? &trace : nullptr, "graph.csr_build");
      csr = Csr<EmptyEdgeData>::FromEdgeList(edges);
    }
    svc = std::make_unique<Service>(std::move(csr),
                                    ServiceOptions(kCacheCapacity, kMaxBatch));
    svc->BuildIndex();
    setup_s.push_back(total.Seconds());
    index_s.push_back(svc->index_build_seconds());
  }

  Traffic traffic(args.seed);
  Rng arrivals(HashCombine64(args.seed, kArrivalSalt));
  uint64_t next_id = 0;
  RunOpenLoop(*svc, traffic, arrivals, kOfferedQps, kWarmupSeconds, kWarmupSeconds, &next_id,
              false);

  // Fixed offered rate.
  const ServiceCounters before = svc->counters();
  const uint64_t hits_before = svc->cache().hits();
  const uint64_t misses_before = svc->cache().misses();
  const size_t events_before = trace.size();
  NoiseWindow noise;
  noise.Start();
  const double fixed_s = args.seconds * kFixedShare;
  const Phase fixed = RunOpenLoop(*svc, traffic, arrivals, kOfferedQps, fixed_s,
                                  kRepetitionSeconds, &next_id, true,
                                  args.trace ? &trace : nullptr);
  const ServiceCounters after = svc->counters();
  const uint64_t hits = svc->cache().hits() - hits_before;
  const uint64_t misses = svc->cache().misses() - misses_before;

  // Capacity: repeated ladder searches in the remaining time; the median.
  std::vector<double> capacity;
  const std::vector<double> ladder = RateLadder(kLadderLowQps, kLadderHighQps, kLadderStep);
  Timer capacity_clock;
  const double capacity_s = args.seconds - fixed_s;
  if (!args.trace) {
    do {
      const int rung = HighestPassingRung(ladder, [&](double rate) {
        return Sustains(*svc, traffic, arrivals, rate, &next_id);
      });
      capacity.push_back(rung < 0 ? 0.0 : ladder[static_cast<size_t>(rung)]);
    } while (capacity_clock.Seconds() * (1.0 + 1.0 / static_cast<double>(capacity.size())) <
             capacity_s);
  }
  noise.Stop();
  const double peak_rss_mb = PeakRssMb();

  // Output checks: well-formed answers, the same answers from a fresh
  // service (no cache, one query per batch), and the digest of every answer.
  Digest digest;
  uint64_t malformed = 0;
  for (const Answer& a : fixed.answers) {
    digest.AddU64(a.id - fixed.answers.front().id);
    digest.AddString(a.result.Canonical());
    malformed += WellFormed(a.result) ? 0 : 1;
  }
  uint64_t reference_mismatch = 0;
  {
    Service reference(Csr<EmptyEdgeData>::FromEdgeList(edges),
                      ServiceOptions(0, 1));
    reference.BuildIndex();
    const size_t step = std::max<size_t>(1, fixed.answers.size() / kReferenceChecks);
    for (size_t i = 0; i < fixed.answers.size(); i += step) {
      const ServiceResult& got = fixed.answers[i].result;
      if (reference.ServeOne(got.query).Canonical() != got.Canonical()) {
        reference_mismatch += 1;
      }
    }
  }
  const std::string digest_hex = digest.Hex();
  if (malformed > 0) {
    out.Fail(std::to_string(malformed) + " malformed answers");
  }
  if (fixed.mismatched > 0) {
    out.Fail(std::to_string(fixed.mismatched) + " answers to the wrong query");
  }
  if (reference_mismatch > 0) {
    out.Fail(std::to_string(reference_mismatch) + " answers differ from a fresh service");
  }
  if (fixed.refused > 0) {
    out.Fail(std::to_string(fixed.refused) + " queries refused at the fixed rate");
  }
  const bool same_as_earlier = MatchesEarlierRun(args, "answers", digest_hex);
  if (!same_as_earlier) {
    out.Fail("answer digest differs from an earlier run of this seed");
  }
  out.attempted = fixed.offered;
  out.failed = std::min<uint64_t>(out.attempted, fixed.refused + fixed.late + malformed +
                                                     fixed.mismatched + reference_mismatch);
  if (!same_as_earlier) {
    out.failed = out.attempted;
  }

  const double top_level = HighestResolvableLevel(fixed.latency_ms.size());
  out.Note("offered_qps", std::to_string(kOfferedQps));
  out.Note("latency_limit_ms", std::to_string(kLatencyLimitMs));
  out.Note("queries", std::to_string(fixed.offered));
  out.Note("latency_samples", std::to_string(fixed.latency_ms.size()));
  std::string rep_samples = "[";
  for (size_t i = 0; i < fixed.reps.size(); ++i) {
    rep_samples += (i > 0 ? ", " : "") + std::to_string(fixed.reps[i].latency_ms.size());
  }
  out.Note("rep_latency_samples", rep_samples + "]");
  out.Note("latency_top_level", std::to_string(top_level));
  out.Note("latency_top_ms", std::to_string(Percentile(fixed.latency_ms, top_level)));
  out.Note("late", std::to_string(fixed.late));
  out.Note("latency_max_ms", std::to_string(Percentile(fixed.latency_ms, 1.0)));
  out.Note("generator_late_ms", std::to_string(fixed.generator_late_ms));
  out.Note("capacity_searches", std::to_string(capacity.size()));
  out.Note("answers_digest", "\"" + digest_hex + "\"");
  noise.NoteTo(&out);

  if (!args.trace) {
    EndToEnd e;
    // Percentiles come from each repetition's own raw samples; the run
    // reports the median repetition.
    std::vector<double> walks_per_s, p50, p99;
    for (const Repetition& rep : fixed.reps) {
      if (rep.busy_s > 0.0 && !rep.latency_ms.empty()) {
        walks_per_s.push_back(static_cast<double>(rep.walks) / rep.busy_s);
        p50.push_back(Percentile(rep.latency_ms, 0.50));
        p99.push_back(Percentile(rep.latency_ms, 0.99));
      }
    }
    e.walks_per_s = Median(walks_per_s);
    e.p50_ms = Median(p50);
    e.p99_ms = Median(p99);
    e.capacity_qps = Median(capacity);
    e.setup_s = Median(setup_s);
    e.peak_rss_mb = peak_rss_mb;
    e.AddTo(&out);
    return out;
  }

  LayerLedger led;
  std::vector<TraceRecorder::Event> events = trace.TakeEvents();
  const std::vector<TraceRecorder::Event> fixed_events(
      events.begin() + static_cast<ptrdiff_t>(events_before), events.end());
  led.csr_build_s = Median(SpanSeconds(events, "graph.csr_build"));
  led.build_index_s = Median(index_s);
  led.index_bytes = static_cast<double>(svc->index().PayloadBytes());
  std::vector<double> wait_ms;
  for (const auto& e : fixed_events) {
    if (e.pid == ScopedSpan::kBenchLane && std::string_view(e.name) == "queue_wait") {
      wait_ms.push_back(e.dur * 1e3);
    }
  }
  std::vector<double> batch_ms;
  for (double s : SpanSeconds(fixed_events, "service.process_batch")) {
    batch_ms.push_back(s * 1e3);
  }
  led.queue_wait_p50_ms = Percentile(wait_ms, 0.50);
  led.queue_wait_p99_ms = Percentile(wait_ms, 0.99);
  led.batch_p50_ms = Percentile(batch_ms, 0.50);
  led.batch_p99_ms = Percentile(batch_ms, 0.99);
  led.batch_size_mean = fixed.batch_ms.empty() ? 0.0
                                               : static_cast<double>(fixed.batched) /
                                                     static_cast<double>(fixed.batch_ms.size());
  led.cache_hit_rate =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
  led.segments_stitched = static_cast<double>(after.segments_stitched - before.segments_stitched);
  led.live_walk_frac = fixed.walks > 0 ? static_cast<double>(after.live_walks - before.live_walks) /
                                             static_cast<double>(fixed.walks)
                                       : 0.0;
  led.rejected = static_cast<double>(after.rejected - before.rejected);
  led.generator_late_ms = fixed.generator_late_ms;
  const double untraced_busy = fixed.busy_s - fixed.traced_busy_s;
  const uint64_t untraced_served = fixed.batched - fixed.traced_served;
  if (untraced_served > 0 && fixed.traced_served > 0 && untraced_busy > 0.0) {
    led.trace_overhead_frac =
        (fixed.traced_busy_s / static_cast<double>(fixed.traced_served)) /
            (untraced_busy / static_cast<double>(untraced_served)) -
        1.0;
  }

  // Static sampler of the serving graph, drawn at the queried vertices.
  const Csr<EmptyEdgeData>& csr = svc->graph();
  std::vector<double> build_s;
  for (int r = 0; r < 3; ++r) {
    StaticSamplerSet<EmptyEdgeData> s;
    Timer t;
    s.Build(csr, StaticSamplerKind::kAuto, nullptr);
    build_s.push_back(t.Seconds());
  }
  led.static_build_s = Median(build_s);
  StaticSamplerSet<EmptyEdgeData> sampler;
  sampler.Build(csr, StaticSamplerKind::kAuto, nullptr);
  std::vector<vertex_id_t> starts;
  for (const Answer& a : fixed.answers) {
    starts.push_back(a.result.query.vertex);
  }
  Rng rng(args.seed);
  uint64_t acc = 0;
  if (!starts.empty()) {
    led.static_draw_ns = NsPerOp(1u << 20, 5, [&](uint64_t i) {
      acc += sampler.Sample(starts[i % starts.size()], rng);
    });
  }
  g_sink = acc;
  led.rng_draw_ns = RngDrawNs();
  led.mailbox_ns_per_msg = MailboxNsPerMsg();
  led.AddTo(&out);
  WriteTrace(args, trace);
  return out;
}

}  // namespace kkbench
