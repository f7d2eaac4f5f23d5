// Compile-time-gated hot-path counters for the observability layer.
//
// The engine attributes its SamplingStats to BSP phases (per node) and counts
// infrastructure events (locality sorts) through the
// PhaseAccumulator defined here. The whole accumulator is guarded by the
// KK_OBS compile gate: configuring with -DKK_OBS=OFF replaces it with an
// empty struct whose methods are no-ops, so instrumented call sites compile
// to nothing — verified by tests/obs_test.cc (std::is_empty) and by the CI
// perf-smoke A/B run against bench/hotpath_floor.txt. Runtime-toggled
// instrumentation (trace recording, snapshot export) lives in trace.h and
// metrics_registry.h and is NOT gated: it costs nothing unless enabled.
//
// See docs/OBSERVABILITY.md for the metric catalog.
#ifndef SRC_OBS_COUNTERS_H_
#define SRC_OBS_COUNTERS_H_

#include <cstddef>
#include <cstdint>

#include "src/sampling/stats.h"

// KK_OBS is normally defined (to 0 or 1) by the build system; default ON so
// ad-hoc compiles get full observability.
#ifndef KK_OBS
#define KK_OBS 1
#endif

namespace knightking {
namespace obs {

inline constexpr bool kObsEnabled = KK_OBS != 0;

// The engine's BSP phases (walk_engine.h RunIteration). Exchange covers all
// mailbox barriers: walker moves, query/response delivery, acks.
enum class Phase : uint8_t { kSample = 0, kRespond = 1, kResolve = 2, kExchange = 3 };
inline constexpr size_t kNumPhases = 4;

inline const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kSample:
      return "sample";
    case Phase::kRespond:
      return "respond";
    case Phase::kResolve:
      return "resolve";
    case Phase::kExchange:
      return "exchange";
  }
  return "unknown";
}

#if KK_OBS

// Per-node accumulator: phase-attributed sampling counters plus
// infrastructure events. The node's driver merges each lane's SamplingStats
// into it once per phase, beside the node's total, so the per-phase
// breakdown costs one extra Merge per lane and phase.
struct PhaseAccumulator {
  SamplingStats phase_stats[kNumPhases];
  uint64_t batch_sorts = 0;         // locality sorts over active batches

  void MergeStats(Phase p, const SamplingStats& s) {
    phase_stats[static_cast<size_t>(p)].Merge(s);
  }
  void CountBatchSort() { ++batch_sorts; }

  SamplingStats Stats(Phase p) const { return phase_stats[static_cast<size_t>(p)]; }

  void Merge(const PhaseAccumulator& other) {
    for (size_t p = 0; p < kNumPhases; ++p) {
      phase_stats[p].Merge(other.phase_stats[p]);
    }
    batch_sorts += other.batch_sorts;
  }

  void Reset() { *this = PhaseAccumulator{}; }
};

#else  // !KK_OBS

// Disabled mode: an empty type with inert methods. Call sites survive
// unchanged; the optimizer erases them (there is no state to update). The
// counters exist as static constexpr zeros so runtime-gated readers
// (`if (obs::kObsEnabled)`) still compile without keeping any state.
struct PhaseAccumulator {
  static constexpr uint64_t batch_sorts = 0;

  void MergeStats(Phase, const SamplingStats&) {}
  void CountBatchSort() {}
  SamplingStats Stats(Phase) const { return SamplingStats{}; }
  void Merge(const PhaseAccumulator&) {}
  void Reset() {}
};

#endif  // KK_OBS

}  // namespace obs
}  // namespace knightking

#endif  // SRC_OBS_COUNTERS_H_
