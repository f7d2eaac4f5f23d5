// Hot-path counters for the observability layer.
//
// The engine attributes its SamplingStats to BSP phases (per node) and counts
// infrastructure events (locality sorts) through the PhaseAccumulator defined
// here. It is always compiled in: the counters ride merges the driver already
// makes. Runtime-toggled instrumentation (trace recording, snapshot export)
// lives in trace.h and metrics_registry.h and costs nothing unless enabled.
//
// See docs/OBSERVABILITY.md for the metric catalog.
#ifndef SRC_OBS_COUNTERS_H_
#define SRC_OBS_COUNTERS_H_

#include <cstddef>
#include <cstdint>

#include "src/sampling/stats.h"

namespace knightking {
namespace obs {

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

// Per-node accumulator: phase-attributed sampling counters plus
// infrastructure events. The node's driver merges each lane's SamplingStats
// into it once per phase, beside the node's total, so the per-phase
// breakdown costs one extra Merge per lane and phase.
struct PhaseAccumulator {
  SamplingStats phase_stats[kNumPhases];
  uint64_t batch_sorts = 0;  // locality sorts over active batches

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

}  // namespace obs
}  // namespace knightking

#endif  // SRC_OBS_COUNTERS_H_
