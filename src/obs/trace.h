// Phase/iteration trace recording, exportable to chrome://tracing JSON.
//
// A TraceRecorder collects complete-span events ("X" phase in the Trace
// Event Format): the engine records one span per BSP phase per iteration at
// the driver level, plus one span per logical node inside each phase, so a
// run opens in chrome://tracing (or https://ui.perfetto.dev) as a lane per
// simulated node with the sample/respond/resolve/exchange cadence visible.
//
// Recording is a pure runtime toggle (WalkEngineOptions::trace): a null
// recorder costs nothing, and the engine only reads the clock when one is
// attached. Event timestamps are wall-clock and therefore never part of the
// deterministic snapshot contract — traces are a diagnostic artifact, not a
// comparison artifact. Thread safety: Record may be called concurrently
// (node drivers run in parallel); export is driver-only.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/util/timer.h"

namespace knightking {
namespace obs {

class TraceRecorder {
 public:
  // One complete-span event. `name` must be a string literal (or otherwise
  // outlive the recorder); spans are recorded once per node per phase per
  // iteration, so storage stays proportional to iterations.
  struct Event {
    const char* name = "";
    uint32_t pid = 0;  // lane: 0 = driver, n+1 = logical node n
    uint32_t tid = 0;
    double ts = 0.0;        // seconds since Reset()
    double dur = 0.0;       // span length in seconds
    uint64_t iteration = 0;  // engine superstep (shown under args)
  };

  TraceRecorder() { Reset(); }

  // Clears recorded events and re-zeros the trace clock.
  void Reset() {
    MutexLock lock(mu_);
    events_.clear();
    process_names_.clear();
    epoch_.Restart();
  }

  // Seconds since Reset(); the timestamp base for RecordSpan.
  double Now() const { return epoch_.Seconds(); }

  void RecordSpan(const char* name, uint32_t pid, uint32_t tid, double ts, double dur,
                  uint64_t iteration) {
    MutexLock lock(mu_);
    events_.push_back(Event{name, pid, tid, ts, dur, iteration});
  }

  // Names a lane in the exported trace (e.g. "node 2").
  void SetProcessName(uint32_t pid, std::string name) {
    MutexLock lock(mu_);
    process_names_[pid] = std::move(name);
  }

  size_t size() const {
    MutexLock lock(mu_);
    return events_.size();
  }

  std::vector<Event> TakeEvents();

  // Serializes everything recorded since Reset() as a Trace Event Format
  // JSON object ({"traceEvents": [...]}) loadable by chrome://tracing.
  std::string ToChromeJson() const;

 private:
  mutable Mutex mu_;
  std::vector<Event> events_ KK_GUARDED_BY(mu_);
  std::map<uint32_t, std::string> process_names_ KK_GUARDED_BY(mu_);
  // Read lock-free by Now() from concurrent node drivers; written only by
  // Reset(), which the engine calls before any recording thread exists, so
  // the Restart/Seconds pair is ordered by thread creation, not by mu_.
  Timer epoch_;
};

// Scoped timer of one stage (an engine phase, a per-node slice of one, or a
// serving stage). On exit it adds the stage's wall time to *seconds when
// `seconds` is non-null and, with a recorder attached, records the stage as
// a span on `lane` (0 = driver, n+1 = logical node n) tagged with
// `iteration`. With neither it reads no clock.
class StageTimer {
 public:
  StageTimer(TraceRecorder* trace, const char* name, uint32_t lane, uint64_t iteration,
             double* seconds = nullptr)
      : trace_(trace),
        name_(name),
        lane_(lane),
        iteration_(iteration),
        seconds_(seconds),
        span_start_(trace != nullptr ? trace->Now() : 0.0) {
    if (seconds_ != nullptr) {
      timer_.emplace();
    }
  }
  ~StageTimer() {
    if (seconds_ != nullptr) {
      *seconds_ += timer_->Seconds();
    }
    if (trace_ != nullptr) {
      trace_->RecordSpan(name_, lane_, 0, span_start_, trace_->Now() - span_start_, iteration_);
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  // Retags the span, for a stage that moves the iteration it belongs to
  // (crash recovery restores an earlier superstep).
  void set_iteration(uint64_t iteration) { iteration_ = iteration; }

 private:
  TraceRecorder* trace_;
  const char* name_;
  uint32_t lane_;
  uint64_t iteration_;
  double* seconds_;
  double span_start_;
  std::optional<Timer> timer_;
};

}  // namespace obs
}  // namespace knightking

#endif  // SRC_OBS_TRACE_H_
