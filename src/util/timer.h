// Wall-clock timing helpers used by the benchmark harness and the engine's
// per-phase accounting.
#ifndef SRC_UTIL_TIMER_H_
#define SRC_UTIL_TIMER_H_

#include <chrono>

namespace knightking {

class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  // Seconds elapsed since construction or last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }

  // Seconds() and Restart() from one clock reading, so back-to-back
  // intervals cost one read each.
  double Lap() {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return seconds;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Accumulates time across multiple disjoint intervals (e.g. total time the
// engine spent inside message exchange across all iterations).
class StopWatch {
 public:
  void Start() { timer_.Restart(); }
  void Stop() { total_ += timer_.Seconds(); }
  double TotalSeconds() const { return total_; }
  void Reset() { total_ = 0.0; }

 private:
  Timer timer_;
  double total_ = 0.0;
};

}  // namespace knightking

#endif  // SRC_UTIL_TIMER_H_
