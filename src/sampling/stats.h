// Sampling-cost accounting.
//
// The paper's central metric besides wall time is "the average number of
// edge transition probabilities computed, per step per walker" (Table 1,
// Table 5, Figure 6). These counters are maintained by both the KnightKing
// engine and the full-scan baseline so that the two are directly comparable.
#ifndef SRC_SAMPLING_STATS_H_
#define SRC_SAMPLING_STATS_H_

#include <cstdint>

namespace knightking {

struct SamplingStats {
  uint64_t steps = 0;            // successful walker moves
  uint64_t trials = 0;           // rejection-sampling candidate draws
  uint64_t trial_accepts = 0;    // trials whose dart was accepted
  uint64_t trial_rejects = 0;    // trials whose dart was rejected
  uint64_t pd_computations = 0;  // dynamic component (Pd) evaluations
  uint64_t scan_computations = 0;  // per-edge probability computations in full scans
  uint64_t pre_accepts = 0;      // trials accepted below the lower bound L(v)
  uint64_t outlier_hits = 0;     // darts landing in an outlier appendix
  uint64_t queries_remote = 0;   // queries sent through the mailbox
  uint64_t queries_local = 0;    // queries answered inline by the walker's own node
  uint64_t walker_moves_remote = 0;  // walker messages crossing nodes
  uint64_t fallback_scans = 0;   // exact full-scan fallbacks after repeated rejection
  uint64_t iterations = 0;       // engine supersteps executed
  // Reliability-protocol accounting (non-zero only under fault injection).
  uint64_t walker_retransmits = 0;     // walker messages re-sent after ack timeout
  uint64_t query_retries = 0;          // state queries re-issued after timeout
  uint64_t duplicates_suppressed = 0;  // stale/duplicate walker deliveries rejected
  uint64_t stale_responses = 0;        // query responses matching no parked trial

  void Merge(const SamplingStats& other) {
    steps += other.steps;
    trials += other.trials;
    trial_accepts += other.trial_accepts;
    trial_rejects += other.trial_rejects;
    pd_computations += other.pd_computations;
    scan_computations += other.scan_computations;
    pre_accepts += other.pre_accepts;
    outlier_hits += other.outlier_hits;
    queries_remote += other.queries_remote;
    queries_local += other.queries_local;
    walker_moves_remote += other.walker_moves_remote;
    fallback_scans += other.fallback_scans;
    iterations += other.iterations;
    walker_retransmits += other.walker_retransmits;
    query_retries += other.query_retries;
    duplicates_suppressed += other.duplicates_suppressed;
    stale_responses += other.stale_responses;
  }

  // The paper's "edges/step": probability computations per successful move.
  double EdgesPerStep() const {
    if (steps == 0) {
      return 0.0;
    }
    return static_cast<double>(pd_computations + scan_computations) /
           static_cast<double>(steps);
  }

  double TrialsPerStep() const {
    return steps == 0 ? 0.0 : static_cast<double>(trials) / static_cast<double>(steps);
  }

  // Fraction of resolved trials whose dart was accepted. Trials still parked
  // awaiting a query response mid-run are neither; after a completed Run
  // every trial has resolved one way or the other.
  double AcceptanceRate() const {
    uint64_t resolved = trial_accepts + trial_rejects;
    return resolved == 0 ? 0.0
                         : static_cast<double>(trial_accepts) / static_cast<double>(resolved);
  }

  // Visits every counter as (name, value); the single source of truth for
  // metric export and counter-merge tests (keep in sync with the fields
  // above — a new counter that is not visited here will not be exported).
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
    fn("steps", steps);
    fn("trials", trials);
    fn("trial_accepts", trial_accepts);
    fn("trial_rejects", trial_rejects);
    fn("pd_computations", pd_computations);
    fn("scan_computations", scan_computations);
    fn("pre_accepts", pre_accepts);
    fn("outlier_hits", outlier_hits);
    fn("queries_remote", queries_remote);
    fn("queries_local", queries_local);
    fn("walker_moves_remote", walker_moves_remote);
    fn("fallback_scans", fallback_scans);
    fn("iterations", iterations);
    fn("walker_retransmits", walker_retransmits);
    fn("query_retries", query_retries);
    fn("duplicates_suppressed", duplicates_suppressed);
    fn("stale_responses", stale_responses);
  }
};

}  // namespace knightking

#endif  // SRC_SAMPLING_STATS_H_
