// WalkEngine::ExportMetrics (docs/OBSERVABILITY.md). Out-of-line member;
// include walk_engine.h.
#ifndef SRC_ENGINE_ENGINE_METRICS_H_
#define SRC_ENGINE_ENGINE_METRICS_H_

#include "src/engine/walk_engine.h"

namespace knightking {

template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline void WalkEngine<EdgeData, WalkerState, QueryResponse>::ExportMetrics(
    obs::MetricsRegistry& out, const obs::Labels& base_labels) const {
  auto with = [&base_labels](obs::Labels extra) {
    extra.insert(extra.end(), base_labels.begin(), base_labels.end());
    return extra;
  };
  last_stats_.ForEachField([&](const char* field, uint64_t v) {
    out.AddCounter(std::string("engine.") + field, with({}), v);
  });
  out.SetGauge("engine.acceptance_rate", with({}), last_stats_.AcceptanceRate(),
               /*stable=*/true);
  out.AddCounter("engine.sampler_bytes", with({}), sampler_.MemoryBytes());
  // Streaming-mutation counters (all zero without a mutation log; see
  // docs/DYNAMIC_GRAPHS.md). All deterministic for a given configuration.
  const MutationCounters mc = mutation_counters();
  out.SetGauge("graph.delta_edges", with({}),
               static_cast<double>(mc.delta_mutations), /*stable=*/true);
  out.AddCounter("graph.merges", with({}), mc.merges);
  // Wall-clock: never part of the deterministic snapshot contract.
  out.AddCounter("graph.merge_micros", with({}), merge_micros(), /*stable=*/false);
  out.AddCounter("graph.mutations_applied", with({}), mc.applied());
  out.AddCounter("graph.mutations_rejected", with({}), mc.rejected);
  out.AddCounter("sampler.incremental_updates", with({}), mc.incremental_updates);
  out.AddCounter("sampler.full_builds", with({}), mc.full_builds);
  out.AddCounter("sampler.bucket_builds", with({}), mc.bucket_builds);
  out.AddCounter("engine.checkpoints", with({}), ckpt_stats_.checkpoints);
  out.AddCounter("engine.checkpoint_bytes", with({}), ckpt_stats_.checkpoint_bytes);
  // Wall-clock: never part of the deterministic snapshot contract.
  out.AddCounter("engine.checkpoint_micros", with({}), ckpt_stats_.checkpoint_micros,
                 /*stable=*/false);
  out.AddCounter("engine.recoveries", with({}), ckpt_stats_.recoveries);
  out.SetGauge("engine.phase_seconds", with({{"phase", "prepare"}}), phase_times_.prepare);
  out.SetGauge("engine.phase_seconds", with({{"phase", "deploy"}}), phase_times_.deploy);
  out.SetGauge("engine.phase_seconds", with({{"phase", "sample"}}), phase_times_.sample);
  out.SetGauge("engine.phase_seconds", with({{"phase", "respond"}}), phase_times_.respond);
  out.SetGauge("engine.phase_seconds", with({{"phase", "resolve"}}), phase_times_.resolve);
  out.SetGauge("engine.phase_seconds", with({{"phase", "exchange"}}), phase_times_.exchange);
  out.SetGauge("engine.phase_seconds", with({{"phase", "mutate"}}), phase_times_.mutate);
  for (node_rank_t n = 0; n < options_.num_nodes; ++n) {
    const obs::PhaseAccumulator& acc = nodes_[n]->obs;
    obs::Labels node_label = {{"node", std::to_string(n)}};
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      auto phase = static_cast<obs::Phase>(p);
      SamplingStats stats = acc.Stats(phase);
      stats.ForEachField([&](const char* field, uint64_t v) {
        if (v != 0) {
          out.AddCounter(std::string("engine.phase.") + field,
                         with({{"node", std::to_string(n)},
                               {"phase", obs::PhaseName(phase)}}),
                         v);
        }
      });
    }
    out.AddCounter("engine.batch_sorts", with(node_label), acc.batch_sorts);
  }
  auto export_mailbox = [&](const char* name, const auto& mail) {
    obs::Labels mail_label = {{"mailbox", name}};
    out.AddCounter("engine.mailbox.cross_node_messages", with(mail_label),
                   mail->cross_node_messages());
    out.AddCounter("engine.mailbox.cross_node_bytes", with(mail_label),
                   mail->cross_node_bytes());
    for (node_rank_t src = 0; src < options_.num_nodes; ++src) {
      for (node_rank_t dst = 0; dst < options_.num_nodes; ++dst) {
        uint64_t messages = mail->posted_messages(src, dst);
        if (messages == 0) {
          continue;
        }
        obs::Labels channel = {{"mailbox", name},
                               {"src", std::to_string(src)},
                               {"dst", std::to_string(dst)}};
        out.AddCounter("engine.mailbox.posted_messages", with(channel), messages);
        out.AddCounter("engine.mailbox.posted_bytes", with(channel),
                       mail->posted_bytes(src, dst));
      }
    }
  };
  export_mailbox("walker", walker_mail_);
  export_mailbox("query", query_mail_);
  export_mailbox("response", response_mail_);
  export_mailbox("ack", ack_mail_);
}

}  // namespace knightking

#endif  // SRC_ENGINE_ENGINE_METRICS_H_
