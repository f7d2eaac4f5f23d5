// Simulated-cluster message transport.
//
// The paper runs on an MPI cluster with batched all-to-all message passing
// (§6.2). This reproduction executes the same message flows between N
// *logical* nodes inside one process: each (src, dst) pair has a buffer,
// senders append batches, and Exchange() delivers everything at a BSP
// barrier. Message and byte counters make communication volume observable
// (used by the Figure 7 scalability analysis). See DESIGN.md §3.
//
// A FaultInjector (src/testing/fault_injector.h) may be attached to perturb
// delivery: at each Exchange a message can be dropped, delayed until the
// next Exchange, or duplicated, and a whole inbox reordered. Decisions are
// keyed on message *content* (via a caller-supplied key function) plus the
// Exchange epoch, never on buffer position, so the fault schedule is
// deterministic for a given policy seed regardless of thread scheduling.
#ifndef SRC_ENGINE_MAILBOX_H_
#define SRC_ENGINE_MAILBOX_H_

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "src/obs/counters.h"
#include "src/testing/fault_injector.h"
#include "src/util/check.h"
#include "src/util/mutex.h"
#include "src/util/types.h"

namespace knightking {

template <typename MessageT>
class Mailbox {
 public:
  using FaultKeyFn = std::function<uint64_t(const MessageT&)>;

  explicit Mailbox(node_rank_t num_nodes)
      : num_nodes_(num_nodes),
        outgoing_(static_cast<size_t>(num_nodes) * num_nodes),
        incoming_(num_nodes),
        locks_(static_cast<size_t>(num_nodes) * num_nodes) {
#if KK_OBS
    posted_messages_.assign(outgoing_.size(), 0);
    posted_bytes_.assign(outgoing_.size(), 0);
#endif
  }

  node_rank_t num_nodes() const { return num_nodes_; }

  // Attaches a fault injector. `salt` distinguishes this mailbox's decision
  // stream from other mailboxes sharing the injector; `key_fn` derives a
  // content key per message (e.g. walker id + step).
  void AttachFaultInjector(FaultInjector* injector, uint64_t salt, FaultKeyFn key_fn) {
    injector_ = injector;
    fault_salt_ = salt;
    fault_key_ = std::move(key_fn);
    delayed_.assign(num_nodes_, {});
  }

  // Appends a batch from src to dst. Thread-safe per (src, dst) channel.
  void Post(node_rank_t src, node_rank_t dst, std::vector<MessageT>&& batch) {
    if (batch.empty()) {
      return;
    }
    size_t ch = Channel(src, dst);
    MutexLock lock(locks_[ch].m);
#if KK_OBS
    posted_messages_[ch] += batch.size();
    posted_bytes_[ch] += batch.size() * sizeof(MessageT);
#endif
    auto& buf = outgoing_[ch];
    buf.insert(buf.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }

  // Posts batches[dst] to every destination and empties each batch, keeping
  // its capacity.
  void PostAll(node_rank_t src, std::vector<std::vector<MessageT>>& batches) {
    for (size_t dst = 0; dst < batches.size(); ++dst) {
      Post(src, static_cast<node_rank_t>(dst), std::move(batches[dst]));
      batches[dst].clear();
    }
  }

  // Single-message convenience overload. Takes the channel lock per call, so
  // engine hot paths (per-walker sampling, responses, acks) must accumulate
  // into per-destination scratch and use the batch overload above instead.
  void Post(node_rank_t src, node_rank_t dst, const MessageT& msg) {
    size_t ch = Channel(src, dst);
    MutexLock lock(locks_[ch].m);
#if KK_OBS
    posted_messages_[ch] += 1;
    posted_bytes_[ch] += sizeof(MessageT);
#endif
    outgoing_[ch].push_back(msg);
  }

  // BSP barrier: moves every posted batch into the destination inboxes.
  // Must be called from the driver with no concurrent Post() in flight.
  void Exchange() {
    ++epoch_;
    for (node_rank_t dst = 0; dst < num_nodes_; ++dst) {
      auto& inbox = incoming_[dst];
      inbox.clear();
      if (!delayed_.empty() && !delayed_[dst].empty()) {
        // Messages delayed at the previous Exchange arrive first, one
        // superstep late.
        inbox.insert(inbox.end(), std::make_move_iterator(delayed_[dst].begin()),
                     std::make_move_iterator(delayed_[dst].end()));
        delayed_[dst].clear();
      }
      for (node_rank_t src = 0; src < num_nodes_; ++src) {
        auto& buf = outgoing_[Channel(src, dst)];
        if (buf.empty()) {
          continue;
        }
        if (src != dst) {
          cross_node_messages_ += buf.size();
          cross_node_bytes_ += buf.size() * sizeof(MessageT);
        }
        bool faultable =
            injector_ != nullptr && (src != dst || injector_->policy().include_local);
        if (!faultable) {
          inbox.insert(inbox.end(), std::make_move_iterator(buf.begin()),
                       std::make_move_iterator(buf.end()));
        } else {
          for (MessageT& msg : buf) {
            switch (injector_->Decide(fault_salt_, fault_key_(msg), epoch_)) {
              case FaultAction::kDeliver:
                inbox.push_back(std::move(msg));
                break;
              case FaultAction::kDrop:
                break;
              case FaultAction::kDelay:
                delayed_[dst].push_back(std::move(msg));
                break;
              case FaultAction::kDuplicate:
                inbox.push_back(msg);
                inbox.push_back(std::move(msg));
                break;
            }
          }
        }
        buf.clear();
      }
      if (injector_ != nullptr && injector_->policy().reorder && inbox.size() > 1) {
        CounterRng shuffle_rng = injector_->ShuffleRng(fault_salt_, epoch_, dst);
        std::shuffle(inbox.begin(), inbox.end(), shuffle_rng);
      }
    }
  }

  // Discards every undelivered message — posted-but-unexchanged outgoing
  // batches, the last Exchange's inboxes, and fault-delayed stragglers —
  // modelling the loss of all in-transit traffic at a node crash. Counters
  // and the fault epoch survive: recovery rolls the *engine* back, not the
  // simulated network's history, so replayed supersteps may draw a different
  // fault schedule (the reliability protocol makes walk output invariant to
  // that). Driver-only, like Exchange().
  void Wipe() {
    for (auto& buf : outgoing_) {
      buf.clear();
    }
    for (auto& inbox : incoming_) {
      inbox.clear();
    }
    for (auto& d : delayed_) {
      d.clear();
    }
  }

  // The inbox delivered by the last Exchange(), owned by node `dst`.
  std::vector<MessageT>& Inbox(node_rank_t dst) { return incoming_[dst]; }

  // Messages/bytes that crossed a node boundary (src != dst) so far.
  uint64_t cross_node_messages() const { return cross_node_messages_; }
  uint64_t cross_node_bytes() const { return cross_node_bytes_; }

  // Messages/bytes posted on the (src, dst) channel so far, including
  // node-local traffic (observability layer; zero when built with
  // -DKK_OBS=OFF). Driver-only: do not call with Posts in flight.
  uint64_t posted_messages(node_rank_t src, node_rank_t dst) const {
#if KK_OBS
    return posted_messages_[Channel(src, dst)];
#else
    (void)src;
    (void)dst;
    return 0;
#endif
  }
  uint64_t posted_bytes(node_rank_t src, node_rank_t dst) const {
#if KK_OBS
    return posted_bytes_[Channel(src, dst)];
#else
    (void)src;
    (void)dst;
    return 0;
#endif
  }

  void ResetCounters() {
    cross_node_messages_ = 0;
    cross_node_bytes_ = 0;
#if KK_OBS
    posted_messages_.assign(posted_messages_.size(), 0);
    posted_bytes_.assign(posted_bytes_.size(), 0);
#endif
  }

 private:
  // One annotated Mutex per (src, dst) channel. The guarded data is the
  // matching outgoing_[ch] slot plus its posted_* counters — a per-element
  // relationship KK_GUARDED_BY cannot express (no dependent capabilities),
  // so the channel discipline is: Post() holds locks_[Channel(src, dst)].m
  // for every touch of outgoing_[ch], and the driver-only readers
  // (Exchange/Wipe/posted_*) run at the BSP barrier with no Post in flight.
  struct ChannelLock {
    Mutex m;
  };

  size_t Channel(node_rank_t src, node_rank_t dst) const {
    KK_DCHECK(src < num_nodes_ && dst < num_nodes_);
    return static_cast<size_t>(src) * num_nodes_ + dst;
  }

  node_rank_t num_nodes_;
  std::vector<std::vector<MessageT>> outgoing_;
  std::vector<std::vector<MessageT>> incoming_;
  std::vector<std::vector<MessageT>> delayed_;
  std::vector<ChannelLock> locks_;
#if KK_OBS
  // Per-channel posted totals (observability; counted under the channel
  // lock the Post already holds, so the overhead is two adds per batch).
  std::vector<uint64_t> posted_messages_;
  std::vector<uint64_t> posted_bytes_;
#endif
  uint64_t cross_node_messages_ = 0;
  uint64_t cross_node_bytes_ = 0;
  uint64_t epoch_ = 0;
  FaultInjector* injector_ = nullptr;
  uint64_t fault_salt_ = 0;
  FaultKeyFn fault_key_;
};

}  // namespace knightking

#endif  // SRC_ENGINE_MAILBOX_H_
