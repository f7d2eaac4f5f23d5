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
        senders_(num_nodes) {
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

  // Appends a batch from src to dst. Thread-safe: posts from one sender
  // serialize on its lock.
  void Post(node_rank_t src, node_rank_t dst, std::vector<MessageT>&& batch) {
    if (batch.empty()) {
      return;
    }
    Sender& sender = senders_[src];
    MutexLock lock(sender.m);
    Append(sender, src, dst, batch);
  }

  // Posts batches[dst] to every destination under one lock and empties each
  // batch, keeping its capacity. Takes no lock when every batch is empty.
  void PostAll(node_rank_t src, std::vector<std::vector<MessageT>>& batches) {
    KK_DCHECK(batches.size() <= num_nodes_);
    if (std::ranges::all_of(batches, [](const auto& b) { return b.empty(); })) {
      return;
    }
    Sender& sender = senders_[src];
    MutexLock lock(sender.m);
    for (size_t dst = 0; dst < batches.size(); ++dst) {
      if (!batches[dst].empty()) {
        Append(sender, src, static_cast<node_rank_t>(dst), batches[dst]);
        batches[dst].clear();
      }
    }
  }

  // Single-message convenience overload. Takes the sender's lock per call,
  // so engine hot paths (per-walker sampling, responses, acks) must
  // accumulate into per-destination scratch and use the batch overloads
  // above instead.
  void Post(node_rank_t src, node_rank_t dst, const MessageT& msg) {
    Sender& sender = senders_[src];
    MutexLock lock(sender.m);
    OpenChannel(sender, src, dst, 1).push_back(msg);
  }

  // BSP barrier: moves every posted batch into the destination inboxes.
  // Each inbox holds the messages delayed at the previous Exchange first,
  // then each sender's batch in ascending sender order. Visits only the
  // channels that hold mail. Must be called from the driver with no
  // concurrent Post() in flight (KK_NO_THREAD_SAFETY_ANALYSIS: the barrier,
  // not the sender locks, orders the posts before this read).
  void Exchange() KK_NO_THREAD_SAFETY_ANALYSIS {
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
    }
    for (node_rank_t src = 0; src < num_nodes_; ++src) {
      for (node_rank_t dst : senders_[src].posted) {
        auto& inbox = incoming_[dst];
        auto& buf = outgoing_[Channel(src, dst)];
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
      senders_[src].posted.clear();
    }
    if (injector_ != nullptr && injector_->policy().reorder) {
      for (node_rank_t dst = 0; dst < num_nodes_; ++dst) {
        auto& inbox = incoming_[dst];
        if (inbox.size() > 1) {
          CounterRng shuffle_rng = injector_->ShuffleRng(fault_salt_, epoch_, dst);
          std::shuffle(inbox.begin(), inbox.end(), shuffle_rng);
        }
      }
    }
  }

  // The traffic in transit at a BSP barrier, where every inbox has been
  // drained: posted-but-unexchanged batches, fault-delayed stragglers, and
  // the fault epoch that keys the next Exchange's decisions.
  struct Transit {
    uint64_t epoch = 0;
    std::vector<std::vector<MessageT>> outgoing;
    std::vector<std::vector<node_rank_t>> posted;  // per sender, as in Sender
    std::vector<std::vector<MessageT>> delayed;
  };

  // Copies the traffic in transit. Driver-only, at a barrier.
  Transit CaptureTransit() const KK_NO_THREAD_SAFETY_ANALYSIS {
    Transit t{.epoch = epoch_, .outgoing = outgoing_, .posted = {}, .delayed = delayed_};
    for (const Sender& sender : senders_) {
      t.posted.push_back(sender.posted);
    }
    return t;
  }

  // Rolls the simulated network back to a captured barrier: whatever is in
  // transit now is lost, and `t`'s traffic and fault epoch take its place,
  // so the following Exchanges deliver, drop, delay and duplicate exactly
  // what they did after the capture. Counters keep counting. Driver-only.
  void RestoreTransit(const Transit& t) KK_NO_THREAD_SAFETY_ANALYSIS {
    Wipe();
    epoch_ = t.epoch;
    outgoing_ = t.outgoing;
    delayed_ = t.delayed;
    for (size_t src = 0; src < senders_.size(); ++src) {
      senders_[src].posted = t.posted[src];
    }
  }

  // Returns the mailbox to its constructed state — no mail, zero counters,
  // fault epoch 0, no fault injector — keeping its buffers' capacity, so a
  // long-lived owner reuses one mailbox across runs. Driver-only.
  void Reset() {
    Wipe();
    ResetCounters();
    epoch_ = 0;
    injector_ = nullptr;
    fault_salt_ = 0;
    fault_key_ = nullptr;
    delayed_.clear();
  }

  // Returns the storage of every empty buffer with room for more than
  // `max_kept` messages. Driver-only.
  void ReleaseLargeBuffers(size_t max_kept) {
    auto release = [max_kept](std::vector<MessageT>& buffer) {
      if (buffer.empty() && buffer.capacity() > max_kept) {
        buffer.shrink_to_fit();
      }
    };
    std::ranges::for_each(outgoing_, release);
    std::ranges::for_each(incoming_, release);
    std::ranges::for_each(delayed_, release);
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
  // Discards every undelivered message: outgoing batches, inboxes and
  // fault-delayed stragglers. Driver-only.
  void Wipe() KK_NO_THREAD_SAFETY_ANALYSIS {
    for (auto& buf : outgoing_) {
      buf.clear();
    }
    for (Sender& sender : senders_) {
      sender.posted.clear();
    }
    for (auto& inbox : incoming_) {
      inbox.clear();
    }
    for (auto& d : delayed_) {
      d.clear();
    }
  }

  // One sender's lock and the destinations it posted to since the last
  // Exchange (each listed once, when its channel first fills). The lock
  // also covers the sender's outgoing_ row and its posted_* counters — a
  // per-element relationship KK_GUARDED_BY cannot express (no dependent
  // capabilities), so the discipline is: posts hold senders_[src].m for
  // every touch of channel (src, *), and the driver-only readers
  // (Exchange/Wipe/posted_*) run at the BSP barrier with no Post in flight.
  struct Sender {
    Mutex m;
    std::vector<node_rank_t> posted KK_GUARDED_BY(m);
  };

  // Channel (src, dst)'s buffer, about to receive `count` messages: counts
  // them and lists dst among the sender's destinations if the channel is
  // empty. The caller holds sender.m.
  std::vector<MessageT>& OpenChannel(Sender& sender, node_rank_t src, node_rank_t dst,
                                     size_t count) KK_REQUIRES(sender.m) {
    const size_t ch = Channel(src, dst);
#if KK_OBS
    posted_messages_[ch] += count;
    posted_bytes_[ch] += count * sizeof(MessageT);
#endif
    if (outgoing_[ch].empty()) {
      sender.posted.push_back(dst);
    }
    return outgoing_[ch];
  }

  // Appends `batch` to channel (src, dst); the caller holds sender.m.
  void Append(Sender& sender, node_rank_t src, node_rank_t dst, std::vector<MessageT>& batch)
      KK_REQUIRES(sender.m) {
    auto& buf = OpenChannel(sender, src, dst, batch.size());
    buf.insert(buf.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }

  size_t Channel(node_rank_t src, node_rank_t dst) const {
    KK_DCHECK(src < num_nodes_ && dst < num_nodes_);
    return static_cast<size_t>(src) * num_nodes_ + dst;
  }

  node_rank_t num_nodes_;
  std::vector<std::vector<MessageT>> outgoing_;
  std::vector<std::vector<MessageT>> incoming_;
  std::vector<std::vector<MessageT>> delayed_;
  std::vector<Sender> senders_;
#if KK_OBS
  // Per-channel posted totals (observability; counted under the sender
  // lock the post already holds, so the overhead is two adds per batch).
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
