// Persistent worker pool with chunked dynamic scheduling.
//
// Mirrors KnightKing's task scheduler (§6.2): work is split into fixed-size
// chunks (default 128 walkers/messages) pulled from a shared atomic counter.
// The pool is persistent so that the per-iteration cost of coordinating
// workers is the real synchronization overhead — this is exactly the cost the
// paper's straggler-aware "light mode" avoids, so it must not be hidden.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace knightking {

// KnightKing's dynamic-scheduling granularity for walkers and messages:
// §6.2 hands out work in chunks of 128, and the engine always uses it.
inline constexpr size_t kDefaultChunkSize = 128;

// Chunk size for coarse-grained parallel builds over `total` independent rows
// (sampler tables, envelope arrays): a few chunks per worker amortizes
// dispatch while still load-balancing skewed per-row costs.
inline size_t BuildChunkSize(size_t total, size_t num_workers) {
  size_t chunk = total / (8 * (num_workers + 1));
  return chunk < 256 ? 256 : chunk;
}

class ThreadPool {
 public:
  // Creates `num_workers` persistent threads. 0 means "run inline on the
  // caller" (no threads spawned); this is light mode's degenerate pool.
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  // Runs fn(begin, end) over chunked sub-ranges of [0, total) across all
  // workers plus the calling thread; returns when every chunk is done.
  // fn must be safe to invoke concurrently on disjoint ranges.
  void ParallelFor(size_t total, size_t chunk,
                   const std::function<void(size_t, size_t)>& fn) KK_EXCLUDES(mutex_);

  void ParallelFor(size_t total, const std::function<void(size_t, size_t)>& fn) {
    ParallelFor(total, kDefaultChunkSize, fn);
  }

 private:
  void WorkerLoop() KK_EXCLUDES(mutex_);

  struct Job {
    size_t total = 0;
    size_t chunk = 1;
    const std::function<void(size_t, size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done_chunks{0};
    size_t num_chunks = 0;
    // Guarded by the owning ThreadPool's mutex_ (the analysis cannot name a
    // cross-object capability from a nested struct, so this one stays a
    // comment; every touch in thread_pool.cc is under MutexLock).
    int active_workers = 0;
  };

  // Drains chunks of the current job; returns when no chunks remain.
  void RunChunks(Job& job);

  // The one sanctioned home for std::thread: kk-lint KK010 bans raw threads
  // everywhere else so all parallelism flows through this pool.
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_ready_;
  CondVar work_done_;
  Job* current_job_ KK_GUARDED_BY(mutex_) = nullptr;
  uint64_t job_epoch_ KK_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ KK_GUARDED_BY(mutex_) = false;
};

}  // namespace knightking

#endif  // SRC_UTIL_THREAD_POOL_H_
