#include "src/util/thread_pool.h"

#include "src/util/check.h"

namespace knightking {

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_ready_.NotifyAll();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::RunChunks(Job& job, size_t lane) {
  for (;;) {
    size_t begin = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.total) {
      return;
    }
    size_t end = begin + job.chunk;
    if (end > job.total) {
      end = job.total;
    }
    (*job.fn)(lane, begin, end);
    job.done_chunks.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::ParallelForLanes(size_t total, size_t chunk, const LaneFn& fn) {
  KK_CHECK(chunk > 0);
  if (total == 0) {
    return;
  }
  if (workers_.empty() || total <= chunk) {
    // Inline fast path: nothing to coordinate.
    fn(0, 0, total);
    return;
  }

  Job job;
  job.total = total;
  job.chunk = chunk;
  job.fn = &fn;
  job.num_chunks = (total + chunk - 1) / chunk;

  {
    MutexLock lock(mutex_);
    current_job_ = &job;
    ++job_epoch_;
  }
  // Wake only as many workers as there are chunks beyond the caller's own:
  // small jobs (the per-node driver dispatch, light batches just above the
  // inline threshold) otherwise pay a full notify_all stampede per phase.
  size_t useful_workers = job.num_chunks - 1;  // caller runs chunks too
  if (useful_workers >= workers_.size()) {
    work_ready_.NotifyAll();
  } else {
    for (size_t i = 0; i < useful_workers; ++i) {
      work_ready_.NotifyOne();
    }
  }

  // The caller participates too; this also guarantees progress when workers
  // are descheduled (we run on machines with fewer cores than workers).
  RunChunks(job, 0);

  // Wait until no worker still holds a reference to `job` (it lives on this
  // stack frame). Workers join/leave the job under mutex_, so once
  // active_workers hits zero with current_job_ cleared, none can re-enter.
  {
    MutexLock lock(mutex_);
    current_job_ = nullptr;
    while (job.active_workers != 0) {
      work_done_.Wait(mutex_);
    }
  }
  KK_DCHECK(job.done_chunks.load(std::memory_order_acquire) == job.num_chunks);
}

void ThreadPool::WorkerLoop(size_t lane) {
  uint64_t seen_epoch = 0;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && (current_job_ == nullptr || job_epoch_ == seen_epoch)) {
        work_ready_.Wait(mutex_);
      }
      if (shutting_down_) {
        return;
      }
      job = current_job_;
      seen_epoch = job_epoch_;
      ++job->active_workers;
    }
    RunChunks(*job, lane);
    {
      MutexLock lock(mutex_);
      --job->active_workers;
    }
    work_done_.NotifyOne();
  }
}

}  // namespace knightking
