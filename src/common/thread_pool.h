// Minimal work-stealing-free thread pool with a parallel_for helper.
//
// The library runs on anything from 1 core (this development machine) to a
// many-core node; parallel_for degrades gracefully to a serial loop when the
// pool has a single worker.
//
// Workers are named `mlsim-worker-N` (visible in /proc and profilers), and
// shutdown drains deterministically: every enqueued task runs exactly once
// before the destructor returns, so the `thread_pool.queue_depth` gauge
// (see obs/metric_names.h) reads zero at exit.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mlsim {

/// Thrown by ThreadPool::post() when the task queue is at capacity — the
/// pool never grows its queue beyond the configured bound, so a producer
/// outrunning the workers gets explicit backpressure instead of unbounded
/// memory growth.
class QueueFullError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ThreadPool {
 public:
  /// n_threads == 0 selects hardware_concurrency() (at least 1).
  /// queue_capacity == 0 means unbounded; otherwise at most that many tasks
  /// may be queued (running tasks do not count). parallel_for degrades
  /// gracefully when the queue is full (chunks run on the caller); post()
  /// throws QueueFullError.
  explicit ThreadPool(std::size_t n_threads = 0, std::size_t queue_capacity = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that share parallel work: the workers plus the calling thread.
  /// A child forked from the process that built the pool inherits none of
  /// its worker threads, so there the pool is the calling thread alone.
  std::size_t size() const;

  /// Tasks currently queued (not yet picked up by a worker).
  std::size_t pending() const;

  /// Configured queue bound (0 = unbounded).
  std::size_t queue_capacity() const { return capacity_; }

  /// Highest queue depth observed so far (also exported as the
  /// `thread_pool.queue_high_water` gauge).
  std::size_t queue_high_water() const;

  /// Fire-and-forget task submission. Throws QueueFullError when the queue
  /// is at capacity. Tasks posted to a pool with zero workers (single-core
  /// machine) run in the destructor's drain.
  void post(std::function<void()> fn);

  /// Run fn(i) for i in [begin, end), partitioned in contiguous chunks across
  /// the pool plus the calling thread. Blocks until all iterations finish.
  /// Exceptions from workers are rethrown on the caller (first one wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Chunked variant: fn(chunk_begin, chunk_end) per contiguous chunk.
  void parallel_for_chunks(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool sized from hardware concurrency.
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
  };

  void worker_loop();
  /// Queue `fn` if capacity allows; returns false when the queue is full.
  bool try_enqueue(std::function<void()> fn);
  void run_task(Task& task);

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::size_t capacity_ = 0;    // 0 = unbounded
  long owner_pid_ = 0;          // process whose threads are workers_
  std::size_t high_water_ = 0;  // max queue depth seen (under mu_)
};

}  // namespace mlsim
