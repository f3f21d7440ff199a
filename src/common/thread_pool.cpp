#include "common/thread_pool.h"

#include <atomic>
#include <cstdio>
#include <exception>
#include <string>

#include "common/check.h"
#include "obs/obs.h"

#ifdef __linux__
#include <pthread.h>
#endif
#include <unistd.h>

namespace mlsim {

namespace {

void set_current_thread_name(std::size_t index) {
#ifdef __linux__
  char name[16];  // pthread limit: 15 chars + NUL
  std::snprintf(name, sizeof(name), "mlsim-worker-%zu", index);
  pthread_setname_np(pthread_self(), name);
#else
  (void)index;
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads, std::size_t queue_capacity)
    : capacity_(queue_capacity), owner_pid_(static_cast<long>(::getpid())) {
  if (n_threads == 0) {
    n_threads = std::thread::hardware_concurrency();
    if (n_threads == 0) n_threads = 1;
  }
  // The calling thread participates in parallel_for, so spawn n-1 workers.
  for (std::size_t i = 1; i < n_threads; ++i) {
    workers_.emplace_back([this, i] {
      set_current_thread_name(i);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  // Deterministic drain: workers exit only once the queue is empty, but a
  // pool with zero workers (single-core machine) may still hold enqueued
  // tasks — run them here so every queued task executes exactly once and the
  // queue-depth gauge reads zero at exit.
  while (!queue_.empty()) {
    Task task = std::move(queue_.front());
    queue_.pop_front();
    MLSIM_GAUGE_SET(obs::names::kPoolQueueDepth,
                    static_cast<double>(queue_.size()));
    run_task(task);
  }
}

std::size_t ThreadPool::size() const {
  if (static_cast<long>(::getpid()) != owner_pid_) return 1;  // forked child
  return workers_.size() + 1;
}

std::size_t ThreadPool::pending() const {
  std::lock_guard lk(mu_);
  return queue_.size();
}

std::size_t ThreadPool::queue_high_water() const {
  std::lock_guard lk(mu_);
  return high_water_;
}

void ThreadPool::run_task(Task& task) {
  MLSIM_HIST_TIMER(obs::names::kPoolTaskNs);
  task.fn();
  MLSIM_COUNTER_ADD(obs::names::kPoolTasksDone, 1);
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      MLSIM_GAUGE_SET(obs::names::kPoolQueueDepth,
                      static_cast<double>(queue_.size()));
    }
    run_task(task);
  }
}

bool ThreadPool::try_enqueue(std::function<void()> fn) {
  {
    std::lock_guard lk(mu_);
    if (capacity_ != 0 && queue_.size() >= capacity_) return false;
    queue_.push_back(Task{std::move(fn)});
    if (queue_.size() > high_water_) {
      high_water_ = queue_.size();
      MLSIM_GAUGE_SET(obs::names::kPoolQueueHighWater,
                      static_cast<double>(high_water_));
    }
    MLSIM_GAUGE_SET(obs::names::kPoolQueueDepth,
                    static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::post(std::function<void()> fn) {
  if (!try_enqueue(std::move(fn))) {
    throw QueueFullError("thread pool queue is at capacity (" +
                         std::to_string(capacity_) + " tasks)");
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t n_chunks = std::min<std::size_t>(size(), n);
  if (n_chunks <= 1) {
    fn(begin, end);
    return;
  }

  std::atomic<std::size_t> done{0};
  std::exception_ptr first_error;
  std::mutex err_mu;
  std::mutex done_mu;
  std::condition_variable done_cv;

  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  std::size_t launched = 0;
  for (std::size_t c = 1; c < n_chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk);
    const bool queued = try_enqueue([&, lo, hi] {
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      {
        // Notify while holding done_mu: the waiter owns done_cv on its
        // stack and may destroy it the moment the predicate holds, so the
        // signal must complete before the count becomes observable.
        std::lock_guard lk(done_mu);
        done.fetch_add(1, std::memory_order_release);
        done_cv.notify_one();
      }
    });
    if (queued) {
      ++launched;
    } else {
      // Bounded queue full: graceful degradation — the chunk runs on the
      // caller instead of growing the queue.
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  }
  // Caller runs the first chunk.
  try {
    fn(begin, std::min(end, begin + chunk));
  } catch (...) {
    std::lock_guard lk(err_mu);
    if (!first_error) first_error = std::current_exception();
  }
  {
    std::unique_lock lk(done_mu);
    done_cv.wait(lk, [&] { return done.load(std::memory_order_acquire) == launched; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mlsim
