// Minimal fixed-size thread pool: the query layer's run_parallel batches
// and the serve daemon's heavy verbs run on one. Callers wait on their own
// completion signal (a latch, a future); the pool has no global barrier,
// so one caller never waits for another caller's tasks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dv {

class ThreadPool {
 public:
  /// Starts exactly `threads` worker threads (at least 1).
  explicit ThreadPool(std::size_t threads);
  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; tasks must not throw (std::terminate otherwise).
  void submit(std::function<void()> task);

  /// Admission-bounded submit: enqueues the task and returns true unless
  /// `max_queued` tasks already wait for a worker, in which case the task
  /// is dropped and false is returned.
  bool try_submit(std::function<void()> task, std::size_t max_queued);

  /// Tasks waiting for a worker (not counting those running).
  std::size_t queued() const;

 private:
  void work();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

}  // namespace dv
