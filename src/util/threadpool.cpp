#include "util/threadpool.hpp"

#include <limits>

#include "util/common.hpp"

namespace dv {

ThreadPool::ThreadPool(std::size_t threads) {
  DV_REQUIRE(threads > 0, "a thread pool needs at least one thread");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { work(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  try_submit(std::move(task), std::numeric_limits<std::size_t>::max());
}

bool ThreadPool::try_submit(std::function<void()> task,
                            std::size_t max_queued) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    DV_REQUIRE(!stop_, "submit on stopped pool");
    if (queue_.size() >= max_queued) return false;
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
  return true;
}

std::size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::work() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace dv
