#include "util/parallel.h"

#include <memory>

namespace tft {

namespace {

int g_default_threads = 0;  // 0 = all hardware threads
std::unique_ptr<ThreadPool> g_pool;
std::mutex g_pool_mutex;

thread_local bool t_in_parallel_region = false;

/// RAII flag so nested parallel primitives degrade to serial execution.
struct RegionGuard {
  RegionGuard() noexcept { t_in_parallel_region = true; }
  ~RegionGuard() noexcept { t_in_parallel_region = false; }
};

}  // namespace

int hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void set_default_threads(int threads) {
  std::lock_guard lk(g_pool_mutex);
  g_default_threads = threads < 0 ? 0 : threads;
}

int default_threads() noexcept {
  return g_default_threads > 0 ? g_default_threads : hardware_threads();
}

bool in_parallel_region() noexcept { return t_in_parallel_region; }

ThreadPool::ThreadPool(int threads) {
  const int extra = (threads < 1 ? 1 : threads) - 1;
  threads_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_on_workers(const std::function<void(int)>& job) {
  if (threads_.empty()) {
    RegionGuard guard;
    job(0);
    return;
  }
  const std::lock_guard region(region_mutex_);
  {
    std::lock_guard lk(mutex_);
    job_ = &job;
    ++epoch_;
    running_ = static_cast<int>(threads_.size());
  }
  work_cv_.notify_all();
  {
    RegionGuard guard;
    job(0);
  }
  std::unique_lock lk(mutex_);
  done_cv_.wait(lk, [this] { return running_ == 0; });
  job_ = nullptr;
}

void ThreadPool::worker_loop(int index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock lk(mutex_);
      work_cv_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    {
      RegionGuard guard;
      (*job)(index);
    }
    {
      std::lock_guard lk(mutex_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  std::lock_guard lk(g_pool_mutex);
  const int want = g_default_threads > 0 ? g_default_threads : hardware_threads();
  if (!g_pool || g_pool->size() != want) g_pool = std::make_unique<ThreadPool>(want);
  return *g_pool;
}

}  // namespace tft
