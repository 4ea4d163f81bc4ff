#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace fairsqg {

namespace {

thread_local size_t tls_index = ThreadPool::kNotAWorker;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  try {
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  } catch (...) {
    Shutdown();  // A thread failed to start: join the ones that did.
    throw;
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

size_t ThreadPool::CurrentWorkerId() { return tls_index; }

void ThreadPool::Run(const std::function<void(size_t)>& body) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A body calling Run on its own team would hang; two callers mix rounds.
    FAIRSQG_CHECK(running_ == 0) << "ThreadPool::Run is not reentrant";
    body_ = &body;
    running_ = workers_.size();
    ++round_;
  }
  start_cv_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return running_ == 0; });
    std::swap(error, first_error_);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop(size_t index) {
  tls_index = index;
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(size_t)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      body = body_;
    }
    std::exception_ptr error;
    try {
      (*body)(index);
    } catch (...) {
      error = std::current_exception();
    }
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error != nullptr && first_error_ == nullptr) first_error_ = error;
      last = (--running_ == 0);
    }
    if (last) done_cv_.notify_one();
  }
}

}  // namespace fairsqg
