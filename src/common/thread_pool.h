#ifndef FAIRSQG_COMMON_THREAD_POOL_H_
#define FAIRSQG_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fairsqg {

/// \brief Persistent fork-join team shared by the parallel generators.
///
/// The worker threads start once, in the constructor, and sleep between
/// rounds. `Run(body)` wakes them, calls `body(w)` once on every worker
/// w in [0, num_workers()), and returns when all have returned. There is
/// no task queue: a body that has more work than one call pulls it from a
/// shared cursor of its own (the lattice pass's level, the odometer's
/// enumerator).
///
/// Thread-safety contract (see DESIGN.md §9): `Run` is called from one
/// thread at a time and never from inside a body. It rethrows the first
/// exception a body raised, after every worker has returned; the team
/// stays usable afterwards.
class ThreadPool {
 public:
  /// Sentinel returned by CurrentWorkerId() on threads no pool owns.
  static constexpr size_t kNotAWorker = static_cast<size_t>(-1);

  /// `num_threads` 0 selects the hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);

  /// Joins the workers (no round can be in flight: Run is synchronous).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Calls `body(w)` on every worker w and blocks until all calls have
  /// returned, then rethrows the first exception a call raised, if any.
  void Run(const std::function<void(size_t)>& body);

  /// Worker index of the calling thread within whichever pool owns it, or
  /// kNotAWorker when the thread belongs to no pool. It needs no pool
  /// reference, so observers (the tracer's worker attribution) can ask
  /// without plumbing the pool through every layer.
  static size_t CurrentWorkerId();

 private:
  void WorkerLoop(size_t index);
  /// Wakes every worker to exit and joins those started.
  void Shutdown();

  // Start/done handshake. A round is published by bumping `round_`;
  // `running_` counts the workers that have not yet returned from it.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* body_ = nullptr;
  uint64_t round_ = 0;
  size_t running_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;

  // Last: the threads use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace fairsqg

#endif  // FAIRSQG_COMMON_THREAD_POOL_H_
