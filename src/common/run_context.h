#ifndef FAIRSQG_COMMON_RUN_CONTEXT_H_
#define FAIRSQG_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace fairsqg {

/// What a generator does when its RunContext expires mid-run.
enum class ExpiryPolicy {
  /// Stop cleanly and return the best-so-far ε-Pareto archive with
  /// GenStats::deadline_exceeded set (the anytime contract, DESIGN.md §11).
  kPartial,
  /// Fail the run with Status::DeadlineExceeded; no partial result.
  kFail,
};

/// \brief Cooperative cancellation handle threaded through every execution
/// layer (generators → verifier → matcher). One RunContext governs one run.
///
/// Three independent stop conditions compose:
///  - a **monotonic deadline** (steady clock) for wall-time bounded service;
///  - an **atomic cancellation token** tripped by any thread
///    (`RequestCancel`), e.g. a client disconnect;
///  - a **verification budget** (`CancelAfterVerifications`) tripped at the
///    generators' deterministic poll sites — the mechanism the randomized
///    cancellation tests use, because unlike a clock it expires at an exact,
///    reproducible verification count.
///
/// Two severities are exposed so parallel runs stay deterministic where
/// they can be:
///  - `HardExpired()` (token or deadline) is checked *inside* the matcher's
///    backtracking loop and aborts in-flight matches — a wedged VF2 search
///    cannot outlive the deadline by more than one poll interval;
///  - `Expired()` additionally reports the verification-budget trip, and is
///    consulted only at scheduling sites (the sequential step loop, the
///    lattice pass's level cursor, the odometer's enumerator). A
///    budget trip therefore never aborts a match midway:
///    already-scheduled work completes, so the verified set is exactly the
///    first N instances of the deterministic schedule.
///
/// Configuration setters are NOT thread-safe and must happen before the run
/// starts; `RequestCancel`, `PollVerification`, and all queries are safe
/// from any thread during the run.
class RunContext {
 public:
  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // --- configuration (before the run starts) -------------------------------

  /// Arms the monotonic deadline `ms` milliseconds from now. Non-positive
  /// values arm an already-expired deadline.
  void SetDeadlineAfterMillis(double ms);
  void ClearDeadline() { deadline_ns_ = 0; }
  bool has_deadline() const { return deadline_ns_ != 0; }

  /// Backtracking-step budget per matcher invocation (0 = unlimited). Caps
  /// the time any single pathological instance can consume: an expired
  /// deadline is detected at the latest one step-budget slice later.
  void set_match_step_limit(uint64_t steps) { match_step_limit_ = steps; }
  uint64_t match_step_limit() const { return match_step_limit_; }

  void set_on_expiry(ExpiryPolicy policy) { policy_ = policy; }
  ExpiryPolicy on_expiry() const { return policy_; }

  /// Trips the (soft) token after exactly `n` counted verification polls;
  /// the n-th verification still runs, the (n+1)-th is refused. 0 disarms.
  void CancelAfterVerifications(uint64_t n) { poll_limit_ = n; }

  // --- runtime (thread-safe) -----------------------------------------------

  /// Trips the hard cancellation token; irreversible for this run.
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Token tripped or deadline passed — aborts in-flight matches.
  bool HardExpired() const;

  /// HardExpired() or the verification budget is exhausted — stops
  /// scheduling further verifications.
  bool Expired() const {
    return polls_exhausted_.load(std::memory_order_relaxed) || HardExpired();
  }

  /// The per-verification poll, called by every generator immediately
  /// before scheduling a verification. Returns true when the run must stop
  /// (the pending verification is NOT counted and must not run); otherwise
  /// counts the verification against the budget and returns false.
  bool PollVerification();

  /// Verifications admitted by PollVerification so far.
  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> polls_exhausted_{false};
  std::atomic<uint64_t> polls_{0};
  uint64_t poll_limit_ = 0;      // 0 = unlimited.
  int64_t deadline_ns_ = 0;      // Steady-clock nanos since epoch; 0 = none.
  uint64_t match_step_limit_ = 0;
  ExpiryPolicy policy_ = ExpiryPolicy::kPartial;
};

}  // namespace fairsqg

#endif  // FAIRSQG_COMMON_RUN_CONTEXT_H_
