#ifndef FAIRSQG_CORE_ENUMERATE_H_
#define FAIRSQG_CORE_ENUMERATE_H_

#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/evaluated.h"
#include "core/stats.h"
#include "core/verifier.h"

namespace fairsqg {

/// \brief Odometer over the full instantiation space I(Q):
/// every range variable ranges over {wildcard, 0, ..., |dom|-1} and every
/// edge variable over {0, 1}. The first instantiation produced is the most
/// relaxed one.
class InstantiationEnumerator {
 public:
  InstantiationEnumerator(const QueryTemplate& tmpl,
                          const VariableDomains& domains);

  /// Advances to the next instantiation; false when exhausted.
  bool Next(Instantiation* out);

  /// |I(Q)| = prod (|dom|+1) * 2^|X_E| (saturating).
  size_t SpaceSize() const;

  void Reset();

 private:
  const QueryTemplate* tmpl_;
  const VariableDomains* domains_;
  Instantiation current_;
  bool started_ = false;
  bool exhausted_ = false;
};

/// Largest space VerifyAllInstances and MultiOutputEnumQGen enumerate.
inline constexpr size_t kMaxEnumeratedInstances = 1000000;

/// Receives each verified instance on the worker (index into the
/// verifiers) that verified it.
using InstanceSink = std::function<void(size_t worker, EvaluatedPtr)>;

/// \brief The per-instance odometer, under VerifyLattice's contract: worker
/// w claims instances of I(Q) one at a time from one shared
/// InstantiationEnumerator, verifies them with verifiers[w] and offers each
/// to `sink`, on every worker of `pool` in one ThreadPool::Run round, or
/// inline as worker 0 without a pool. Nothing is materialized, so |I(Q)|
/// is not capped. Every claim polls the RunContext under the enumerator's
/// lock, so a budget of n dispatches exactly the first n instances,
/// whatever the pool. Fills `stats` as VerifyLattice does.
void VerifyOdometer(const QGenConfig& config, ThreadPool* pool,
                    std::span<InstanceVerifier* const> verifiers,
                    const InstanceSink& sink, GenStats* stats);

/// \brief Verifies the entire instance space (the Δ2p algorithm of Theorem
/// 1 without the archive step): VerifyOdometer's serial form. Returns every
/// evaluated instance — infeasible ones included — in enumeration order,
/// and applies the expiry policy.
///
/// Fails with FailedPrecondition when |I(Q)| exceeds
/// kMaxEnumeratedInstances (guard against accidental exponential blow-ups).
Result<std::vector<EvaluatedPtr>> VerifyAllInstances(const QGenConfig& config,
                                                     InstanceVerifier* verifier,
                                                     GenStats* stats);

/// Convenience: feasible subset of `all`.
std::vector<EvaluatedPtr> FeasibleOnly(const std::vector<EvaluatedPtr>& all);

/// The one path by which a verifier's numbers reach GenStats: adds its
/// verify time (summed into verify_cpu_seconds, max'd into
/// verify_wall_seconds), match-cache hits and misses and degraded-run
/// counters (aborted matcher searches, instances dropped on abort) into
/// `stats`. Every generator calls this once per verifier before returning,
/// so a serial run reports cpu == wall and a parallel run the sum and max.
void FoldVerifierStats(const InstanceVerifier& verifier, GenStats* stats);

/// Maps a truncated run onto the configured expiry policy: OK under
/// ExpiryPolicy::kPartial (caller returns the best-so-far archive),
/// Status::DeadlineExceeded under kFail. No-op when the run completed or
/// no RunContext is configured.
Status ApplyExpiryPolicy(const QGenConfig& config, const GenStats& stats);

/// Exact Pareto set of `instances` by sort-and-sweep (Kung et al.'s
/// algorithm specialised to two objectives): sort by descending diversity,
/// keep instances whose coverage strictly exceeds the running maximum.
/// Duplicate coordinates keep one representative.
std::vector<EvaluatedPtr> ExactParetoSet(std::vector<EvaluatedPtr> instances);

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_ENUMERATE_H_
