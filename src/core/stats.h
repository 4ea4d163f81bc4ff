#ifndef FAIRSQG_CORE_STATS_H_
#define FAIRSQG_CORE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fairsqg {

/// Counters reported by every query-generation algorithm. They are 32-bit
/// (no run verifies 4G instances), which keeps the record at 104 bytes for
/// callers that keep one per request, such as reqbench. The pruning
/// percentages of Section V (RfQGen ~40%, BiQGen ~60% fewer instances than
/// EnumQGen) are computed from `verified` across algorithms.
///
/// Timing is reported on two axes so that parallel and sequential runs
/// stay comparable: `verify_cpu_seconds` sums verifier time across all
/// workers (total compute spent), `verify_wall_seconds` takes the maximum
/// over workers (the verification critical path). Sequential runs report
/// the same value on both. Per-worker time is measured as wall time inside
/// the verifier, so on a host oversubscribed with more workers than cores
/// the CPU axis over-counts by the timeslicing factor.
///
/// Scheduling-dependent counters: in a parallel run with no wall-clock
/// deadline the archive and all other counters depend only on the input
/// and the thread count, but the times (`total_seconds`,
/// `verify_*_seconds`, `per_worker_verify_seconds`) depend on which worker
/// verified what, and so, on ParallelQGen's per-instance odometer (a
/// template without the lattice path), do `cache_hits`/`cache_misses`
/// (one shared cache, filled by whichever worker gets there first). The
/// lattice pass consults no cache, and BiQGen::RunParallel runs only that
/// pass on its pool, so its counters other than the times
/// and `enqueued` equal BiQGen::Run's.
struct GenStats {
  uint32_t generated = 0;  ///< Instances spawned or enumerated.
  uint32_t verified = 0;   ///< Instances actually matched and measured.
  uint32_t pruned = 0;     ///< Spawned instances skipped by pruning (all kinds).
  uint32_t feasible = 0;   ///< Verified instances meeting all constraints.

  // Pruning attribution (subsets of `pruned` / separate events).
  uint32_t pruned_sandwich = 0;  ///< Instances skipped by SPrune (Lemma 3).
  uint32_t pruned_subtree = 0;   ///< Subtree cuts by the archive-cover check.

  // Parallel-execution counters (zero for sequential runs).
  /// Instances dispatched to the thread pool, by the lattice walk or the
  /// per-instance odometer.
  uint32_t enqueued = 0;
  /// Always 0: workers claim shared work from a cursor, and nothing is
  /// stolen. Kept, and written nowhere, until reqbench drops its
  /// `common.pool_stolen` metric, which reads it; then the field goes.
  uint32_t stolen = 0;

  // Match-set cache counters (zero when no cache is configured), folded
  // from per-verifier counts. Scheduling-dependent (see above).
  uint32_t cache_hits = 0;    ///< Verifications answered from the cache.
  uint32_t cache_misses = 0;  ///< Lookups that fell through to the matcher.

  // Degraded-run counters (RunContext cancellation / deadlines, DESIGN.md
  // §11). A truncated run returns the best-so-far archive with
  // `deadline_exceeded` set instead of crashing or hanging.
  bool deadline_exceeded = false;  ///< Run stopped early (deadline/cancel).
  uint32_t aborted_matches = 0;      ///< Matcher searches cut off mid-flight.
  uint32_t timed_out_instances = 0;  ///< Instances whose verification aborted.

  double total_seconds = 0;
  double verify_cpu_seconds = 0;   ///< Verifier time summed across workers.
  double verify_wall_seconds = 0;  ///< Max per-worker verifier time.
  /// Per-worker verifier seconds (parallel runs only; empty otherwise).
  std::vector<double> per_worker_verify_seconds;

  std::string ToString() const {
    std::string s = "generated=" + std::to_string(generated) +
                    " verified=" + std::to_string(verified) +
                    " pruned=" + std::to_string(pruned) +
                    " feasible=" + std::to_string(feasible) +
                    " total_s=" + std::to_string(total_seconds) +
                    " verify_cpu_s=" + std::to_string(verify_cpu_seconds) +
                    " verify_wall_s=" + std::to_string(verify_wall_seconds);
    if (pruned_sandwich > 0 || pruned_subtree > 0) {
      s += " pruned_sandwich=" + std::to_string(pruned_sandwich) +
           " pruned_subtree=" + std::to_string(pruned_subtree);
    }
    if (enqueued > 0) {
      s += " enqueued=" + std::to_string(enqueued) +
           " workers=" + std::to_string(per_worker_verify_seconds.size());
    }
    if (cache_hits > 0 || cache_misses > 0) {
      s += " cache_hits=" + std::to_string(cache_hits) +
           " cache_misses=" + std::to_string(cache_misses);
    }
    if (deadline_exceeded || aborted_matches > 0 || timed_out_instances > 0) {
      s += std::string(" deadline_exceeded=") +
           (deadline_exceeded ? "true" : "false") +
           " aborted_matches=" + std::to_string(aborted_matches) +
           " timed_out_instances=" + std::to_string(timed_out_instances);
    }
    return s;
  }
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_STATS_H_
