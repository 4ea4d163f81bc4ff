#ifndef FAIRSQG_CORE_BI_QGEN_H_
#define FAIRSQG_CORE_BI_QGEN_H_

#include "common/result.h"
#include "core/config.h"
#include "core/qgen_result.h"

namespace fairsqg {

/// \brief BiQGen (Section IV-B, Fig. 6): bi-directional lattice exploration.
///
/// A forward frontier refines from the most relaxed instantiation q_r
/// (SpawnF, as in RfQGen) while a backward frontier relaxes from the most
/// refined instantiation q_b (SpawnB). Feasible "sandwich" pairs (q, q')
/// with q' refining q and equal boxing coordinates in one objective prove
/// that every instance strictly between them is ε-dominated (Lemma 3);
/// such instances are skipped by SPrune without verification. Convergence
/// balances high-diversity (forward) and high-coverage (backward)
/// instances (Section V, Fig. 9(e)).
///
/// The search runs on the calling thread, one instance at a time, in
/// Fig. 6's order: turns alternate between the two frontiers; each
/// consumed instance is folded back in (archive update, sandwich pairs,
/// subtree pruning, refinement hints and children, the backward beam).
///
/// The search reads each instance it consumes from SearchEvaluations, as
/// RfQGen does: one lattice pass's, or, on a space the lattice cannot
/// list, verified from scratch. GenStats::verified counts the instances
/// the search consumed; a pass cut by the RunContext leaves the unsettled
/// instances aborted (DESIGN.md §14.3).
class BiQGen {
 public:
  /// Sequential exploration (the paper's Fig. 6).
  static Result<QGenResult> Run(const QGenConfig& config);

  /// Run with the lattice pass on a `num_threads`-worker pool, followed
  /// by the same serial search: the archive and every counter but the
  /// pool's (`enqueued`, the per-worker and verify times) equal Run's.
  /// `num_threads` 0 selects hardware concurrency; 1 runs Run. Without a
  /// lattice pass the pool stays idle.
  static Result<QGenResult> RunParallel(const QGenConfig& config,
                                        size_t num_threads = 0);
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_BI_QGEN_H_
