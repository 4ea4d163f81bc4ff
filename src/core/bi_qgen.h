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
/// Both entry points drive one explorer in rounds: pop a batch of frontier
/// items, taking turns between the two frontiers; verify the batch; fold
/// the results back in slot order (archive update, sandwich pairs, subtree
/// pruning, refinement hints and children, the backward beam). All lattice
/// bookkeeping (frontiers, `visited`, sandwich pairs, the archive) is
/// written by the calling thread only. `Run` verifies one slot per round
/// on the calling thread, which is exactly Fig. 6's serial interleaving.
/// `RunParallel` verifies several slots per pool worker in one
/// ThreadPool::Run round: workers claim slots from a shared cursor, and
/// each owns a private InstanceVerifier (memo caches stay thread-private).
/// Folding in slot order makes the output deterministic for a fixed
/// thread count. Batching
/// relaxes *when* pruning information becomes available (a prune may take
/// effect a batch later than in the serial order) but never what the
/// archive guarantees: the result still ε-covers the full feasible space.
class BiQGen {
 public:
  /// Sequential exploration (the paper's Fig. 6).
  static Result<QGenResult> Run(const QGenConfig& config);

  /// Parallel exploration; `num_threads` 0 selects hardware concurrency,
  /// 1 falls back to the sequential path.
  static Result<QGenResult> RunParallel(const QGenConfig& config,
                                        size_t num_threads = 0);
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_BI_QGEN_H_
