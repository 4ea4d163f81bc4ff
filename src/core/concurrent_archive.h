#ifndef FAIRSQG_CORE_CONCURRENT_ARCHIVE_H_
#define FAIRSQG_CORE_CONCURRENT_ARCHIVE_H_

#include <cstddef>
#include <vector>

#include "core/pareto_archive.h"

namespace fairsqg {

/// \brief Sharded ε-Pareto archive for data-parallel generation.
///
/// Each worker owns one ParetoArchive shard and updates it without any
/// synchronization (shards are thread-private by contract — see DESIGN.md
/// §9). After the workers quiesce, `Merged()` folds every shard into a
/// single archive through procedure Update.
///
/// Soundness of the ε-box merge: each shard box-dominates everything its
/// worker verified, and Update preserves box dominance transitively —
/// whenever a member is evicted, the evictor's box dominates-or-equals the
/// evictee's box. Hence the merged archive box-dominates the union of all
/// verified instances and remains an ε-Pareto set of the full space, the
/// same guarantee a single sequential archive provides. Update is also
/// order-independent (each box keeps its highest-ranked instance, see
/// RanksAbove), so the merged archive equals the sequential archive of the
/// same instances, member for member, however the work was scheduled.
class ConcurrentParetoArchive {
 public:
  ConcurrentParetoArchive(double epsilon, size_t num_shards);

  size_t num_shards() const { return shards_.size(); }
  double epsilon() const { return epsilon_; }

  /// The shard a worker updates; callers must ensure one thread per shard.
  ParetoArchive& shard(size_t worker) { return shards_[worker]; }
  const ParetoArchive& shard(size_t worker) const { return shards_[worker]; }

  /// Folds all shards into one archive (call only after workers quiesce).
  ParetoArchive Merged() const;

  /// Convenience: `Merged().SortedEntries()`.
  std::vector<EvaluatedPtr> MergedSortedEntries() const;

 private:
  double epsilon_;
  std::vector<ParetoArchive> shards_;
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_CONCURRENT_ARCHIVE_H_
