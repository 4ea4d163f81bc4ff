#ifndef FAIRSQG_CORE_PARALLEL_QGEN_H_
#define FAIRSQG_CORE_PARALLEL_QGEN_H_

#include <cstddef>

#include "common/result.h"
#include "core/config.h"
#include "core/qgen_result.h"

namespace fairsqg {

/// \brief ParallelQGen — the paper's future-work topic ("parallel query
/// generation over large graphs with diversity and group fairness",
/// Section VI), realized as a data-parallel EnumQGen.
///
/// It is EnumQGen's body run on a ThreadPool (both are defined in
/// enum_qgen.cc), through VerifyEveryInstance: the lattice walk, whose
/// workers claim each level's instances and meet at a barrier between
/// levels (DESIGN.md §14), or, on a space the lattice cannot list, the
/// odometer, whose workers claim instances of I(Q) from one enumerator
/// (VerifyOdometer; nothing is materialized). Each worker
/// verifies with a private InstanceVerifier (the graph is shared
/// read-only) into a private ParetoArchive, and the per-worker archives
/// are folded by ParetoArchive::Merge. Merging is sound: each archive
/// box-dominates everything its worker saw, and Update preserves box
/// dominance transitively, so the merged archive is an ε-Pareto set of the
/// full space — the same guarantee as EnumQGen, and, since Update keeps
/// each box's highest-ranked instance, the same archive at any thread
/// count.
class ParallelQGen {
 public:
  /// `num_threads` 0 selects the hardware concurrency.
  static Result<QGenResult> Run(const QGenConfig& config, size_t num_threads = 0);
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_PARALLEL_QGEN_H_
