#ifndef FAIRSQG_CORE_KUNGS_H_
#define FAIRSQG_CORE_KUNGS_H_

#include "common/result.h"
#include "core/config.h"
#include "core/qgen_result.h"

namespace fairsqg {

/// \brief Kungs (Section V baseline): verify all of I(Q), then compute the
/// *exact* Pareto-optimal non-dominated set with Kung's maximal-vector
/// algorithm (sort by one objective, sweep the other).
///
/// When LatticeApplies every evaluation comes from one lattice pass
/// (VerifyInstanceSpace, DESIGN.md §14), which does not consult the
/// match-set cache; a larger space is verified instance by instance
/// (VerifyAllInstances).
///
/// Returns the unique maximum Pareto set of Lemma 1 — the ground truth the
/// ε-indicator compares the approximate algorithms against.
class Kungs {
 public:
  static Result<QGenResult> Run(const QGenConfig& config);
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_KUNGS_H_
