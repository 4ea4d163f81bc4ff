#ifndef FAIRSQG_CORE_RF_QGEN_H_
#define FAIRSQG_CORE_RF_QGEN_H_

#include "common/result.h"
#include "core/config.h"
#include "core/qgen_result.h"

namespace fairsqg {

/// \brief RfQGen (Section IV-A, Fig. 3): "refine as always" depth-first
/// exploration of the instance lattice.
///
/// Starting from the most relaxed instantiation q_r, procedure BFExplore
/// verifies each instance incrementally (incVerify, Lemma 2), feeds the
/// feasible ones through procedure Update, and spawns one-step refinements
/// restricted by template refinement over G_q^d. Infeasible instances cut
/// their whole subtree (a refinement can only shrink the match set, so
/// feasibility is monotonically lost — Lemma 2 (2)). Early convergence
/// favours high-diversity instances (Section V, Fig. 9(e)).
///
/// On a tree template (LatticeApplies) the search verifies nothing itself:
/// one lattice pass (EvaluateLattice, DESIGN.md §14) first settles every
/// instance's exact evaluation, and the search reads each instance it
/// reaches from there instead of running incVerify. The visited set,
/// infeasibility cut, subtree pruning, refinement hints and budget are
/// unchanged, so the search visits the same instances and builds the same
/// archive; GenStats::verified counts the instances it consumed, not the
/// pass's. The pass settles the most refined levels first: when the
/// RunContext stops it, the unsettled instances count as aborted (their
/// subtrees are abandoned, the root's included) and the run reports
/// deadline_exceeded. Other templates keep the per-instance incVerify path.
class RfQGen {
 public:
  static Result<QGenResult> Run(const QGenConfig& config);
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_RF_QGEN_H_
