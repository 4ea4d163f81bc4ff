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
/// evaluates each instance it reaches, feeds the feasible ones through
/// procedure Update, and spawns one-step refinements restricted by
/// template refinement over G_q^d. Infeasible instances cut their whole
/// subtree (a refinement can only shrink the match set, so feasibility is
/// monotonically lost — Lemma 2 (2)). Early convergence favours
/// high-diversity instances (Section V, Fig. 9(e)).
///
/// When LatticeApplies (any template whose space has at most
/// kMaxLatticeInstances instances) the search verifies nothing itself:
/// one lattice pass (EvaluateLattice, DESIGN.md §14) first settles every
/// instance's exact evaluation, and the search reads each instance it
/// reaches from there. The pass is the paper's incVerify (Lemma 2) applied
/// to the whole lattice at once. GenStats::verified counts the instances
/// the search consumed, not the pass's. The pass settles the most refined
/// levels first: when the RunContext stops it, the unsettled instances
/// count as aborted (their subtrees are abandoned, the root's included)
/// and the run reports deadline_exceeded. On a larger space the search
/// verifies each instance it reaches from scratch (InstanceVerifier::
/// Verify); the visited set, infeasibility cut, subtree pruning,
/// refinement hints and budget are the same on both paths.
class RfQGen {
 public:
  static Result<QGenResult> Run(const QGenConfig& config);
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_RF_QGEN_H_
