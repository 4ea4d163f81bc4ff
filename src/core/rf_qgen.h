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
/// The search reads each instance it reaches from SearchEvaluations: one
/// lattice pass's evaluation (the paper's incVerify, Lemma 2, applied to
/// the whole lattice at once), or, on a space the lattice cannot list, a
/// verification from scratch. GenStats::verified counts the instances the
/// search consumed. A pass cut by the RunContext settles the most refined
/// levels first, so the unsettled instances, the root's included, count as
/// aborted and their subtrees are abandoned (DESIGN.md §14.3).
class RfQGen {
 public:
  static Result<QGenResult> Run(const QGenConfig& config);
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_RF_QGEN_H_
