#ifndef FAIRSQG_CORE_EVALUATED_H_
#define FAIRSQG_CORE_EVALUATED_H_

#include <memory>
#include <vector>

#include "core/dominance.h"
#include "graph/types.h"
#include "query/instantiation.h"

namespace fairsqg {

/// \brief A verified query instance: its instantiation, match set, measure
/// coordinates, and feasibility — the lattice node payload of Section IV.
struct EvaluatedInstance {
  Instantiation inst;
  NodeSet matches;               // q(G), sorted.
  Objectives obj;                // (δ(q), f(q)).
  // Diversity decomposition of `matches` as DiversityEvaluator::ComputeParts
  // returned it: δ = (1-λ)·relevance_sum + (2λ/(|V_uo|-1))·pair_sum.
  // Recorded for inspection only: rescoring a match set from scratch is
  // sub-quadratic, so no verifier reads another instance's parts.
  double relevance_sum = 0;
  double pair_sum = 0;
  bool feasible = false;         // |q(G) ∩ P_i| >= c_i for all i.
  std::vector<size_t> group_coverage;
  uint64_t verify_seq = 0;       // Verification order, for anytime traces.
};

using EvaluatedPtr = std::shared_ptr<const EvaluatedInstance>;

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_EVALUATED_H_
