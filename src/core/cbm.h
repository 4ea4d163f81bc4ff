#ifndef FAIRSQG_CORE_CBM_H_
#define FAIRSQG_CORE_CBM_H_

#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/qgen_result.h"

namespace fairsqg {

/// \brief CBM (constraint-based method [10], the skyline-literature
/// baseline of Section V).
///
/// Computes the two anchor instances that optimize each single objective,
/// then bisects the coverage range into `num_sections` ε-constraint levels
/// θ and solves one constrained single-objective problem per level:
/// maximize δ(q) subject to f(q) >= θ. Each sub-problem rescans the
/// verified instance space — the "more expensive bi-level optimization
/// procedure" the paper observes makes CBM ~1.2x slower than Kungs.
///
/// The instance space is verified as Kungs verifies it
/// (VerifyInstanceSpace): when LatticeApplies, from one lattice pass.
class Cbm {
 public:
  static Result<QGenResult> Run(const QGenConfig& config,
                                size_t num_sections = 10);

  /// The CBM archive of `feasible`, the verified feasible instances in
  /// odometer order: the selection Run makes after verification.
  static std::vector<EvaluatedPtr> Select(
      const std::vector<EvaluatedPtr>& feasible, size_t num_sections);
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_CBM_H_
