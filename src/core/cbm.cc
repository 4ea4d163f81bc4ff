#include "core/cbm.h"

#include <algorithm>

#include "common/timer.h"
#include "core/enumerate.h"
#include "core/lattice_verify.h"
#include "obs/trace.h"

namespace fairsqg {

Result<QGenResult> Cbm::Run(const QGenConfig& config, size_t num_sections) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  FAIRSQG_TRACE_SPAN("cbm.run");
  Timer timer;
  QGenResult result;
  InstanceVerifier verifier(config);
  FAIRSQG_ASSIGN_OR_RETURN(
      std::vector<EvaluatedPtr> all,
      VerifyInstanceSpace(config, &verifier, &result.stats));
  result.pareto = Select(FeasibleOnly(all), num_sections);
  result.stats.total_seconds = timer.ElapsedSeconds();
  return result;
}

std::vector<EvaluatedPtr> Cbm::Select(const std::vector<EvaluatedPtr>& feasible,
                                      size_t num_sections) {
  if (feasible.empty()) return {};

  // Anchor points: the single-objective optima.
  auto by_diversity = [](const EvaluatedPtr& a, const EvaluatedPtr& b) {
    return a->obj.diversity < b->obj.diversity;
  };
  auto by_coverage = [](const EvaluatedPtr& a, const EvaluatedPtr& b) {
    return a->obj.coverage < b->obj.coverage;
  };
  EvaluatedPtr max_div =
      *std::max_element(feasible.begin(), feasible.end(), by_diversity);
  EvaluatedPtr max_cov =
      *std::max_element(feasible.begin(), feasible.end(), by_coverage);

  std::vector<EvaluatedPtr> anchors{max_div, max_cov};

  // Bisect the coverage range between the anchors into ε-constraint
  // levels; each level is an independent constrained optimization pass.
  double lo = max_div->obj.coverage;
  double hi = max_cov->obj.coverage;
  if (num_sections > 0 && hi > lo) {
    for (size_t s = 1; s < num_sections; ++s) {
      double theta =
          lo + (hi - lo) * static_cast<double>(s) / static_cast<double>(num_sections);
      const EvaluatedPtr* best = nullptr;
      for (const EvaluatedPtr& e : feasible) {  // One full scan per level.
        if (e->obj.coverage >= theta &&
            (best == nullptr || e->obj.diversity > (*best)->obj.diversity)) {
          best = &e;
        }
      }
      if (best != nullptr) anchors.push_back(*best);
    }
  }

  // Drop duplicates and dominated anchors. The anchors stay in the order
  // they were found, so exact ties resolve the same way on every run.
  return ExactParetoSet(std::move(anchors));
}

}  // namespace fairsqg
