#include "core/kungs.h"

#include "common/timer.h"
#include "core/enumerate.h"
#include "core/lattice_verify.h"
#include "obs/trace.h"

namespace fairsqg {

Result<QGenResult> Kungs::Run(const QGenConfig& config) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  FAIRSQG_TRACE_SPAN("kungs.run");
  Timer timer;
  QGenResult result;
  InstanceVerifier verifier(config);
  FAIRSQG_ASSIGN_OR_RETURN(
      std::vector<EvaluatedPtr> all,
      VerifyInstanceSpace(config, &verifier, &result.stats));
  result.pareto = ExactParetoSet(FeasibleOnly(all));
  result.stats.total_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace fairsqg
