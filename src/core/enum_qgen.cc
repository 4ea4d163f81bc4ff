#include "core/enum_qgen.h"

#include "common/timer.h"
#include "core/enumerate.h"
#include "core/pareto_archive.h"
#include "obs/trace.h"

namespace fairsqg {

Result<QGenResult> EnumQGen::Run(const QGenConfig& config) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  FAIRSQG_TRACE_SPAN("enum_qgen.run");
  Timer timer;
  QGenResult result;
  InstanceVerifier verifier(config);
  ParetoArchive archive(config.epsilon);

  RunContext* ctx = config.run_context;
  InstantiationEnumerator it(*config.tmpl, *config.domains);
  Instantiation inst;
  while (it.Next(&inst)) {
    if (ctx != nullptr && ctx->PollVerification()) {
      FAIRSQG_TRACE_INSTANT("run_context.stop");
      result.stats.deadline_exceeded = true;
      break;
    }
    ++result.stats.generated;
    EvaluatedPtr e = verifier.Verify(inst);
    if (e == nullptr) continue;  // Aborted mid-match; instance dropped.
    ++result.stats.verified;
    if (e->feasible) {
      ++result.stats.feasible;
      archive.Update(e);
      if (config.record_trace) {
        result.trace.push_back(
            {result.stats.verified, archive.BestObjectives(), archive.size()});
      }
    }
    if (config.max_verifications > 0 &&
        result.stats.verified >= config.max_verifications) {
      break;
    }
  }
  if (ctx != nullptr && ctx->Expired()) result.stats.deadline_exceeded = true;
  {
    FAIRSQG_TRACE_SPAN("archive_collect");
    result.pareto = archive.SortedEntries();
  }
  FoldVerifierStats(verifier, &result.stats);
  result.stats.total_seconds = timer.ElapsedSeconds();
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, result.stats));
  return result;
}

}  // namespace fairsqg
