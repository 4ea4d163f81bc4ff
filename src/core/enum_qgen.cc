#include "core/enum_qgen.h"

#include <functional>
#include <utility>

#include "common/timer.h"
#include "core/enumerate.h"
#include "core/lattice_verify.h"
#include "core/pareto_archive.h"
#include "obs/trace.h"

namespace fairsqg {

namespace {

/// The per-instance odometer, for templates the lattice path does not
/// cover: verifies I(Q) in enumeration order, offering each verified
/// instance with the running verified count.
void RunInstances(const QGenConfig& config, InstanceVerifier* verifier,
                  const std::function<void(size_t, EvaluatedPtr)>& offer,
                  GenStats* stats) {
  RunContext* ctx = config.run_context;
  InstantiationEnumerator it(*config.tmpl, *config.domains);
  Instantiation inst;
  while (it.Next(&inst)) {
    if (ctx != nullptr && ctx->PollVerification()) {
      FAIRSQG_TRACE_INSTANT("run_context.stop");
      stats->deadline_exceeded = true;
      break;
    }
    ++stats->generated;
    EvaluatedPtr e = verifier->Verify(inst);
    if (e == nullptr) continue;  // Aborted mid-match; instance dropped.
    ++stats->verified;
    if (e->feasible) ++stats->feasible;
    offer(stats->verified, std::move(e));
    if (config.max_verifications > 0 &&
        stats->verified >= config.max_verifications) {
      break;
    }
  }
  if (ctx != nullptr && ctx->Expired()) stats->deadline_exceeded = true;
  FoldVerifierStats(*verifier, stats);
}

}  // namespace

Result<QGenResult> EnumQGen::Run(const QGenConfig& config) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  FAIRSQG_TRACE_SPAN("enum_qgen.run");
  Timer timer;
  QGenResult result;
  InstanceVerifier verifier(config);
  ParetoArchive archive(config.epsilon);

  auto offer = [&](size_t verified, EvaluatedPtr e) {
    if (!e->feasible) return;
    archive.Update(std::move(e));
    if (config.record_trace) {
      result.trace.push_back(
          {verified, archive.BestObjectives(), archive.size()});
    }
  };
  if (LatticeApplies(config)) {
    InstanceVerifier* const verifiers[] = {&verifier};
    size_t verified = 0;
    VerifyLattice(
        config, /*pool=*/nullptr, verifiers,
        [&](size_t, EvaluatedPtr e) { offer(++verified, std::move(e)); },
        &result.stats);
  } else {
    RunInstances(config, &verifier, offer, &result.stats);
  }
  {
    FAIRSQG_TRACE_SPAN("archive_collect");
    result.pareto = archive.SortedEntries();
  }
  result.stats.total_seconds = timer.ElapsedSeconds();
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, result.stats));
  return result;
}

}  // namespace fairsqg
