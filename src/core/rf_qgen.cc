#include "core/rf_qgen.h"

#include <unordered_set>

#include "common/timer.h"
#include "core/enumerate.h"
#include "core/lattice_verify.h"
#include "core/pareto_archive.h"
#include "core/template_refiner.h"
#include "core/verifier.h"
#include "obs/trace.h"

namespace fairsqg {

namespace {

struct Explorer {
  const QGenConfig& config;
  InstanceVerifier verifier;
  ParetoArchive archive;
  std::unordered_set<Instantiation, Instantiation::Hasher> visited;
  QGenResult* result;
  double max_coverage;
  /// When LatticeApplies, every instance's evaluation by OdometerRank from
  /// one lattice pass (EvaluateLattice), which the search reads instead of
  /// verifying; empty on the per-instance path.
  std::vector<EvaluatedPtr> lattice;
  /// RunContext expired: unwind the recursion without further verifies.
  bool stopped = false;

  Explorer(const QGenConfig& cfg, QGenResult* res)
      : config(cfg),
        verifier(cfg),
        archive(cfg.epsilon),
        result(res),
        max_coverage(static_cast<double>(cfg.groups->total_constraint())) {}

  bool Budget() const {
    return !stopped && (config.max_verifications == 0 ||
                        result->stats.verified < config.max_verifications);
  }

  /// The RunContext check before an instance is consumed. The per-instance
  /// path polls a verification; the lattice pass polled already, so the
  /// search only checks the deadline and the cancellation token.
  bool ShouldStop() const {
    RunContext* ctx = config.run_context;
    if (ctx == nullptr) return false;
    return lattice.empty() ? ctx->PollVerification() : ctx->HardExpired();
  }

  /// Procedure BFExplore (Fig. 3).
  void Explore(const Instantiation& inst) {
    if (!Budget()) return;
    if (!visited.insert(inst).second) {
      ++result->stats.pruned;  // Reached via another lattice path already.
      return;
    }
    if (ShouldStop()) {
      FAIRSQG_TRACE_INSTANT("run_context.stop");
      stopped = true;
      result->stats.deadline_exceeded = true;
      return;
    }

    const EvaluatedPtr eval =
        lattice.empty()
            ? verifier.Verify(inst)
            : lattice[OdometerRank(*config.tmpl, *config.domains, inst)];
    // Aborted mid-match, or not settled by a pass cut short: the subtree
    // is abandoned.
    if (eval == nullptr) return;
    ++result->stats.verified;
    if (!eval->feasible) return;  // Backtrack: the whole subtree is infeasible.
    ++result->stats.feasible;

    archive.Update(eval);
    if (config.record_trace) {
      result->trace.push_back(
          {result->stats.verified, archive.BestObjectives(), archive.size()});
    }

    if (config.use_subtree_pruning &&
        archive.SubtreeCovered(eval->obj.diversity, max_coverage)) {
      // Every refinement of `inst` is already ε-dominated.
      ++result->stats.pruned_subtree;
      return;
    }

    RefinementHints hints =
        config.use_template_refinement
            ? ComputeRefinementHints(*config.graph, *config.tmpl, *config.domains,
                                     eval->matches)
            : RefinementHints::None(*config.tmpl);
    std::vector<LatticeStep> children = LatticeNeighbors::RefineChildren(
        *config.tmpl, *config.domains, inst, hints);
    result->stats.generated += children.size();
    for (const LatticeStep& child : children) Explore(child.inst);
  }
};

}  // namespace

Result<QGenResult> RfQGen::Run(const QGenConfig& config) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  FAIRSQG_TRACE_SPAN("rf_qgen.run");
  Timer timer;
  QGenResult result;
  Explorer explorer(config, &result);
  if (LatticeApplies(config)) {
    // The pass settles every instance; the verification budget bounds the
    // instances the search consumes, as on the per-instance path. GenStats
    // counts what the search consumes, so of the pass's stats only its
    // expiry is kept (the verifier is folded once, below).
    QGenConfig whole = config;
    whole.max_verifications = 0;
    GenStats pass;
    InstanceVerifier* const verifiers[] = {&explorer.verifier};
    explorer.lattice =
        EvaluateLattice(whole, /*pool=*/nullptr, verifiers, &pass);
    result.stats.deadline_exceeded = pass.deadline_exceeded;
  }
  Instantiation root = Instantiation::MostRelaxed(*config.tmpl);
  ++result.stats.generated;
  explorer.Explore(root);
  if (config.run_context != nullptr && config.run_context->Expired()) {
    result.stats.deadline_exceeded = true;
  }
  {
    FAIRSQG_TRACE_SPAN("archive_collect");
    result.pareto = explorer.archive.SortedEntries();
  }
  FoldVerifierStats(explorer.verifier, &result.stats);
  result.stats.total_seconds = timer.ElapsedSeconds();
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, result.stats));
  return result;
}

}  // namespace fairsqg
