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
  InstanceVerifier* const verifiers[1] = {&verifier};
  /// Every instance's evaluation, from one lattice pass or per instance.
  SearchEvaluations evaluations;
  ParetoArchive archive;
  std::unordered_set<Instantiation, Instantiation::Hasher> visited;
  QGenResult* result;
  double max_coverage;
  /// RunContext expired: unwind the recursion without further verifies.
  bool stopped = false;

  Explorer(const QGenConfig& cfg, QGenResult* res)
      : config(cfg),
        verifier(cfg),
        evaluations(cfg, /*pool=*/nullptr, verifiers),
        archive(cfg.epsilon),
        result(res),
        max_coverage(static_cast<double>(cfg.groups->total_constraint())) {}

  /// Procedure BFExplore (Fig. 3).
  void Explore(const Instantiation& inst) {
    if (stopped) return;
    if (!visited.insert(inst).second) {
      ++result->stats.pruned;  // Reached via another lattice path already.
      return;
    }
    if (evaluations.ShouldStop()) {
      stopped = true;
      return;
    }

    const EvaluatedPtr eval = evaluations.Evaluate(inst);
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
  Instantiation root = Instantiation::MostRelaxed(*config.tmpl);
  ++result.stats.generated;
  explorer.Explore(root);
  {
    FAIRSQG_TRACE_SPAN("archive_collect");
    result.pareto = explorer.archive.SortedEntries();
  }
  explorer.evaluations.FoldInto(&result.stats);
  result.stats.total_seconds = timer.ElapsedSeconds();
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, result.stats));
  return result;
}

}  // namespace fairsqg
