#include "core/bi_qgen.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/enumerate.h"
#include "core/lattice_verify.h"
#include "core/pareto_archive.h"
#include "core/template_refiner.h"
#include "core/verifier.h"
#include "obs/trace.h"

namespace fairsqg {

namespace {

/// A feasible sandwich pair (low ≺_I high) with equal boxing coordinates in
/// one objective: everything strictly between is ε-dominated (Lemma 3).
struct SandwichPair {
  Instantiation low;   // The more relaxed end (forward side).
  Instantiation high;  // The more refined end (backward side).
};

/// Beam width of the backward relaxation descent (DESIGN.md §4).
constexpr size_t kBackwardBeam = 2;

/// The Fig. 6 exploration (see BiQGen's class comment). It runs on the
/// calling thread alone.
struct BiExplorer {
  const QGenConfig& config;
  QGenResult* result;
  /// Every instance's evaluation, from one lattice pass or per instance.
  SearchEvaluations& evaluations;
  ParetoArchive archive;
  std::unordered_set<Instantiation, Instantiation::Hasher> visited;
  std::vector<SandwichPair> sbounds;
  std::deque<Instantiation> forward;
  std::deque<Instantiation> backward;
  double max_coverage;

  // Most recent feasible instances of each direction, paired for SBounds.
  EvaluatedPtr last_forward;
  EvaluatedPtr last_backward;

  BiExplorer(const QGenConfig& cfg, QGenResult* res, SearchEvaluations& e)
      : config(cfg),
        result(res),
        evaluations(e),
        archive(cfg.epsilon),
        max_coverage(static_cast<double>(cfg.groups->total_constraint())) {}

  /// Procedure SPrune: q lies strictly inside a recorded sandwich pair.
  bool SPrune(const Instantiation& inst) const {
    if (!config.use_sandwich_pruning) return false;
    for (const SandwichPair& p : sbounds) {
      if (inst.StrictlyRefines(p.low) && p.high.StrictlyRefines(inst)) {
        return true;
      }
    }
    return false;
  }

  /// Records a pair (lines 16-17 of Fig. 6), dropping pairs it subsumes.
  void UpdateSBounds(const EvaluatedPtr& fwd, const EvaluatedPtr& bwd) {
    if (fwd == nullptr || bwd == nullptr) return;
    if (!bwd->inst.StrictlyRefines(fwd->inst)) return;
    BoxCoord bf = BoxOf(fwd->obj, config.epsilon);
    BoxCoord bb = BoxOf(bwd->obj, config.epsilon);
    if (bf.diversity != bb.diversity && bf.coverage != bb.coverage) return;
    // Drop existing pairs whose span lies inside the new pair.
    std::erase_if(sbounds, [&](const SandwichPair& p) {
      return p.low.Refines(fwd->inst) && bwd->inst.Refines(p.high);
    });
    sbounds.push_back({fwd->inst, bwd->inst});
  }

  void Trace() {
    if (config.record_trace) {
      result->trace.push_back(
          {result->stats.verified, archive.BestObjectives(), archive.size()});
    }
  }

  /// Depth proxy of the changed variable's binding in `step`: how refined
  /// the variable still is after the relaxation.
  int32_t StepDepth(const LatticeStep& step) const {
    if (step.var_index < config.tmpl->num_range_vars()) {
      return step.inst.range_binding(step.var_index);
    }
    return step.inst.edge_binding(
        static_cast<EdgeVarId>(step.var_index - config.tmpl->num_range_vars()));
  }

  /// A sandwich-pruned forward instance skips the evaluation and the
  /// archive update (Lemma 3 guarantees it is ε-dominated) but still
  /// spawns its children — otherwise instances beyond the sandwiched band,
  /// reachable only through it, would never be explored.
  void SpawnSandwichedForward(const Instantiation& inst) {
    std::vector<LatticeStep> children = LatticeNeighbors::RefineChildren(
        *config.tmpl, *config.domains, inst,
        RefinementHints::None(*config.tmpl));
    result->stats.generated += children.size();
    for (LatticeStep& child : children) {
      forward.push_back(std::move(child.inst));
    }
  }

  /// Pushes the refinement children of a feasible verified instance onto
  /// the forward frontier, unless every refinement is already ε-dominated.
  void SpawnRefinements(const EvaluatedPtr& eval) {
    if (config.use_subtree_pruning &&
        archive.SubtreeCovered(eval->obj.diversity, max_coverage)) {
      ++result->stats.pruned_subtree;
      return;
    }
    RefinementHints hints =
        config.use_template_refinement
            ? ComputeRefinementHints(*config.graph, *config.tmpl,
                                     *config.domains, eval->matches)
            : RefinementHints::None(*config.tmpl);
    std::vector<LatticeStep> children = LatticeNeighbors::RefineChildren(
        *config.tmpl, *config.domains, eval->inst, hints);
    result->stats.generated += children.size();
    for (LatticeStep& child : children) {
      forward.push_back(std::move(child.inst));
    }
  }

  /// Pushes at most kBackwardBeam relaxations of an infeasible backward
  /// instance to the front of the backward frontier, preferring to relax
  /// the most refined bindings (the largest step back toward the
  /// feasibility border). The depth-first descent homes in on the
  /// high-coverage border instead of sweeping the whole infeasible upper
  /// set (DESIGN.md §4).
  void SpawnRelaxations(const EvaluatedPtr& eval) {
    std::vector<LatticeStep> children =
        LatticeNeighbors::RelaxChildren(*config.tmpl, eval->inst);
    result->stats.generated += children.size();
    std::sort(children.begin(), children.end(),
              [&](const LatticeStep& a, const LatticeStep& b) {
                return StepDepth(a) > StepDepth(b);
              });
    if (children.size() > kBackwardBeam) {
      result->stats.pruned += children.size() - kBackwardBeam;
      children.resize(kBackwardBeam);
    }
    for (size_t i = children.size(); i-- > 0;) {
      backward.push_front(std::move(children[i].inst));
    }
  }

  void SeedFrontiers() {
    Instantiation root = Instantiation::MostRelaxed(*config.tmpl);
    Instantiation bottom =
        Instantiation::MostRefined(*config.tmpl, *config.domains);
    forward.push_back(root);
    ++result->stats.generated;
    if (bottom != root) {
      backward.push_back(std::move(bottom));
      ++result->stats.generated;
    }
  }

  /// Folds one evaluated instance back into the exploration state (the
  /// post-verification part of lines 4-17 of Fig. 6). A feasible backward
  /// instance has reached the feasibility border: relaxing it further
  /// belongs to the forward region, and since it is now `visited` the
  /// forward pass would drop it, so its refinements go to the forward
  /// frontier here.
  void Fold(const EvaluatedPtr& eval, bool is_forward) {
    if (eval == nullptr) return;  // Not evaluated: the branch is abandoned.
    ++result->stats.verified;
    if (!eval->feasible) {
      // Refinements of an infeasible instance stay infeasible (Lemma 2).
      if (!is_forward) SpawnRelaxations(eval);
      return;
    }
    ++result->stats.feasible;
    archive.Update(eval);
    Trace();
    (is_forward ? last_forward : last_backward) = eval;
    UpdateSBounds(last_forward, last_backward);
    SpawnRefinements(eval);
  }

  /// Takes turns between the two frontiers (lines 4 and 10 of Fig. 6);
  /// the turn flips on every pop attempt, an empty frontier's included.
  /// `visited` and sandwich-pruned items are consumed without an
  /// evaluation (sandwiched forward items still spawn their children).
  void Run() {
    FAIRSQG_TRACE_SPAN("bi_qgen.explore");
    SeedFrontiers();
    bool forward_turn = true;
    while (!forward.empty() || !backward.empty()) {
      const bool is_forward = forward_turn;
      forward_turn = !forward_turn;
      std::deque<Instantiation>& src = is_forward ? forward : backward;
      if (src.empty()) continue;
      Instantiation inst = std::move(src.front());
      src.pop_front();
      if (!visited.insert(inst).second) {
        ++result->stats.pruned;
        continue;
      }
      if (SPrune(inst)) {
        ++result->stats.pruned;
        ++result->stats.pruned_sandwich;
        if (is_forward) SpawnSandwichedForward(inst);
        continue;
      }
      if (evaluations.ShouldStop()) break;
      Fold(evaluations.Evaluate(inst), is_forward);
    }
  }
};

/// The part of Run and RunParallel after validation: the search reads
/// SearchEvaluations over `verifiers`, whose pass runs on `pool`, if any.
Result<QGenResult> Explore(const QGenConfig& config, ThreadPool* pool,
                           std::span<InstanceVerifier* const> verifiers,
                           const Timer& timer) {
  QGenResult result;
  SearchEvaluations evaluations(config, pool, verifiers);
  BiExplorer explorer(config, &result, evaluations);
  explorer.Run();
  evaluations.FoldInto(&result.stats);
  result.pareto = explorer.archive.SortedEntries();
  result.stats.total_seconds = timer.ElapsedSeconds();
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, result.stats));
  return result;
}

}  // namespace

Result<QGenResult> BiQGen::Run(const QGenConfig& config) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  FAIRSQG_TRACE_SPAN("bi_qgen.run");
  Timer timer;
  InstanceVerifier verifier(config);
  InstanceVerifier* const verifiers[] = {&verifier};
  return Explore(config, /*pool=*/nullptr, verifiers, timer);
}

Result<QGenResult> BiQGen::RunParallel(const QGenConfig& config,
                                       size_t num_threads) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Only a lattice pass runs on the pool.
  if (num_threads == 1) return Run(config);
  FAIRSQG_TRACE_SPAN("bi_qgen.run_parallel");
  Timer timer;
  // Build the diversity precompute once and share it read-only across the
  // per-worker verifiers instead of redoing it per verifier.
  QGenConfig cfg = config;
  if (cfg.diversity_index == nullptr) {
    cfg.diversity_index = DiversityEvaluator::BuildIndex(
        *cfg.graph, cfg.tmpl->node_label(cfg.tmpl->output_node()),
        cfg.diversity);
  }
  ThreadPool pool(num_threads);
  std::vector<std::unique_ptr<InstanceVerifier>> owned;
  std::vector<InstanceVerifier*> verifiers;
  for (size_t w = 0; w < pool.num_workers(); ++w) {
    owned.push_back(std::make_unique<InstanceVerifier>(cfg));
    verifiers.push_back(owned.back().get());
  }
  return Explore(cfg, &pool, verifiers, timer);
}

}  // namespace fairsqg
