#include "core/bi_qgen.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_set>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/enumerate.h"
#include "core/pareto_archive.h"
#include "core/template_refiner.h"
#include "core/verifier.h"
#include "obs/trace.h"

namespace fairsqg {

namespace {


/// True when the archive already ε-dominates every refinement of a parent
/// with diversity `max_diversity` (box-level check; see rf_qgen.cc). Scans
/// the archive's cached boxes — no allocation, no BoxOf recomputation.
bool SubtreeCovered(const ParetoArchive& archive, double max_diversity,
                    double max_coverage) {
  BoxCoord bound = BoxOf({max_diversity, max_coverage}, archive.epsilon());
  for (const ParetoArchive::Entry& e : archive.entries()) {
    if (BoxDominatesOrEqual(e.box, bound)) return true;
  }
  return false;
}

/// A feasible sandwich pair (low ≺_I high) with equal boxing coordinates in
/// one objective: everything strictly between is ε-dominated (Lemma 3).
struct SandwichPair {
  Instantiation low;   // The more relaxed end (forward side).
  Instantiation high;  // The more refined end (backward side).
};

/// A frontier instance and the verified instance it was spawned from (its
/// incVerify context; null at the frontier seeds). Forward contexts carry
/// their candidate space, backward ones only their evaluation.
struct WorkItem {
  Instantiation inst;
  std::shared_ptr<const VerifyContext> ctx;
};

/// Beam width of the backward relaxation descent (DESIGN.md §4).
constexpr size_t kBackwardBeam = 2;

/// Lattice bookkeeping shared by the sequential and the parallel explorer.
/// Everything here is written by exactly one thread (the coordinator); the
/// parallel explorer hands out only verification work.
struct ExplorerState {
  const QGenConfig& config;
  ParetoArchive archive;
  std::unordered_set<Instantiation, Instantiation::Hasher> visited;
  std::vector<SandwichPair> sbounds;
  std::deque<WorkItem> forward;
  std::deque<WorkItem> backward;
  QGenResult* result;
  double max_coverage;

  // Most recent feasible instances of each direction, paired for SBounds.
  EvaluatedPtr last_forward;
  EvaluatedPtr last_backward;

  /// RunContext expired: stop dispatching further verifications.
  bool stopped = false;

  ExplorerState(const QGenConfig& cfg, QGenResult* res)
      : config(cfg),
        archive(cfg.epsilon),
        result(res),
        max_coverage(static_cast<double>(cfg.groups->total_constraint())) {}

  bool Budget() const {
    return !stopped && (config.max_verifications == 0 ||
                        result->stats.verified < config.max_verifications);
  }

  /// Polls the RunContext at a coordinator-side scheduling point (once per
  /// verification about to be dispatched); true once expired. Only the
  /// thread owning the exploration state may call this, so parallel runs
  /// stay deterministic under poll-budget cancellation.
  bool PollStop() {
    if (stopped) return true;
    if (config.run_context != nullptr &&
        config.run_context->PollVerification()) {
      FAIRSQG_TRACE_INSTANT("run_context.stop");
      stopped = true;
      result->stats.deadline_exceeded = true;
      return true;
    }
    return false;
  }

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

  /// Sort + beam of backward relaxation children: prefer relaxing the most
  /// refined bindings (largest step back toward the feasibility border);
  /// keep at most kBackwardBeam. Returns how many were dropped.
  size_t ApplyBackwardBeam(std::vector<LatticeStep>* children) const {
    std::sort(children->begin(), children->end(),
              [&](const LatticeStep& a, const LatticeStep& b) {
                return StepDepth(a) > StepDepth(b);
              });
    if (children->size() <= kBackwardBeam) return 0;
    size_t dropped = children->size() - kBackwardBeam;
    children->resize(kBackwardBeam);
    return dropped;
  }

  /// A sandwich-pruned forward item skips the expensive verification and
  /// the archive update (Lemma 3 guarantees it is ε-dominated) but still
  /// spawns its children with the *ancestor's* verification context —
  /// otherwise instances beyond the sandwiched band, reachable only
  /// through it, would never be explored. Any verified ancestor is a
  /// sound context (Lemma 2; see VerifyContext).
  void SpawnSandwichedForward(const WorkItem& item) {
    std::vector<LatticeStep> children = LatticeNeighbors::RefineChildren(
        *config.tmpl, *config.domains, item.inst,
        RefinementHints::None(*config.tmpl));
    result->stats.generated += children.size();
    for (LatticeStep& child : children) {
      forward.push_back({std::move(child.inst), item.ctx});
    }
  }

  void SeedFrontiers() {
    Instantiation root = Instantiation::MostRelaxed(*config.tmpl);
    Instantiation bottom =
        Instantiation::MostRefined(*config.tmpl, *config.domains);
    forward.push_back({root, nullptr});
    ++result->stats.generated;
    if (bottom != root) {
      backward.push_back({bottom, nullptr});
      ++result->stats.generated;
    }
  }
};

/// Sequential explorer — the paper's Fig. 6 interleaving, one lattice step
/// at a time.
struct BiExplorer : ExplorerState {
  InstanceVerifier verifier;

  BiExplorer(const QGenConfig& cfg, QGenResult* res)
      : ExplorerState(cfg, res), verifier(cfg) {}

  /// One forward step (lines 4-9): verify, update, spawn refinements.
  void StepForward() {
    WorkItem item = std::move(forward.front());
    forward.pop_front();
    if (!visited.insert(item.inst).second) {
      ++result->stats.pruned;
      return;
    }
    if (SPrune(item.inst)) {
      ++result->stats.pruned;
      ++result->stats.pruned_sandwich;
      SpawnSandwichedForward(item);
      return;
    }
    if (PollStop()) return;

    auto cands = std::make_shared<CandidateSpace>();
    EvaluatedPtr eval = verifier.Verify(item.inst, item.ctx.get(), cands.get());
    if (eval == nullptr) return;  // Aborted mid-match; subtree abandoned.
    ++result->stats.verified;
    if (!eval->feasible) return;  // Refinements stay infeasible (Lemma 2).
    ++result->stats.feasible;
    archive.Update(eval);
    Trace();
    last_forward = eval;
    UpdateSBounds(last_forward, last_backward);
    SpawnRefinements(eval, std::move(cands));
  }

  /// Pushes the refinement children of a feasible verified instance onto
  /// the forward frontier, with `eval` (and its candidate space, when
  /// known) as their context — unless every refinement is already
  /// ε-dominated.
  void SpawnRefinements(const EvaluatedPtr& eval,
                        std::shared_ptr<const CandidateSpace> cands) {
    if (config.use_subtree_pruning &&
        SubtreeCovered(archive, eval->obj.diversity, max_coverage)) {
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
    auto ctx = std::make_shared<const VerifyContext>(
        VerifyContext{eval, std::move(cands)});
    for (LatticeStep& child : children) {
      forward.push_back({std::move(child.inst), ctx});
    }
  }

  /// One backward step (lines 10-15): verify; if feasible the feasibility
  /// border has been reached — record the instance, stop relaxing (the
  /// forward exploration owns the downward-closed feasible region) and hand
  /// its refinements to the forward frontier, since the instance is now
  /// `visited` and the forward pass would drop it before spawning them; if
  /// infeasible, descend further with a bounded-width beam of relaxations
  /// so the backward pass homes in on the high-coverage border instead of
  /// sweeping the whole infeasible upper set (DESIGN.md §4).
  void StepBackward() {
    WorkItem item = std::move(backward.front());
    backward.pop_front();
    if (!visited.insert(item.inst).second) {
      ++result->stats.pruned;
      return;
    }
    if (SPrune(item.inst)) {
      ++result->stats.pruned;
      ++result->stats.pruned_sandwich;
      return;
    }
    if (PollStop()) return;
    EvaluatedPtr eval = verifier.Verify(item.inst, item.ctx.get());
    if (eval == nullptr) return;  // Aborted mid-match; descent abandoned.
    ++result->stats.verified;
    if (eval->feasible) {
      ++result->stats.feasible;
      archive.Update(eval);
      Trace();
      last_backward = eval;
      UpdateSBounds(last_forward, last_backward);
      SpawnRefinements(eval, nullptr);
      return;  // Border reached; relaxations belong to the forward region.
    }

    std::vector<LatticeStep> children =
        LatticeNeighbors::RelaxChildren(*config.tmpl, *config.domains, item.inst);
    result->stats.generated += children.size();
    size_t dropped = ApplyBackwardBeam(&children);
    result->stats.pruned += dropped;
    // Depth-first descent: dive straight down to the feasibility border
    // so the high-coverage instances surface within the first few rounds.
    auto ctx =
        std::make_shared<const VerifyContext>(VerifyContext{eval, nullptr});
    for (size_t i = children.size(); i-- > 0;) {
      backward.push_front({std::move(children[i].inst), ctx});
    }
  }

  void Run() {
    FAIRSQG_TRACE_SPAN("bi_qgen.explore");
    SeedFrontiers();
    while ((!forward.empty() || !backward.empty()) && Budget()) {
      if (!forward.empty()) StepForward();
      if (!backward.empty() && Budget()) StepBackward();
    }
    FoldVerifierStats(verifier, &result->stats);
  }
};

/// Parallel explorer — coordinator/worker exploration over a work-stealing
/// pool (see BiQGen's class comment for the batching semantics).
///
/// Division of labour per batch:
///  - the coordinator pops frontier items, applies `visited` dedup and
///    SPrune (both depend on coordinator-only state), and builds a batch
///    of verification slots;
///  - pool workers verify slots with their private InstanceVerifier and
///    *speculatively* compute the refinement hints and lattice children of
///    feasible results (the expensive, state-free part of a step);
///  - the coordinator folds results back in slot order: archive update,
///    sandwich-pair recording, subtree pruning, frontier pushes. Folding
///    in slot order makes the run deterministic for a fixed thread count.
struct ParallelBiExplorer : ExplorerState {
  /// Verification slots dispatched per batch, per pool worker. Larger
  /// batches amortize the fork/join barrier but see staler pruning state.
  static constexpr size_t kBatchPerWorker = 4;

  ThreadPool pool;
  std::vector<std::unique_ptr<InstanceVerifier>> verifiers;

  struct Slot {
    WorkItem item;
    bool is_forward = true;
    // Worker outputs.
    EvaluatedPtr eval;
    std::shared_ptr<CandidateSpace> cands;     // Forward slots only.
    std::vector<LatticeStep> children;
    size_t beam_dropped = 0;                   // Backward slots only.
  };

  ParallelBiExplorer(const QGenConfig& cfg, QGenResult* res,
                     size_t num_threads)
      : ExplorerState(cfg, res), pool(num_threads) {
    verifiers.reserve(pool.num_workers());
    for (size_t w = 0; w < pool.num_workers(); ++w) {
      verifiers.push_back(std::make_unique<InstanceVerifier>(cfg));
    }
  }

  size_t BatchLimit() const {
    size_t limit = pool.num_workers() * kBatchPerWorker;
    if (config.max_verifications > 0) {
      // Budget() held on entry, so `remaining` is positive; the cap keeps
      // the batch from overshooting max_verifications.
      size_t remaining = config.max_verifications - result->stats.verified;
      limit = std::min(limit, remaining);
    }
    return limit;
  }

  /// Pops frontier items into `batch`, alternating directions like the
  /// sequential interleaving; visited/sandwich-pruned items are consumed
  /// here (sandwiched forward items spawn their children immediately).
  /// RunContext polling happens here, once per admitted slot, on the
  /// coordinator only: workers never observe poll-budget expiry, so the
  /// dispatched set is an exact deterministic prefix and the final batch
  /// always completes and folds fully (deterministic pool drain).
  void CollectBatch(std::vector<Slot>* batch) {
    batch->clear();
    const size_t limit = BatchLimit();
    bool prefer_forward = true;
    while (batch->size() < limit && (!forward.empty() || !backward.empty())) {
      bool take_forward = prefer_forward ? !forward.empty() : backward.empty();
      prefer_forward = !prefer_forward;
      std::deque<WorkItem>& src = take_forward ? forward : backward;
      WorkItem item = std::move(src.front());
      src.pop_front();
      if (!visited.insert(item.inst).second) {
        ++result->stats.pruned;
        continue;
      }
      if (SPrune(item.inst)) {
        ++result->stats.pruned;
        ++result->stats.pruned_sandwich;
        if (take_forward) SpawnSandwichedForward(item);
        continue;
      }
      if (PollStop()) break;
      Slot slot;
      slot.item = std::move(item);
      slot.is_forward = take_forward;
      batch->push_back(std::move(slot));
    }
  }

  /// Runs on a pool worker: verify with the worker-private verifier, then
  /// precompute the children of the step. Only reads shared state that is
  /// immutable during the batch (graph, template, domains, parent
  /// contexts); all mutation is confined to the slot and the verifier.
  void VerifySlot(Slot* slot) {
    InstanceVerifier& verifier = *verifiers[pool.WorkerIndex()];
    if (slot->is_forward) {
      slot->cands = std::make_shared<CandidateSpace>();
      slot->eval = verifier.Verify(slot->item.inst, slot->item.ctx.get(),
                                   slot->cands.get());
      if (slot->eval == nullptr || !slot->eval->feasible) return;
      // Speculative: wasted only if the fold subtree-prunes this slot.
      RefinementHints hints =
          config.use_template_refinement
              ? ComputeRefinementHints(*config.graph, *config.tmpl,
                                       *config.domains, slot->eval->matches)
              : RefinementHints::None(*config.tmpl);
      slot->children = LatticeNeighbors::RefineChildren(
          *config.tmpl, *config.domains, slot->item.inst, hints);
    } else {
      slot->eval = verifier.Verify(slot->item.inst, slot->item.ctx.get());
      if (slot->eval == nullptr || slot->eval->feasible) return;
      slot->children = LatticeNeighbors::RelaxChildren(
          *config.tmpl, *config.domains, slot->item.inst);
      slot->beam_dropped = ApplyBackwardBeam(&slot->children);
    }
  }

  /// Coordinator-only: fold one verified slot back into the exploration
  /// state (mirrors the post-verification halves of Step{Forward,Backward}).
  void FoldSlot(Slot& slot) {
    if (slot.eval == nullptr) return;  // Aborted mid-match (hard expiry).
    ++result->stats.verified;
    if (slot.is_forward) {
      if (!slot.eval->feasible) return;
      ++result->stats.feasible;
      archive.Update(slot.eval);
      Trace();
      last_forward = slot.eval;
      UpdateSBounds(last_forward, last_backward);
      if (config.use_subtree_pruning &&
          SubtreeCovered(archive, slot.eval->obj.diversity, max_coverage)) {
        ++result->stats.pruned_subtree;
        return;
      }
      result->stats.generated += slot.children.size();
      auto ctx = std::make_shared<const VerifyContext>(
          VerifyContext{slot.eval, std::move(slot.cands)});
      for (LatticeStep& child : slot.children) {
        forward.push_back({std::move(child.inst), ctx});
      }
    } else {
      if (slot.eval->feasible) {
        ++result->stats.feasible;
        archive.Update(slot.eval);
        Trace();
        last_backward = slot.eval;
        UpdateSBounds(last_forward, last_backward);
        return;  // Border reached (see StepBackward).
      }
      result->stats.generated += slot.children.size() + slot.beam_dropped;
      result->stats.pruned += slot.beam_dropped;
      auto ctx = std::make_shared<const VerifyContext>(
          VerifyContext{slot.eval, nullptr});
      for (size_t i = slot.children.size(); i-- > 0;) {
        backward.push_front({std::move(slot.children[i].inst), ctx});
      }
    }
  }

  void Run() {
    FAIRSQG_TRACE_SPAN("bi_qgen.explore_parallel");
    SeedFrontiers();
    std::vector<Slot> batch;
    while ((!forward.empty() || !backward.empty()) && Budget()) {
      CollectBatch(&batch);
      if (batch.empty()) continue;  // Whole batch pruned; refill.
      result->stats.enqueued += batch.size();
      {
        FAIRSQG_TRACE_SPAN_FULL("bi_qgen.batch");
        for (Slot& slot : batch) {
          pool.Submit([this, &slot] { VerifySlot(&slot); });
        }
        pool.Wait();
      }
      for (Slot& slot : batch) FoldSlot(slot);
    }
    for (const std::unique_ptr<InstanceVerifier>& v : verifiers) {
      result->stats.per_worker_verify_seconds.push_back(v->verify_seconds());
      FoldVerifierStats(*v, &result->stats);
    }
    result->stats.stolen = pool.stats().stolen;
  }
};

}  // namespace

Result<QGenResult> BiQGen::Run(const QGenConfig& config) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  FAIRSQG_TRACE_SPAN("bi_qgen.run");
  Timer timer;
  QGenResult result;
  BiExplorer explorer(config, &result);
  explorer.Run();
  if (config.run_context != nullptr && config.run_context->Expired()) {
    result.stats.deadline_exceeded = true;
  }
  result.pareto = explorer.archive.SortedEntries();
  result.stats.total_seconds = timer.ElapsedSeconds();
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, result.stats));
  return result;
}

Result<QGenResult> BiQGen::RunParallel(const QGenConfig& config,
                                       size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (num_threads == 1) return Run(config);
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  FAIRSQG_TRACE_SPAN("bi_qgen.run_parallel");
  Timer timer;
  QGenResult result;
  // Build the diversity precompute once and share it read-only across the
  // per-worker verifiers instead of redoing it per verifier.
  QGenConfig cfg = config;
  if (cfg.diversity_index == nullptr) {
    cfg.diversity_index = DiversityEvaluator::BuildIndex(
        *cfg.graph, cfg.tmpl->node_label(cfg.tmpl->output_node()),
        cfg.diversity.relevance);
  }
  ParallelBiExplorer explorer(cfg, &result, num_threads);
  explorer.Run();
  if (config.run_context != nullptr && config.run_context->Expired()) {
    result.stats.deadline_exceeded = true;
  }
  result.pareto = explorer.archive.SortedEntries();
  result.stats.total_seconds = timer.ElapsedSeconds();
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, result.stats));
  return result;
}

}  // namespace fairsqg
