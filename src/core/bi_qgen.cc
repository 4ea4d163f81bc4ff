#include "core/bi_qgen.h"

#include <algorithm>
#include <atomic>
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

/// Verification slots dispatched per batch, per pool worker. Larger
/// batches amortize the fork-join round but see staler pruning state.
constexpr size_t kBatchPerWorker = 4;

/// The Fig. 6 exploration, in rounds of collect → verify → fold (see
/// BiQGen's class comment). All lattice bookkeeping is written by the
/// calling thread only; pool workers, when there are any, only verify.
struct BiExplorer {
  /// One admitted frontier item and its verification result.
  struct Slot {
    WorkItem item;
    bool is_forward = true;
    std::shared_ptr<CandidateSpace> cands;  // Forward slots only.
    EvaluatedPtr eval;
  };

  const QGenConfig& config;
  QGenResult* result;
  ThreadPool* pool;  // Null: serial, one slot per batch.
  /// One verifier per pool worker, or one for the calling thread.
  std::vector<std::unique_ptr<InstanceVerifier>> verifiers;
  ParetoArchive archive;
  std::unordered_set<Instantiation, Instantiation::Hasher> visited;
  std::vector<SandwichPair> sbounds;
  std::deque<WorkItem> forward;
  std::deque<WorkItem> backward;
  std::vector<Slot> batch;
  double max_coverage;

  // Most recent feasible instances of each direction, paired for SBounds.
  EvaluatedPtr last_forward;
  EvaluatedPtr last_backward;

  /// Whose turn is next. It flips on every turn, an empty frontier's
  /// included, and persists across batches (Fig. 6's interleaving).
  bool forward_turn = true;

  /// RunContext expired: stop dispatching further verifications.
  bool stopped = false;

  BiExplorer(const QGenConfig& cfg, QGenResult* res, ThreadPool* p)
      : config(cfg),
        result(res),
        pool(p),
        archive(cfg.epsilon),
        max_coverage(static_cast<double>(cfg.groups->total_constraint())) {
    const size_t n = pool != nullptr ? pool->num_workers() : 1;
    for (size_t w = 0; w < n; ++w) {
      verifiers.push_back(std::make_unique<InstanceVerifier>(cfg));
    }
  }

  bool Budget() const {
    return !stopped && (config.max_verifications == 0 ||
                        result->stats.verified < config.max_verifications);
  }

  /// Polls the RunContext at a scheduling point (once per verification
  /// about to be dispatched); true once expired. Only the calling thread
  /// polls, so parallel runs stay deterministic under poll-budget
  /// cancellation.
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

  /// Pushes the refinement children of a feasible verified instance onto
  /// the forward frontier, with `eval` (and its candidate space, when
  /// known) as their context — unless every refinement is already
  /// ε-dominated.
  void SpawnRefinements(const EvaluatedPtr& eval,
                        std::shared_ptr<const CandidateSpace> cands) {
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
    auto ctx = std::make_shared<const VerifyContext>(
        VerifyContext{eval, std::move(cands)});
    for (LatticeStep& child : children) {
      forward.push_back({std::move(child.inst), ctx});
    }
  }

  /// Pushes at most kBackwardBeam relaxations of an infeasible backward
  /// instance to the front of the backward frontier, preferring to relax
  /// the most refined bindings (the largest step back toward the
  /// feasibility border). The depth-first descent homes in on the
  /// high-coverage border instead of sweeping the whole infeasible upper
  /// set (DESIGN.md §4).
  void SpawnRelaxations(const EvaluatedPtr& eval) {
    std::vector<LatticeStep> children = LatticeNeighbors::RelaxChildren(
        *config.tmpl, *config.domains, eval->inst);
    result->stats.generated += children.size();
    std::sort(children.begin(), children.end(),
              [&](const LatticeStep& a, const LatticeStep& b) {
                return StepDepth(a) > StepDepth(b);
              });
    if (children.size() > kBackwardBeam) {
      result->stats.pruned += children.size() - kBackwardBeam;
      children.resize(kBackwardBeam);
    }
    auto ctx =
        std::make_shared<const VerifyContext>(VerifyContext{eval, nullptr});
    for (size_t i = children.size(); i-- > 0;) {
      backward.push_front({std::move(children[i].inst), ctx});
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

  size_t BatchLimit() const {
    size_t limit =
        pool != nullptr ? pool->num_workers() * kBatchPerWorker : 1;
    if (config.max_verifications > 0) {
      // Budget() held on entry, so `remaining` is positive; the cap keeps
      // the batch from overshooting max_verifications.
      size_t remaining = config.max_verifications - result->stats.verified;
      limit = std::min(limit, remaining);
    }
    return limit;
  }

  /// Pops frontier items into `batch`, taking turns between the two
  /// frontiers (lines 4 and 10 of Fig. 6). `visited` and sandwich-pruned
  /// items are consumed here (sandwiched forward items spawn their
  /// children at once). The RunContext is polled once per admitted slot,
  /// so the dispatched set is an exact prefix and the last batch always
  /// completes and folds fully.
  void CollectBatch() {
    batch.clear();
    const size_t limit = BatchLimit();
    while (batch.size() < limit && (!forward.empty() || !backward.empty())) {
      const bool is_forward = forward_turn;
      forward_turn = !forward_turn;
      std::deque<WorkItem>& src = is_forward ? forward : backward;
      if (src.empty()) continue;
      WorkItem item = std::move(src.front());
      src.pop_front();
      if (!visited.insert(item.inst).second) {
        ++result->stats.pruned;
        continue;
      }
      if (SPrune(item.inst)) {
        ++result->stats.pruned;
        ++result->stats.pruned_sandwich;
        if (is_forward) SpawnSandwichedForward(item);
        continue;
      }
      if (PollStop()) break;
      batch.push_back({std::move(item), is_forward, nullptr, nullptr});
    }
  }

  /// Verifies the batch. Verifier w claims slots from a shared cursor
  /// until none is left: on the calling thread (w = 0) without a pool, on
  /// every pool worker in one ThreadPool::Run round with one. A worker
  /// reads only state that is immutable during the batch (graph,
  /// template, domains, parent contexts) and writes only the slots it
  /// claimed and its verifier. The fold reads slots in order, so the
  /// archive does not depend on who verified which.
  void VerifyBatch() {
    std::atomic<size_t> next{0};
    auto verify = [&](size_t w) {
      for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                     batch.size();) {
        Slot& slot = batch[i];
        if (slot.is_forward) slot.cands = std::make_shared<CandidateSpace>();
        slot.eval = verifiers[w]->Verify(slot.item.inst, slot.item.ctx.get(),
                                         slot.cands.get());
      }
    };
    if (pool == nullptr) return verify(0);
    result->stats.enqueued += batch.size();
    FAIRSQG_TRACE_SPAN_FULL("bi_qgen.batch");
    pool->Run(verify);
  }

  /// Folds one verified slot back into the exploration state (the
  /// post-verification part of lines 4-17 of Fig. 6). A feasible backward
  /// instance has reached the feasibility border: relaxing it further
  /// belongs to the forward region, and since it is now `visited` the
  /// forward pass would drop it, so its refinements go to the forward
  /// frontier here.
  void FoldSlot(Slot& slot) {
    const EvaluatedPtr& eval = slot.eval;
    if (eval == nullptr) return;  // Aborted mid-match; branch abandoned.
    ++result->stats.verified;
    if (!eval->feasible) {
      // Refinements of an infeasible instance stay infeasible (Lemma 2).
      if (!slot.is_forward) SpawnRelaxations(eval);
      return;
    }
    ++result->stats.feasible;
    archive.Update(eval);
    Trace();
    (slot.is_forward ? last_forward : last_backward) = eval;
    UpdateSBounds(last_forward, last_backward);
    SpawnRefinements(eval, std::move(slot.cands));
  }

  void Run() {
    FAIRSQG_TRACE_SPAN("bi_qgen.explore");
    SeedFrontiers();
    while ((!forward.empty() || !backward.empty()) && Budget()) {
      CollectBatch();
      if (batch.empty()) continue;  // Every popped item was pruned.
      VerifyBatch();
      // Slot order, not completion order: deterministic per thread count.
      for (Slot& slot : batch) FoldSlot(slot);
    }
    for (const std::unique_ptr<InstanceVerifier>& v : verifiers) {
      if (pool != nullptr) {
        result->stats.per_worker_verify_seconds.push_back(v->verify_seconds());
      }
      FoldVerifierStats(*v, &result->stats);
    }
  }
};

/// The part of Run and RunParallel after validation: explore with `pool`
/// (null: serially) and return the sorted archive.
Result<QGenResult> Explore(const QGenConfig& config, ThreadPool* pool,
                           const Timer& timer) {
  QGenResult result;
  BiExplorer explorer(config, &result, pool);
  explorer.Run();
  if (config.run_context != nullptr && config.run_context->Expired()) {
    result.stats.deadline_exceeded = true;
  }
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
  return Explore(config, nullptr, timer);
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
  // Build the diversity precompute once and share it read-only across the
  // per-worker verifiers instead of redoing it per verifier.
  QGenConfig cfg = config;
  if (cfg.diversity_index == nullptr) {
    cfg.diversity_index = DiversityEvaluator::BuildIndex(
        *cfg.graph, cfg.tmpl->node_label(cfg.tmpl->output_node()),
        cfg.diversity.relevance);
  }
  ThreadPool pool(num_threads);
  return Explore(cfg, &pool, timer);
}

}  // namespace fairsqg
