#include "core/enum_qgen.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/enumerate.h"
#include "core/lattice_verify.h"
#include "core/parallel_qgen.h"
#include "core/pareto_archive.h"
#include "core/verifier.h"
#include "obs/trace.h"

namespace fairsqg {

namespace {

/// Everything a worker writes is its own: a verifier (memo caches stay
/// thread-private) and an archive, folded by Merge after the run.
struct WorkerState {
  std::unique_ptr<InstanceVerifier> verifier;
  ParetoArchive archive;
};

/// The body of EnumQGen (no pool) and ParallelQGen: verifies I(Q) with
/// one verifier per worker (VerifyEveryInstance) into per-worker archives,
/// and merges them.
Result<QGenResult> RunEnum(const QGenConfig& config, ThreadPool* pool,
                           const Timer& timer) {
  QGenResult result;
  // Build the diversity precompute once and share it read-only across the
  // per-worker verifiers instead of redoing it per verifier.
  QGenConfig cfg = config;
  if (pool != nullptr && cfg.diversity_index == nullptr) {
    cfg.diversity_index = DiversityEvaluator::BuildIndex(
        *cfg.graph, cfg.tmpl->node_label(cfg.tmpl->output_node()),
        cfg.diversity);
  }
  const size_t workers = pool != nullptr ? pool->num_workers() : 1;
  std::vector<WorkerState> states;
  std::vector<InstanceVerifier*> verifiers;
  for (size_t w = 0; w < workers; ++w) {
    states.push_back({std::make_unique<InstanceVerifier>(cfg),
                      ParetoArchive(cfg.epsilon)});
    verifiers.push_back(states.back().verifier.get());
  }

  // The anytime trace is recorded by serial runs only, against the
  // running count of verified instances.
  const bool trace = config.record_trace && pool == nullptr;
  size_t verified = 0;
  auto sink = [&](size_t w, EvaluatedPtr e) {
    if (trace) ++verified;
    if (!e->feasible) return;
    ParetoArchive& archive = states[w].archive;
    archive.Update(std::move(e));
    if (trace) {
      result.trace.push_back(
          {verified, archive.BestObjectives(), archive.size()});
    }
  };
  VerifyEveryInstance(cfg, pool, verifiers, sink, &result.stats);
  {
    FAIRSQG_TRACE_SPAN("archive_collect");
    ParetoArchive merged(cfg.epsilon);
    for (const WorkerState& s : states) merged.Merge(s.archive);
    result.pareto = merged.SortedEntries();
  }
  result.stats.total_seconds = timer.ElapsedSeconds();
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, result.stats));
  return result;
}

}  // namespace

Result<QGenResult> EnumQGen::Run(const QGenConfig& config) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  FAIRSQG_TRACE_SPAN("enum_qgen.run");
  Timer timer;
  return RunEnum(config, /*pool=*/nullptr, timer);
}

Result<QGenResult> ParallelQGen::Run(const QGenConfig& config,
                                     size_t num_threads) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  FAIRSQG_TRACE_SPAN("parallel_qgen.run");
  Timer timer;
  num_threads = std::min(
      num_threads,
      std::max<size_t>(1, config.domains->InstanceSpaceSize(*config.tmpl)));
  ThreadPool pool(num_threads);
  return RunEnum(config, &pool, timer);
}

}  // namespace fairsqg
