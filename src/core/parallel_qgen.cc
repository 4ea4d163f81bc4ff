#include "core/parallel_qgen.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/enumerate.h"
#include "core/lattice_verify.h"
#include "core/pareto_archive.h"
#include "core/verifier.h"
#include "obs/trace.h"

namespace fairsqg {

namespace {

/// Instantiations handed to a worker per trip to the shared enumerator.
/// Large enough to amortize the enumerator lock, small enough that
/// self-scheduling load-balances heterogeneous verification costs.
constexpr size_t kChunkSize = 64;

/// Everything a worker writes is its own: a verifier (memo caches stay
/// thread-private) and an archive, folded by Merge after the run.
struct WorkerState {
  std::unique_ptr<InstanceVerifier> verifier;
  ParetoArchive archive;
  size_t verified = 0;
  size_t feasible = 0;
};

/// The per-instance path, for templates the lattice path does not cover.
/// The instance space is streamed in chunks straight from the enumerator —
/// nothing is materialized up-front, so there is no cap on |I(Q)|; a
/// budget (config.max_verifications) bounds arbitrarily large spaces.
void RunChunks(const QGenConfig& config, ThreadPool* pool,
               std::vector<WorkerState>* states, GenStats* stats) {
  InstantiationEnumerator it(*config.tmpl, *config.domains);
  // Shared pull source: workers refill a private chunk under this mutex.
  // The RunContext is polled here, once per dispatched instance and under
  // the lock: poll-budget expiry therefore cuts the dispatched set at an
  // exact instance count (workers always finish what was handed out, so
  // cancellation drains the pool deterministically).
  std::mutex enum_mutex;
  size_t dispatched = 0;   // Guarded by enum_mutex.
  size_t num_chunks = 0;   // Guarded by enum_mutex.
  bool exhausted = false;
  bool expired = false;    // Guarded by enum_mutex.
  RunContext* ctx = config.run_context;
  auto fill_chunk = [&](std::vector<Instantiation>* chunk) {
    chunk->clear();
    std::lock_guard<std::mutex> lock(enum_mutex);
    if (exhausted || expired) return;
    Instantiation inst;
    while (chunk->size() < kChunkSize &&
           (config.max_verifications == 0 ||
            dispatched < config.max_verifications)) {
      if (ctx != nullptr && ctx->PollVerification()) {
        FAIRSQG_TRACE_INSTANT("run_context.stop");
        expired = true;
        break;
      }
      if (!it.Next(&inst)) {
        exhausted = true;
        break;
      }
      chunk->push_back(inst);
      ++dispatched;
    }
    if (!chunk->empty()) ++num_chunks;
  };

  // Every worker verifies chunks into its private archive until the space
  // (or budget) runs dry; chunk self-scheduling balances heterogeneous
  // verification costs without materializing the space.
  pool->Run([&](size_t w) {
    WorkerState& state = (*states)[w];
    std::vector<Instantiation> chunk;
    for (;;) {
      fill_chunk(&chunk);
      if (chunk.empty()) return;
      for (const Instantiation& inst : chunk) {
        EvaluatedPtr e = state.verifier->Verify(inst);
        if (e == nullptr) continue;  // Aborted mid-match (hard expiry).
        ++state.verified;
        if (e->feasible) {
          ++state.feasible;
          state.archive.Update(std::move(e));
        }
      }
    }
  });

  for (const WorkerState& s : *states) {
    stats->verified += s.verified;
    stats->feasible += s.feasible;
    stats->per_worker_verify_seconds.push_back(s.verifier->verify_seconds());
    FoldVerifierStats(*s.verifier, stats);
  }
  if (expired || (ctx != nullptr && ctx->Expired())) {
    stats->deadline_exceeded = true;
  }
  stats->generated = dispatched;
  stats->enqueued = num_chunks;
}

}  // namespace

Result<QGenResult> ParallelQGen::Run(const QGenConfig& config,
                                     size_t num_threads) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  FAIRSQG_TRACE_SPAN("parallel_qgen.run");
  Timer timer;
  QGenResult result;

  num_threads = std::min(
      num_threads,
      std::max<size_t>(1, config.domains->InstanceSpaceSize(*config.tmpl)));
  ThreadPool pool(num_threads);

  // Build the diversity precompute once and share it read-only across the
  // per-worker verifiers instead of redoing it per verifier.
  QGenConfig cfg = config;
  if (cfg.diversity_index == nullptr) {
    cfg.diversity_index = DiversityEvaluator::BuildIndex(
        *cfg.graph, cfg.tmpl->node_label(cfg.tmpl->output_node()),
        cfg.diversity.relevance);
  }

  std::vector<WorkerState> states;
  for (size_t w = 0; w < pool.num_workers(); ++w) {
    states.push_back({std::make_unique<InstanceVerifier>(cfg),
                      ParetoArchive(cfg.epsilon)});
  }
  if (LatticeApplies(cfg)) {
    std::vector<InstanceVerifier*> verifiers;
    for (WorkerState& s : states) verifiers.push_back(s.verifier.get());
    VerifyLattice(
        cfg, &pool, verifiers,
        [&](size_t w, EvaluatedPtr e) {
          if (e->feasible) states[w].archive.Update(std::move(e));
        },
        &result.stats);
    result.stats.enqueued = result.stats.generated;
  } else {
    RunChunks(cfg, &pool, &states, &result.stats);
  }
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

}  // namespace fairsqg
