#include "core/enum_qgen.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
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

/// Instantiations a pool worker takes per trip to the shared enumerator.
/// Large enough to amortize the enumerator lock, small enough that
/// self-scheduling load-balances heterogeneous verification costs. Without
/// a pool there is no lock to amortize: a chunk is one instantiation, so
/// the RunContext is polled right before each verification.
constexpr size_t kChunkSize = 64;

/// The per-instance odometer, for templates the lattice path does not
/// cover, under VerifyLattice's contract: worker w pulls chunks of I(Q)
/// from the shared InstantiationEnumerator, verifies them with
/// verifiers[w] and offers each verified instance to `sink`, on every
/// worker of `pool` in one ThreadPool::Run round, or inline as worker 0
/// without a pool. Nothing is materialized, so there is no cap on |I(Q)|;
/// config.max_verifications bounds arbitrarily large spaces.
void VerifyChunks(const QGenConfig& config, ThreadPool* pool,
                  std::span<InstanceVerifier* const> verifiers,
                  const LatticeSink& sink, GenStats* stats) {
  InstantiationEnumerator it(*config.tmpl, *config.domains);
  const size_t chunk_size = pool != nullptr ? kChunkSize : 1;
  // Workers refill a private chunk under this mutex. The RunContext is
  // polled here, once per dispatched instance and under the lock:
  // poll-budget expiry therefore cuts the dispatched set at an exact
  // instance count (workers always finish what was handed out, so
  // cancellation drains the pool deterministically).
  std::mutex enum_mutex;
  size_t dispatched = 0;   // Guarded by enum_mutex.
  size_t num_chunks = 0;   // Guarded by enum_mutex.
  bool exhausted = false;  // Guarded by enum_mutex.
  bool expired = false;    // Guarded by enum_mutex.
  RunContext* ctx = config.run_context;
  auto fill_chunk = [&](std::vector<Instantiation>* chunk) {
    chunk->clear();
    std::lock_guard<std::mutex> lock(enum_mutex);
    if (exhausted || expired) return;
    Instantiation inst;
    while (chunk->size() < chunk_size &&
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

  struct WorkerCounts {
    size_t verified = 0;
    size_t feasible = 0;
  };
  std::vector<WorkerCounts> counts(verifiers.size());
  auto work = [&](size_t w) {
    std::vector<Instantiation> chunk;
    for (;;) {
      fill_chunk(&chunk);
      if (chunk.empty()) return;
      for (const Instantiation& inst : chunk) {
        EvaluatedPtr e = verifiers[w]->Verify(inst);
        if (e == nullptr) continue;  // Aborted mid-match; instance dropped.
        ++counts[w].verified;
        if (e->feasible) ++counts[w].feasible;
        sink(w, std::move(e));
      }
    }
  };
  if (pool == nullptr) {
    work(0);
  } else {
    pool->Run(work);
  }

  stats->generated += dispatched;
  if (pool != nullptr) stats->enqueued += num_chunks;
  for (size_t w = 0; w < verifiers.size(); ++w) {
    stats->verified += counts[w].verified;
    stats->feasible += counts[w].feasible;
    FoldVerifierStats(*verifiers[w], stats);
    if (pool != nullptr) {
      stats->per_worker_verify_seconds.push_back(verifiers[w]->verify_seconds());
    }
  }
  if (expired || (ctx != nullptr && ctx->Expired())) {
    stats->deadline_exceeded = true;
  }
}

/// Everything a worker writes is its own: a verifier (memo caches stay
/// thread-private) and an archive, folded by Merge after the run.
struct WorkerState {
  std::unique_ptr<InstanceVerifier> verifier;
  ParetoArchive archive;
};

/// The body of EnumQGen (no pool) and ParallelQGen: verifies I(Q) with
/// one verifier per worker (VerifyLattice when LatticeApplies, else
/// VerifyChunks) into per-worker archives, and merges them.
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
  const auto verify = LatticeApplies(cfg) ? VerifyLattice : VerifyChunks;
  verify(cfg, pool, verifiers, sink, &result.stats);
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
