#include "core/lattice_verify.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <iterator>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/enumerate.h"
#include "matching/lattice_index.h"
#include "obs/trace.h"

namespace fairsqg {

namespace {

/// Every rank of `index`, bucketed by lattice level (the digit sum: an
/// immediate refinement is one level deeper), descending within a level.
std::vector<std::vector<uint64_t>> LevelsOf(const LatticeIndex& index) {
  size_t max_level = 0;
  for (size_t k = 0; k < index.num_vars(); ++k) max_level += index.radix(k) - 1;
  std::vector<std::vector<uint64_t>> levels(max_level + 1);
  std::vector<uint32_t> digit(index.num_vars(), 0);
  size_t level = 0;
  for (uint64_t rank = 0; rank < index.num_instances(); ++rank) {
    levels[level].push_back(rank);
    for (size_t k = 0; k < digit.size(); ++k) {  // Odometer increment.
      if (digit[k] + 1 < index.radix(k)) {
        ++digit[k];
        ++level;
        break;
      }
      level -= digit[k];
      digit[k] = 0;
    }
  }
  for (std::vector<uint64_t>& ranks : levels) {
    std::reverse(ranks.begin(), ranks.end());
  }
  return levels;
}

/// A verified instance as its relaxations see it.
struct Settled {
  /// Null when the instance's match aborted: I = ∅.
  EvaluatedPtr eval;
  /// D = H \ I: homomorphic matches that are not isomorphic ones (all of H
  /// when the match aborted).
  NodeSet rejected;
};

/// Holds the walk's workers between lattice levels. The last to arrive
/// runs `advance`, which opens the next level or ends the walk, and
/// releases the others with its answer. Waiters spin, yielding the core:
/// a level boundary lasts about one instance's verification, shorter than
/// a sleep and wake-up, whose latency varies with the machine's load.
class LevelBarrier {
 public:
  explicit LevelBarrier(size_t parties) : parties_(parties) {}

  template <typename Advance>
  bool ArriveAndWait(Advance&& advance) {
    const uint64_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      const bool more = advance();
      more_ = more;
      phase_.store(phase + 1, std::memory_order_release);
      return more;
    }
    while (phase_.load(std::memory_order_acquire) == phase) {
      std::this_thread::yield();
    }
    return more_;
  }

 private:
  const size_t parties_;
  std::atomic<size_t> arrived_{0};
  std::atomic<uint64_t> phase_{0};
  bool more_ = false;  // Written by the last arriver before the release.
};

NodeSet Union(const NodeSet& a, std::span<const NodeId> b) {
  NodeSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace

bool LatticeApplies(const QGenConfig& config) {
  return LatticeIndex::Supports(*config.domains) &&
         config.domains->InstanceSpaceSize(*config.tmpl) <= kMaxLatticeInstances;
}

void VerifyLattice(const QGenConfig& config, ThreadPool* pool,
                   std::span<InstanceVerifier* const> verifiers,
                   const InstanceSink& sink, GenStats* stats) {
  Result<LatticeIndex> built =
      LatticeIndex::Build(*config.graph, *config.tmpl, *config.domains,
                          config.run_context, pool);
  RunContext* ctx = config.run_context;
  // The frontier lists exact homomorphic matches only when the pass saw
  // every template edge: a tree template (LatticeIndex).
  const bool exact_frontier =
      config.semantics == MatchSemantics::kHomomorphism &&
      config.tmpl->num_edges() + 1 == config.tmpl->num_nodes();

  struct WorkerCounts {
    size_t verified = 0;
    size_t feasible = 0;
  };
  std::vector<WorkerCounts> counts(verifiers.size());
  std::mutex cursor_mutex;
  size_t cursor = 0;      // Guarded by cursor_mutex.
  size_t dispatched = 0;  // Guarded by cursor_mutex.
  bool stopped = false;   // Guarded by cursor_mutex.
  bool expired = !built.ok();

  if (built.ok()) {
    FAIRSQG_TRACE_SPAN("lattice.certify");
    const LatticeIndex& index = *built;
    const std::vector<std::vector<uint64_t>> levels = LevelsOf(index);
    // The level below the one being verified: the immediate refinements.
    const std::vector<uint64_t>* prev_ranks = nullptr;
    std::vector<Settled> prev;

    // known = ⋃ I_c and pending = F_x ∪ ⋃ D_c over x's immediate
    // refinements c, which the previous level settled.
    auto gather = [&](uint64_t rank, NodeSet* known, NodeSet* pending) {
      const std::span<const NodeId> frontier = index.Frontier(rank);
      known->clear();
      pending->assign(frontier.begin(), frontier.end());
      uint64_t rest = rank;
      for (size_t k = 0; k < index.num_vars(); ++k) {
        const uint32_t digit = static_cast<uint32_t>(rest % index.radix(k));
        rest /= index.radix(k);
        if (digit + 1 == index.radix(k)) continue;
        const uint64_t child = rank + index.stride(k);
        const auto it = std::lower_bound(prev_ranks->begin(), prev_ranks->end(),
                                         child, std::greater<>());
        const Settled& c = prev[static_cast<size_t>(it - prev_ranks->begin())];
        if (c.eval != nullptr) {
          *known = known->empty() ? c.eval->matches
                                  : Union(*known, c.eval->matches);
        }
        if (!c.rejected.empty()) *pending = Union(*pending, c.rejected);
      }
    };
    auto settle = [&](uint64_t rank, size_t w) -> Settled {
      NodeSet known, pending, untested;
      {
        FAIRSQG_TRACE_SPAN_FULL("gather");
        gather(rank, &known, &pending);
        std::set_difference(pending.begin(), pending.end(), known.begin(),
                            known.end(), std::back_inserter(untested));
        if (exact_frontier) {
          // Every frontier node is a match by construction.
          known = Union(known, untested);
          untested.clear();
        }
      }
      Settled out;
      out.eval = verifiers[w]->VerifyPartial(
          index.InstanceAt(rank), std::move(known), untested, &out.rejected);
      if (out.eval == nullptr) {
        gather(rank, &known, &pending);
        out.rejected = Union(known, pending);
      }
      return out;
    };

    // The level being verified (the most refined first) and its sets.
    size_t level = levels.size() - 1;
    std::vector<Settled> current(levels[level].size());
    std::exception_ptr error;  // Guarded by cursor_mutex.
    auto work = [&](size_t w) {
      const std::vector<uint64_t>& ranks = levels[level];
      for (;;) {
        size_t i;
        {
          std::lock_guard<std::mutex> lock(cursor_mutex);
          if (stopped || cursor == ranks.size()) return;
          if (ctx != nullptr && ctx->PollVerification()) {
            FAIRSQG_TRACE_INSTANT("run_context.stop");
            stopped = true;
            expired = true;
            return;
          }
          i = cursor++;
          ++dispatched;
        }
        current[i] = settle(ranks[i], w);
        if (current[i].eval == nullptr) continue;  // Aborted mid-match.
        ++counts[w].verified;
        if (current[i].eval->feasible) ++counts[w].feasible;
        sink(w, current[i].eval);
      }
    };
    // Opens the next level, or returns false when the walk is over. The
    // level before the finished one is dropped: all its immediate
    // relaxations are done.
    auto next_level = [&]() -> bool {
      if (stopped || level == 0) return false;
      prev_ranks = &levels[level];
      prev = std::move(current);
      --level;
      current.assign(levels[level].size(), Settled{});
      cursor = 0;
      return true;
    };

    if (pool == nullptr) {
      do {
        work(0);
      } while (next_level());
    } else {
      // One round for the whole walk: the workers meet at a barrier
      // between levels instead of returning to the pool, whose sleep and
      // wake-up per level cost more than most levels' work.
      LevelBarrier barrier(pool->num_workers());
      pool->Run([&](size_t w) {
        do {
          try {
            work(w);
          } catch (...) {
            // Stop the others and still meet them at the barrier; the
            // first error is rethrown once the round is over.
            std::lock_guard<std::mutex> lock(cursor_mutex);
            stopped = true;
            if (error == nullptr) error = std::current_exception();
          }
        } while (barrier.ArriveAndWait(next_level));
      });
      if (error != nullptr) std::rethrow_exception(error);
    }
  }

  stats->generated += dispatched;
  if (pool != nullptr) stats->enqueued += dispatched;
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

void VerifyEveryInstance(const QGenConfig& config, ThreadPool* pool,
                         std::span<InstanceVerifier* const> verifiers,
                         const InstanceSink& sink, GenStats* stats) {
  const auto verify = LatticeApplies(config) ? VerifyLattice : VerifyOdometer;
  verify(config, pool, verifiers, sink, stats);
}

uint64_t OdometerRank(const QueryTemplate& tmpl, const VariableDomains& domains,
                      const Instantiation& inst) {
  uint64_t rank = 0;
  uint64_t stride = 1;
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    rank += static_cast<uint64_t>(inst.range_binding(x) + 1) * stride;
    stride *= domains.size(x) + 1;
  }
  for (EdgeVarId x = 0; x < tmpl.num_edge_vars(); ++x) {
    rank += inst.edge_binding(x) * stride;
    stride *= 2;
  }
  return rank;
}

std::vector<EvaluatedPtr> EvaluateLattice(
    const QGenConfig& config, ThreadPool* pool,
    std::span<InstanceVerifier* const> verifiers, GenStats* stats) {
  std::vector<EvaluatedPtr> by_rank(
      config.domains->InstanceSpaceSize(*config.tmpl));
  // Each rank is settled once, by one worker: the writes are disjoint.
  VerifyLattice(
      config, pool, verifiers,
      [&](size_t, EvaluatedPtr e) {
        by_rank[OdometerRank(*config.tmpl, *config.domains, e->inst)] =
            std::move(e);
      },
      stats);
  return by_rank;
}

Result<std::vector<EvaluatedPtr>> VerifyInstanceSpace(const QGenConfig& config,
                                                      InstanceVerifier* verifier,
                                                      GenStats* stats) {
  if (!LatticeApplies(config)) {
    return VerifyAllInstances(config, verifier, stats);
  }
  InstanceVerifier* const verifiers[] = {verifier};
  std::vector<EvaluatedPtr> all =
      EvaluateLattice(config, /*pool=*/nullptr, verifiers, stats);
  std::erase(all, nullptr);
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, *stats));
  return all;
}

SearchEvaluations::SearchEvaluations(
    const QGenConfig& config, ThreadPool* pool,
    std::span<InstanceVerifier* const> verifiers)
    : config_(config), verifiers_(verifiers) {
  if (LatticeApplies(config)) {
    lattice_ = EvaluateLattice(config, pool, verifiers, &pass_);
  }
}

bool SearchEvaluations::ShouldStop() const {
  RunContext* ctx = config_.run_context;
  if (ctx == nullptr) return false;
  if (!(lattice_.empty() ? ctx->PollVerification() : ctx->HardExpired())) {
    return false;
  }
  FAIRSQG_TRACE_INSTANT("run_context.stop");
  return true;
}

EvaluatedPtr SearchEvaluations::Evaluate(const Instantiation& inst) {
  if (lattice_.empty()) return verifiers_[0]->Verify(inst);
  return lattice_[OdometerRank(*config_.tmpl, *config_.domains, inst)];
}

void SearchEvaluations::FoldInto(GenStats* stats) const {
  for (InstanceVerifier* verifier : verifiers_) {
    FoldVerifierStats(*verifier, stats);
  }
  stats->per_worker_verify_seconds = pass_.per_worker_verify_seconds;
  stats->enqueued += pass_.enqueued;
  RunContext* ctx = config_.run_context;
  if (pass_.deadline_exceeded || (ctx != nullptr && ctx->Expired())) {
    stats->deadline_exceeded = true;
  }
}

}  // namespace fairsqg
