#include "core/enumerate.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "common/timer.h"
#include "obs/trace.h"

namespace fairsqg {

InstantiationEnumerator::InstantiationEnumerator(const QueryTemplate& tmpl,
                                                 const VariableDomains& domains)
    : tmpl_(&tmpl), domains_(&domains) {
  Reset();
}

void InstantiationEnumerator::Reset() {
  current_ = Instantiation::MostRelaxed(*tmpl_);
  started_ = false;
  exhausted_ = false;
}

size_t InstantiationEnumerator::SpaceSize() const {
  return domains_->InstanceSpaceSize(*tmpl_);
}

bool InstantiationEnumerator::Next(Instantiation* out) {
  if (exhausted_) return false;
  if (!started_) {
    started_ = true;
    *out = current_;
    return true;
  }
  // Odometer increment: range variables cycle wildcard -> 0 -> ... -> last,
  // then edge variables cycle 0 -> 1.
  for (RangeVarId x = 0; x < tmpl_->num_range_vars(); ++x) {
    int32_t binding = current_.range_binding(x);
    if (binding + 1 < static_cast<int32_t>(domains_->size(x))) {
      current_.set_range_binding(x, binding + 1);
      *out = current_;
      return true;
    }
    current_.set_range_binding(x, kWildcardBinding);  // Carry.
  }
  for (EdgeVarId x = 0; x < tmpl_->num_edge_vars(); ++x) {
    if (current_.edge_binding(x) == 0) {
      current_.set_edge_binding(x, 1);
      *out = current_;
      return true;
    }
    current_.set_edge_binding(x, 0);  // Carry.
  }
  exhausted_ = true;
  return false;
}

void VerifyOdometer(const QGenConfig& config, ThreadPool* pool,
                    std::span<InstanceVerifier* const> verifiers,
                    const InstanceSink& sink, GenStats* stats) {
  FAIRSQG_TRACE_SPAN("enumerate_verify");
  InstantiationEnumerator it(*config.tmpl, *config.domains);
  RunContext* ctx = config.run_context;
  // Workers claim one instance at a time under this mutex and always
  // verify what they claimed, so a stop drains the pool deterministically.
  std::mutex enum_mutex;
  size_t dispatched = 0;  // Guarded by enum_mutex.
  bool stopped = false;   // Guarded by enum_mutex.
  std::atomic<size_t> verified{0};
  std::atomic<size_t> feasible{0};
  auto work = [&](size_t w) {
    Instantiation inst;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(enum_mutex);
        if (stopped || !it.Next(&inst)) {
          stopped = true;
          return;
        }
        if (ctx != nullptr && ctx->PollVerification()) {
          FAIRSQG_TRACE_INSTANT("run_context.stop");
          stopped = true;
          return;
        }
        ++dispatched;
      }
      EvaluatedPtr e = verifiers[w]->Verify(inst);
      if (e == nullptr) continue;  // Aborted mid-match; instance dropped.
      ++verified;
      if (e->feasible) ++feasible;
      sink(w, std::move(e));
    }
  };
  if (pool == nullptr) {
    work(0);
  } else {
    pool->Run(work);
  }

  stats->generated += dispatched;
  stats->verified += verified.load();
  stats->feasible += feasible.load();
  if (pool != nullptr) stats->enqueued += dispatched;
  for (InstanceVerifier* verifier : verifiers) {
    FoldVerifierStats(*verifier, stats);
    if (pool != nullptr) {
      stats->per_worker_verify_seconds.push_back(verifier->verify_seconds());
    }
  }
  // A stop comes from the RunContext, whose expiry is sticky.
  if (ctx != nullptr && ctx->Expired()) stats->deadline_exceeded = true;
}

Result<std::vector<EvaluatedPtr>> VerifyAllInstances(const QGenConfig& config,
                                                     InstanceVerifier* verifier,
                                                     GenStats* stats) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  const size_t space = config.domains->InstanceSpaceSize(*config.tmpl);
  if (space > kMaxEnumeratedInstances) {
    return Status::FailedPrecondition(
        "instance space too large to enumerate: " + std::to_string(space) +
        " > " + std::to_string(kMaxEnumeratedInstances) +
        "; coarsen the variable domains");
  }
  Timer timer;
  std::vector<EvaluatedPtr> all;
  all.reserve(space);
  InstanceVerifier* const verifiers[] = {verifier};
  VerifyOdometer(
      config, /*pool=*/nullptr, verifiers,
      [&](size_t, EvaluatedPtr e) { all.push_back(std::move(e)); }, stats);
  stats->total_seconds += timer.ElapsedSeconds();
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, *stats));
  return all;
}

void FoldVerifierStats(const InstanceVerifier& verifier, GenStats* stats) {
  const double seconds = verifier.verify_seconds();
  stats->verify_cpu_seconds += seconds;
  stats->verify_wall_seconds = std::max(stats->verify_wall_seconds, seconds);
  stats->cache_hits += verifier.cache_hits();
  stats->cache_misses += verifier.cache_misses();
  stats->aborted_matches += verifier.aborted_matches();
  stats->timed_out_instances += verifier.timed_out_instances();
}

Status ApplyExpiryPolicy(const QGenConfig& config, const GenStats& stats) {
  if (!stats.deadline_exceeded || config.run_context == nullptr) {
    return Status::OK();
  }
  if (config.run_context->on_expiry() == ExpiryPolicy::kFail) {
    return Status::DeadlineExceeded(
        "generation stopped early (deadline/cancellation) after " +
        std::to_string(stats.verified) +
        " verifications; rerun with ExpiryPolicy::kPartial to accept the "
        "truncated archive");
  }
  return Status::OK();
}

std::vector<EvaluatedPtr> FeasibleOnly(const std::vector<EvaluatedPtr>& all) {
  std::vector<EvaluatedPtr> out;
  for (const EvaluatedPtr& e : all) {
    if (e->feasible) out.push_back(e);
  }
  return out;
}

std::vector<EvaluatedPtr> ExactParetoSet(std::vector<EvaluatedPtr> instances) {
  std::sort(instances.begin(), instances.end(),
            [](const EvaluatedPtr& a, const EvaluatedPtr& b) {
              if (a->obj.diversity != b->obj.diversity) {
                return a->obj.diversity > b->obj.diversity;
              }
              return a->obj.coverage > b->obj.coverage;
            });
  // Sweep: within an equal-diversity run the max-coverage entry comes
  // first; any later point survives only by strictly beating the running
  // coverage maximum (duplicates of a kept coordinate are dropped).
  std::vector<EvaluatedPtr> front;
  double best_coverage = -1;
  for (EvaluatedPtr& e : instances) {
    if (e->obj.coverage > best_coverage) {
      best_coverage = e->obj.coverage;
      front.push_back(std::move(e));
    }
  }
  return front;
}

}  // namespace fairsqg
