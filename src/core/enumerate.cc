#include "core/enumerate.h"

#include <algorithm>

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

Result<std::vector<EvaluatedPtr>> VerifyAllInstances(const QGenConfig& config,
                                                     InstanceVerifier* verifier,
                                                     GenStats* stats, size_t cap) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  if (cap == 0) cap = 1000000;
  InstantiationEnumerator it(*config.tmpl, *config.domains);
  if (it.SpaceSize() > cap) {
    return Status::FailedPrecondition(
        "instance space too large to enumerate: " + std::to_string(it.SpaceSize()) +
        " > " + std::to_string(cap) + "; coarsen the variable domains");
  }
  Timer timer;
  FAIRSQG_TRACE_SPAN("enumerate_verify");
  RunContext* ctx = config.run_context;
  std::vector<EvaluatedPtr> all;
  all.reserve(it.SpaceSize());
  Instantiation inst;
  while (it.Next(&inst)) {
    if (ctx != nullptr && ctx->PollVerification()) {
      FAIRSQG_TRACE_INSTANT("run_context.stop");
      if (stats != nullptr) stats->deadline_exceeded = true;
      break;
    }
    if (stats != nullptr) ++stats->generated;
    EvaluatedPtr e = verifier->Verify(inst);
    if (e == nullptr) continue;  // Aborted mid-match; instance dropped.
    if (stats != nullptr) {
      ++stats->verified;
      if (e->feasible) ++stats->feasible;
    }
    all.push_back(std::move(e));
    if (config.max_verifications > 0 && all.size() >= config.max_verifications) {
      break;
    }
  }
  if (stats != nullptr) {
    if (ctx != nullptr && ctx->Expired()) stats->deadline_exceeded = true;
    stats->total_seconds += timer.ElapsedSeconds();
    FoldVerifierStats(*verifier, stats);
    FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, *stats));
  }
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
