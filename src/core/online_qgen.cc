#include "core/online_qgen.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "core/enumerate.h"
#include "obs/trace.h"

namespace fairsqg {

OnlineQGen::OnlineQGen(const QGenConfig& config, OnlineConfig online)
    : config_(&config),
      online_(online),
      verifier_(config),
      archive_(online.initial_epsilon) {
  FAIRSQG_CHECK_OK(config.Validate());
  FAIRSQG_CHECK(online.k > 0) << "k must be positive";
}

void OnlineQGen::ExpireWindow() {
  // Fig. 8 lines 5-6: drop cached instances older than now - w + 1.
  while (!window_.empty() &&
         window_.front().timestamp + online_.window < now_ + 1) {
    window_.pop_front();
  }
}

void OnlineQGen::TryPromoteCached() {
  // Fig. 8 lines 18-19: admit cached instances that no longer grow the set.
  for (auto it = window_.begin(); it != window_.end();) {
    UpdateOutcome would = archive_.Classify(*it->eval);
    bool non_growing = would == UpdateOutcome::kReplacedBoxes ||
                       would == UpdateOutcome::kReplacedInstance;
    if (non_growing || (archive_.size() < online_.k && Accepted(would))) {
      archive_.Update(it->eval);
      it = window_.erase(it);
    } else {
      ++it;
    }
  }
}

double OnlineQGen::Process(const Instantiation& inst) {
  FAIRSQG_TRACE_SPAN_FULL("online_qgen.process");
  Timer timer;
  if (config_->run_context != nullptr &&
      config_->run_context->PollVerification()) {
    FAIRSQG_TRACE_INSTANT("run_context.stop");
    // Stream element dropped: the archive keeps serving its current
    // best-so-far top-k; the caller sees the flag in Snapshot().stats.
    stats_.deadline_exceeded = true;
    return 0;
  }
  ++now_;
  ++stats_.generated;
  EvaluatedPtr eval = verifier_.Verify(inst);  // Line 4.
  if (eval == nullptr) {
    // Aborted mid-match; drop this element, keep the stream alive.
    double aborted_elapsed = timer.ElapsedSeconds();
    stats_.total_seconds += aborted_elapsed;
    return aborted_elapsed;
  }
  ++stats_.verified;
  ExpireWindow();
  if (!eval->feasible) {
    stats_.total_seconds += timer.ElapsedSeconds();
    return timer.ElapsedSeconds();
  }
  ++stats_.feasible;

  if (archive_.size() < online_.k) {
    // Lines 7-10: free capacity; cache rejected instances for later.
    UpdateOutcome outcome = archive_.Update(eval);
    if (!Accepted(outcome)) window_.push_back({eval, now_});
  } else {
    UpdateOutcome would = archive_.Classify(*eval);
    switch (would) {
      case UpdateOutcome::kReplacedBoxes:
      case UpdateOutcome::kReplacedInstance:
        // Lines 12-13: accepting cannot grow the set.
        archive_.Update(eval);
        break;
      case UpdateOutcome::kAddedNewBox: {
        // Lines 14-20: adding would exceed k. Enlarge ε to the distance to
        // the nearest member in the (δ, f) plane, which coarsens the grid
        // and merges boxes; then replace the nearest neighbour with q.
        EvaluatedPtr nearest;
        double best = 0;
        for (const ParetoArchive::Entry& e : archive_.entries()) {
          const EvaluatedPtr& m = e.instance;
          double dd = m->obj.diversity - eval->obj.diversity;
          double df = m->obj.coverage - eval->obj.coverage;
          double dist = std::sqrt(dd * dd + df * df);
          if (nearest == nullptr || dist < best) {
            best = dist;
            nearest = m;
          }
        }
        double grown = std::max(archive_.epsilon(),
                                archive_.epsilon() + best /
                                    (1.0 + verifier_.diversity().MaxDiversity() +
                                     verifier_.coverage().MaxCoverage()));
        archive_.SetEpsilon(grown);
        if (archive_.size() >= online_.k &&
            archive_.Classify(*eval) == UpdateOutcome::kAddedNewBox &&
            nearest != nullptr) {
          archive_.Remove(nearest);
          window_.push_back({nearest, now_});
        }
        archive_.Update(eval);
        TryPromoteCached();
        break;
      }
      default:
        // Rejected: keep it around, it may fit after future evictions.
        window_.push_back({eval, now_});
        break;
    }
  }
  // Invariant: never exceed k.
  FAIRSQG_CHECK(archive_.size() <= online_.k)
      << "online archive exceeded k=" << online_.k;
  double elapsed = timer.ElapsedSeconds();
  stats_.total_seconds += elapsed;
  return elapsed;
}

GenStats OnlineQGen::stats() const {
  GenStats out = stats_;
  FoldVerifierStats(verifier_, &out);
  return out;
}

QGenResult OnlineQGen::Snapshot() const {
  QGenResult out;
  out.pareto = archive_.SortedEntries();
  out.stats = stats();
  return out;
}

}  // namespace fairsqg
