#ifndef FAIRSQG_CORE_ONLINE_QGEN_H_
#define FAIRSQG_CORE_ONLINE_QGEN_H_

#include <deque>

#include "common/result.h"
#include "core/config.h"
#include "core/pareto_archive.h"
#include "core/qgen_result.h"
#include "core/verifier.h"

namespace fairsqg {

/// Parameters of the online maintenance problem (Section IV-C).
struct OnlineConfig {
  /// Target result size k: |Q_(ε,k)| <= k at all times.
  size_t k = 10;
  /// Sliding-window cache size w (timestamps before a rejected instance
  /// expires from W_Q).
  size_t window = 40;
  /// Initial tolerance ε_m; ε only grows from here (Lemma 4).
  double initial_epsilon = 0.01;
};

/// \brief OnlineQGen (Section IV-C, Fig. 8): maintains a size-k ε-Pareto
/// instance set over a stream of instantiations, with ε as small as
/// possible.
///
/// Rejected instances are cached in a sliding window W_Q for `window`
/// timestamps — they may become acceptable after ε grows or members get
/// evicted. When a new instance would grow the set beyond k (Update Case
/// 3), ε is enlarged to the boxing-space distance to the instance's
/// nearest archive neighbour, which merges their boxes (Lemma 4 keeps all
/// previous ε-dominances valid), and the displaced cache is re-offered.
class OnlineQGen {
 public:
  OnlineQGen(const QGenConfig& config, OnlineConfig online);

  /// Feeds one streamed instantiation; returns the delay time in seconds
  /// spent processing it (verification + maintenance).
  double Process(const Instantiation& inst);

  /// Current ε (monotonically non-decreasing).
  double epsilon() const { return archive_.epsilon(); }

  /// Current members, size <= k.
  std::vector<EvaluatedPtr> Current() const { return archive_.SortedEntries(); }
  size_t size() const { return archive_.size(); }

  /// The generator's own counters with the verifier's folded in, current
  /// after every Process call whatever its outcome.
  GenStats stats() const;

  /// Snapshot as a QGenResult (for the indicator harness).
  QGenResult Snapshot() const;

 private:
  struct CachedInstance {
    EvaluatedPtr eval;
    uint64_t timestamp;
  };

  void ExpireWindow();
  void TryPromoteCached();

  const QGenConfig* config_;
  OnlineConfig online_;
  InstanceVerifier verifier_;
  ParetoArchive archive_;
  std::deque<CachedInstance> window_;
  GenStats stats_;  ///< Generator-side counters; see stats().
  uint64_t now_ = 0;
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_ONLINE_QGEN_H_
