#ifndef FAIRSQG_CORE_VERIFIER_H_
#define FAIRSQG_CORE_VERIFIER_H_

#include <cstdint>

#include "core/config.h"
#include "core/evaluated.h"
#include "core/match_cache.h"
#include "matching/subgraph_matcher.h"

namespace fairsqg {

/// \brief The verification pipeline shared by all algorithms: materialize
/// an instantiation, compute q(G), evaluate (δ, f), and decide feasibility.
///
/// Two entry points. Verify matches one instance from scratch, through the
/// match-set cache when one is configured: the per-instance path of
/// OnlineQGen, VerifyAllInstances, and every generator on a space the
/// lattice pass does not take (LatticeApplies). VerifyPartial is the
/// lattice path's (DESIGN.md §14): the pass already bounds the instance's
/// answer, so only part of it reaches the matcher. The paper's incVerify
/// (Section IV-A), one instance bounded by a verified neighbour, is what
/// VerifyPartial does for the whole lattice at once. Either way (δ, f) are
/// scored from the instance's own match set.
///
/// When the configuration carries a RunContext, a match search that trips
/// the context (hard expiry) or the per-match step budget returns nullptr:
/// the partial match set is discarded and never cached, and the abort is
/// recorded in aborted_matches()/timed_out_instances() for GenStats folding.
class InstanceVerifier {
 public:
  explicit InstanceVerifier(const QGenConfig& config);

  /// Verifies `inst` from scratch, consulting the match-set cache first.
  /// Returns nullptr iff the bounded match aborted (see class comment).
  EvaluatedPtr Verify(const Instantiation& inst);

  /// Verifies `inst` from part of its answer (the lattice path, DESIGN.md
  /// §14): `known` holds matches already established, and every other
  /// match lies in `untested`, sorted output candidates disjoint from
  /// `known`. Only `untested` is matched; the candidates that fail go to
  /// `*rejected`. Does not consult the match-set cache. Returns nullptr iff
  /// the bounded match aborted.
  EvaluatedPtr VerifyPartial(const Instantiation& inst, NodeSet known,
                             const NodeSet& untested, NodeSet* rejected);

  uint64_t num_verified() const { return verify_seq_; }
  double verify_seconds() const { return verify_seconds_; }

  /// Match-set cache traffic of THIS verifier (deterministic per worker,
  /// unlike the cache's global counters under parallel interleavings).
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

  /// Degraded-run accounting of THIS verifier: matcher searches aborted by
  /// the RunContext / step budget, and instances returned as nullptr
  /// because of such an abort (one instance may abort several searches on
  /// retries, so the two counters are tracked separately).
  uint64_t aborted_matches() const { return aborted_matches_; }
  uint64_t timed_out_instances() const { return timed_out_instances_; }

  const DiversityEvaluator& diversity() const { return diversity_; }
  const CoverageEvaluator& coverage() const { return coverage_; }
  const MatchStats& match_stats() const { return matcher_.stats(); }

 private:
  EvaluatedPtr Finish(const Instantiation& inst, NodeSet matches);

  /// Consults the configured cache for the materialized instance `q`.
  /// On a hit, fills `*matches` and leaves `*key` empty; on a miss (or with
  /// no cache), returns false with `*key` set iff a cache is configured.
  bool LookupCached(const QueryInstance& q, NodeSet* matches, std::string* key);

  /// Records an aborted bounded match and produces the nullptr result.
  EvaluatedPtr RecordAbort();

  const QGenConfig* config_;
  SubgraphMatcher matcher_;
  DiversityEvaluator diversity_;
  CoverageEvaluator coverage_;
  uint64_t verify_seq_ = 0;
  double verify_seconds_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t aborted_matches_ = 0;
  uint64_t timed_out_instances_ = 0;
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_VERIFIER_H_
