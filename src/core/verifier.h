#ifndef FAIRSQG_CORE_VERIFIER_H_
#define FAIRSQG_CORE_VERIFIER_H_

#include <cstdint>
#include <memory>

#include "core/config.h"
#include "core/evaluated.h"
#include "core/match_cache.h"
#include "matching/subgraph_matcher.h"

namespace fairsqg {

class SweepVerifier;

/// \brief The verification pipeline shared by all algorithms: materialize
/// an instantiation, compute q(G), evaluate (δ, f), and decide feasibility.
///
/// Implements the paper's incVerify (Section IV-A): a lattice child's match
/// set is derived from its parent's by exploiting Lemma 2 — a refinement's
/// matches are a subset of the parent's (only exclusions need testing), and
/// a relaxation's matches are a superset (only additions need testing).
///
/// When the configuration carries a RunContext, a match search that trips
/// the context (hard expiry) or the per-match step budget returns nullptr:
/// the partial match set is discarded and never cached, and the abort is
/// recorded in aborted_matches()/timed_out_instances() for GenStats folding.
///
/// With config.use_sweep_verify, chain heads (an instance wildcarded or
/// freshly refined at a range variable) trigger a literal sweep: the whole
/// chain's match sets are derived in one matcher pass and parked in a
/// SweepVerifier, then served here exactly like cache hits — archives stay
/// byte-identical with sweeping on or off (DESIGN.md §12).
class InstanceVerifier {
 public:
  explicit InstanceVerifier(const QGenConfig& config);
  ~InstanceVerifier();

  /// Full verification from scratch. If `out_candidates` is non-null, the
  /// instance's candidate space is returned for incremental children.
  /// Returns nullptr iff the bounded match aborted (see class comment).
  EvaluatedPtr Verify(const Instantiation& inst,
                      CandidateSpace* out_candidates = nullptr);

  /// Verification of a child that refines its parent at `changed_var`
  /// (lattice encoding: range variables first). The parent's match set
  /// bounds the search; the child's (δ, f) are scored from its own match
  /// set, exactly as Verify scores it. Falls back to Verify when
  /// config.use_incremental_verify is off.
  EvaluatedPtr VerifyRefined(const Instantiation& inst,
                             const CandidateSpace& parent_candidates,
                             const EvaluatedInstance& parent, uint32_t changed_var,
                             CandidateSpace* out_candidates = nullptr);

  /// Verification of a child that relaxes its parent: the parent's matches
  /// are known matches; only the remaining output candidates are tested.
  EvaluatedPtr VerifyRelaxed(const Instantiation& inst,
                             const EvaluatedInstance& parent,
                             CandidateSpace* out_candidates = nullptr);

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

  /// Literal-sweep accounting of THIS verifier (all zero when
  /// config.use_sweep_verify is off; DESIGN.md §12).
  uint64_t sweep_chains() const;
  uint64_t sweep_instances() const;
  uint64_t sweep_fallbacks() const;

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

  /// True when chains may be swept: use_sweep_verify is on and no per-match
  /// step budget is configured (a pooled chain search would consume the
  /// budget differently from per-instance searches, changing which
  /// instances abort — so sweeping is disabled under one).
  bool SweepAllowed() const;

  /// Serves `inst`'s match set from the sweep store, if parked there.
  bool ServeSwept(const Instantiation& inst, NodeSet* matches);

  const QGenConfig* config_;
  SubgraphMatcher matcher_;
  DiversityEvaluator diversity_;
  CoverageEvaluator coverage_;
  std::unique_ptr<SweepVerifier> sweep_;  // Null unless use_sweep_verify.
  uint64_t verify_seq_ = 0;
  double verify_seconds_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t aborted_matches_ = 0;
  uint64_t timed_out_instances_ = 0;
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_VERIFIER_H_
