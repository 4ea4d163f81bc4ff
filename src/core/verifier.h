#ifndef FAIRSQG_CORE_VERIFIER_H_
#define FAIRSQG_CORE_VERIFIER_H_

#include <cstdint>
#include <memory>

#include "core/config.h"
#include "core/evaluated.h"
#include "core/match_cache.h"
#include "matching/subgraph_matcher.h"

namespace fairsqg {

/// \brief An already verified instance that bounds another's verification
/// (Lemma 2): its evaluation (whose `inst` is the context's instantiation)
/// and, when the instance may be refined from it, its candidate space.
///
/// Any verified ancestor or descendant in the refinement order is a sound
/// context, however many variables separate the two instances.
struct VerifyContext {
  EvaluatedPtr eval;
  std::shared_ptr<const CandidateSpace> cands;
};

/// \brief The verification pipeline shared by all algorithms: materialize
/// an instantiation, compute q(G), evaluate (δ, f), and decide feasibility.
///
/// Implements the paper's incVerify (Section IV-A) through an optional
/// VerifyContext. The direction comes from the instantiations: when the
/// instance refines the context's, its candidates are derived from the
/// context's and only the context's matches are tested (a refinement's
/// matches are a subset, Lemma 2); when the context refines the instance,
/// the context's matches are known matches and only the remaining output
/// candidates are tested (a relaxation's matches are a superset). Without
/// a comparable context, or with config.use_incremental_verify off, the
/// instance is verified from scratch. Either way (δ, f) are scored from
/// the instance's own match set, so the result does not depend on the
/// context.
///
/// When the configuration carries a RunContext, a match search that trips
/// the context (hard expiry) or the per-match step budget returns nullptr:
/// the partial match set is discarded and never cached, and the abort is
/// recorded in aborted_matches()/timed_out_instances() for GenStats folding.
class InstanceVerifier {
 public:
  explicit InstanceVerifier(const QGenConfig& config);

  /// Verifies `inst`, incrementally from `ctx` when one is given (see the
  /// class comment). If `out_candidates` is non-null, the instance's
  /// candidate space is returned for the contexts of its refinements.
  /// Returns nullptr iff the bounded match aborted (see class comment).
  EvaluatedPtr Verify(const Instantiation& inst,
                      const VerifyContext* ctx = nullptr,
                      CandidateSpace* out_candidates = nullptr);

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
