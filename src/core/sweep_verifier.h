#ifndef FAIRSQG_CORE_SWEEP_VERIFIER_H_
#define FAIRSQG_CORE_SWEEP_VERIFIER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "matching/subgraph_matcher.h"
#include "query/instance.h"

namespace fairsqg {

/// \brief Batch verification of a range-variable chain (DESIGN.md §12).
///
/// A chain is the set of instances differing from a head instance only in
/// one range variable's binding, ordered relaxed → refined. Lemma 2 makes
/// the members' match sets nested, so one witness-annotated matcher pass
/// over the head (SubgraphMatcher::MatchOutputWithWitness +
/// ResolveSweepThresholds) determines every member's match set as a
/// critical-threshold prefix: member k's set is {v : t(v) >= k}.
///
/// Swept member sets are parked here keyed by their full instantiation and
/// served to the owning InstanceVerifier exactly as a match-cache hit would
/// be — Parts/coverage evaluation happens at serve time through the
/// unchanged per-instance code paths, which is what keeps archives
/// byte-identical with sweeping on or off (the issue's eager per-chain
/// decomposition would reorder floating-point sums; see DESIGN.md §12.4).
///
/// Not thread-safe: one SweepVerifier per InstanceVerifier. Parallel
/// workers each own one; cross-worker reuse flows through the shared
/// MatchSetCache, which every swept member also populates.
class SweepVerifier {
 public:
  explicit SweepVerifier(const QGenConfig& config);

  enum class Outcome {
    /// Whole chain verified: the head's exact match set was produced and
    /// every deeper member's set was parked for Serve().
    kSwept,
    /// The feasibility gate rejected the head: its exact match set was
    /// produced (identical to the per-instance path), but no thresholds
    /// were probed and nothing was parked or counted.
    kHeadOnly,
    /// Hard expiry mid-chain: everything is discarded — the caller must
    /// fall back to the per-instance path (which observes the same expiry).
    kAborted,
  };

  /// Optional head gate: sweeping probes thresholds only when it returns
  /// true for the head's match set (explorers abandon infeasible heads, so
  /// probing their chains would be wasted work).
  using FeasibilityGate = std::function<bool(const NodeSet&)>;

  /// Verifies the chain of `q` along range variable `var` in one pass.
  /// `q`/`candidates`/`output_restrict` describe the head exactly as the
  /// per-instance matcher call would receive them; the head must have at
  /// least one member below it (binding < domain size - 1).
  Outcome SweepChain(const QueryInstance& q, RangeVarId var,
                     const CandidateSpace& candidates,
                     const NodeSet* output_restrict, SubgraphMatcher* matcher,
                     const FeasibilityGate& gate, NodeSet* head_matches);

  /// True when `inst`'s match set was parked by an earlier sweep; moves it
  /// into `*matches` and erases the entry (each member is served once).
  bool Serve(const Instantiation& inst, NodeSet* matches);

  /// Chains fully swept.
  uint64_t chains() const { return chains_; }
  /// Member instances whose match set a sweep derived (excludes heads).
  uint64_t instances() const { return instances_; }
  /// Sweeps aborted by hard expiry (caller fell back per-instance).
  uint64_t fallbacks() const { return fallbacks_; }

 private:
  /// Parks one member set and mirrors it into the shared MatchSetCache.
  void PublishMember(const Instantiation& member, NodeSet set);

  const QGenConfig* config_;
  /// NodeId-indexed critical-level scratch; only entries freshly written
  /// for the current chain's candidates are ever read (the matcher probes
  /// the candidate bitset first), so it is never cleared.
  std::vector<int32_t> level_;
  /// Parked member sets, consumed by Serve. FIFO-capped: evicting an
  /// unserved member only costs re-verifying it, never correctness.
  std::unordered_map<Instantiation, NodeSet, Instantiation::Hasher> store_;
  std::deque<Instantiation> fifo_;
  uint64_t chains_ = 0;
  uint64_t instances_ = 0;
  uint64_t fallbacks_ = 0;
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_SWEEP_VERIFIER_H_
