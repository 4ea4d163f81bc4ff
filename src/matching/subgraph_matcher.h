#ifndef FAIRSQG_MATCHING_SUBGRAPH_MATCHER_H_
#define FAIRSQG_MATCHING_SUBGRAPH_MATCHER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/run_context.h"
#include "matching/candidate_space.h"
#include "matching/match_stats.h"

namespace fairsqg {

/// Matching semantics for query evaluation: subgraph isomorphism (the
/// paper's semantics; embeddings are injective) or graph homomorphism
/// (query nodes may map to the same data node — cheaper, larger answers).
enum class MatchSemantics { kIsomorphism, kHomomorphism };

/// How a bounded match invocation ended.
enum class MatchOutcome {
  /// The search ran to completion; the match set is exact.
  kComplete,
  /// The RunContext expired (token/deadline) or the per-match step budget
  /// ran out mid-search. The partial match set MUST be discarded — it is
  /// neither a subset guarantee nor cacheable (DESIGN.md §11).
  kAborted,
};

/// Result of a bounded match: the set is meaningful only when kComplete.
struct MatchResult {
  NodeSet matches;
  MatchOutcome outcome = MatchOutcome::kComplete;
};

/// \brief Subgraph-isomorphism engine computing output-node match sets.
///
/// For a query instance `q(u_o)`, MatchOutput returns `q(G)`: every data
/// node `v` such that an injective, label-, predicate-, and edge-preserving
/// embedding of u_o's connected component maps u_o to v (the paper's
/// matching semantics, Section II). The search is a VF2-style backtracking
/// over the active query nodes, anchored at u_o and extended along query
/// edges in a connectivity-aware order with smallest-candidate-set-first
/// tie-breaking; one embedding per output candidate suffices (existence).
class SubgraphMatcher {
 public:
  explicit SubgraphMatcher(const Graph& g,
                           MatchSemantics semantics = MatchSemantics::kIsomorphism)
      : g_(&g), semantics_(semantics) {}

  MatchSemantics semantics() const { return semantics_; }

  /// Computes q(G) given prebuilt candidates. If `output_restrict` is
  /// non-null, only those nodes are considered as images of u_o — the
  /// lattice path's: the pass bounds the instance's answer (Lemma 2), so
  /// only the candidates it leaves open are tested.
  NodeSet MatchOutput(const QueryInstance& q, const CandidateSpace& candidates,
                      const NodeSet* output_restrict = nullptr);

  /// Convenience: builds candidates and matches in one call.
  NodeSet MatchOutput(const QueryInstance& q);

  /// \brief Match set of an arbitrary *active* query node `anchor`:
  /// every data node some embedding maps `anchor` to. MatchOutput is
  /// MatchNode(q, candidates, q.output_node()). Returns an empty set when
  /// `anchor` lies outside u_o's component (the instance does not
  /// constrain it). Substrate for the multiple-output-node extension.
  NodeSet MatchNode(const QueryInstance& q, const CandidateSpace& candidates,
                    QNodeId anchor, const NodeSet* output_restrict = nullptr);

  /// \brief Deadline/cancellation-aware MatchOutput: the backtracking loop
  /// polls `ctx` (hard expiry: token or deadline) and honours its per-match
  /// step budget, returning MatchOutcome::kAborted instead of running
  /// unboundedly on a pathological instance. `ctx` may be null (unbounded;
  /// identical to MatchOutput).
  MatchResult MatchOutputBounded(const QueryInstance& q,
                                 const CandidateSpace& candidates,
                                 RunContext* ctx,
                                 const NodeSet* output_restrict = nullptr);

  /// Bounded form of MatchNode; see MatchOutputBounded.
  MatchResult MatchNodeBounded(const QueryInstance& q,
                               const CandidateSpace& candidates, QNodeId anchor,
                               RunContext* ctx,
                               const NodeSet* output_restrict = nullptr);

  /// Visitor over full embeddings: `assignment[u]` is the data node bound
  /// to query node u (kInvalidNode for nodes outside u_o's component).
  /// Return false from the visitor to stop the enumeration.
  using EmbeddingVisitor = std::function<bool(const std::vector<NodeId>&)>;

  /// \brief Enumerates every embedding of the instance (not just output
  /// matches); returns the number of embeddings visited. `limit` 0 means
  /// unlimited. Useful for explanation UIs and benchmark auditing.
  size_t EnumerateEmbeddings(const QueryInstance& q,
                             const CandidateSpace& candidates,
                             const EmbeddingVisitor& visitor, size_t limit = 0);

  const MatchStats& stats() const { return stats_; }
  MatchStats& mutable_stats() { return stats_; }

 private:
  struct Plan;

  /// Per-invocation abort accounting: a step budget (0 = unlimited) plus an
  /// amortized hard-expiry poll of the RunContext every 256 steps.
  struct SearchBudget {
    RunContext* ctx = nullptr;
    uint64_t limit = 0;
    uint64_t steps = 0;
    bool aborted = false;

    /// Counts one backtracking step; true when the search must abort.
    bool Tick() {
      ++steps;
      if (limit != 0 && steps > limit) {
        aborted = true;
        return true;
      }
      if (ctx != nullptr && (steps & 255) == 0 && ctx->HardExpired()) {
        aborted = true;
        return true;
      }
      return false;
    }
  };

  /// True if an embedding extending {u_o -> v} exists. Sets
  /// `budget->aborted` (and returns false) when the budget trips.
  bool ExistsEmbedding(const CandidateSpace& candidates, const Plan& plan,
                       NodeId v, SearchBudget* budget);

  const Graph* g_;
  MatchSemantics semantics_;
  MatchStats stats_;
};

}  // namespace fairsqg

#endif  // FAIRSQG_MATCHING_SUBGRAPH_MATCHER_H_
