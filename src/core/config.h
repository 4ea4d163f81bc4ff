#ifndef FAIRSQG_CORE_CONFIG_H_
#define FAIRSQG_CORE_CONFIG_H_

#include <cstddef>
#include <memory>

#include "common/run_context.h"
#include "common/status.h"
#include "core/groups.h"
#include "core/measures.h"
#include "graph/graph.h"
#include "matching/subgraph_matcher.h"
#include "query/domains.h"
#include "query/query_template.h"

namespace fairsqg {

class MatchSetCache;

/// \brief A query-generation configuration C = (G, Q(u_o), P, ε) (Section
/// III-B), plus the measure parameters and the optimization toggles that
/// the ablation benchmarks flip.
///
/// All pointers are non-owning and must outlive the algorithms.
struct QGenConfig {
  const Graph* graph = nullptr;
  const QueryTemplate* tmpl = nullptr;
  const VariableDomains* domains = nullptr;
  const GroupSet* groups = nullptr;

  /// Approximation tolerance ε > 0.
  double epsilon = 0.01;

  DiversityConfig diversity;

  /// Matching semantics for q(G); the paper evaluates under subgraph
  /// isomorphism, homomorphism is provided as an extension.
  MatchSemantics semantics = MatchSemantics::kIsomorphism;

  /// Spawn's template refinement: restrict variable domains to values in
  /// G_q^d and pin edge variables with no matching edge (Section IV-A).
  bool use_template_refinement = true;
  /// BiQGen's "sandwich" pruning (Lemma 3).
  bool use_sandwich_pruning = true;
  /// Read by nothing: the per-instance incVerify it once switched is
  /// deleted (the lattice pass, DESIGN.md §14, applies Lemma 2 to every
  /// instance at once). Kept only because reqbench assigns it; the next
  /// benchmark change drops that line and this field.
  bool use_incremental_verify = true;
  /// Skip spawning a subtree all of whose instances are already ε-dominated
  /// by the archive (δ bounded by the parent's, f bounded by C).
  bool use_subtree_pruning = true;
  /// Resolve candidate sets through the graph's attribute range indexes and
  /// label bitsets (index slicing / bitmap filtering) instead of per-node
  /// literal scans. Off reproduces the reference scan path bit for bit.
  bool use_candidate_index = true;

  /// Read by nothing: the literal sweep it once switched on is deleted (the
  /// lattice pass, DESIGN.md §14, replaced it). Kept only because reqbench
  /// assigns it; the next benchmark change drops that line and this field.
  bool use_sweep_verify = false;

  /// Optional shared diversity precompute (node attribute cells, categorical
  /// edit-distance matrices, per-node relevance) reused read-only across
  /// verifiers. Must have been built by DiversityEvaluator::BuildIndex for
  /// this graph, the template's output label, and diversity.relevance, and
  /// with attribute columns when diversity.lambda > 0 (CHECKed). Null makes
  /// each verifier build its own; parallel generators fill this in once
  /// per run when unset.
  std::shared_ptr<const DiversityEvaluator::Index> diversity_index;

  /// Optional shared match-set cache consulted before every matcher
  /// invocation (non-owning; may be shared by parallel workers). The cache
  /// must have been created for this same configuration. Null disables
  /// caching. Results are byte-identical with the cache on or off.
  MatchSetCache* match_cache = nullptr;

  /// Optional cancellation / deadline / step-budget context (non-owning;
  /// null = unbounded run); the one bound on a run's verifications
  /// (RunContext::CancelAfterVerifications). Generators poll it between
  /// verifications and stop cleanly on expiry, returning the best-so-far
  /// archive with
  /// GenStats::deadline_exceeded set; the matcher additionally polls its
  /// hard-expiry axis inside the backtracking loop (DESIGN.md §11). With
  /// ExpiryPolicy::kFail the generator returns Status::DeadlineExceeded
  /// instead of a degraded result.
  RunContext* run_context = nullptr;

  /// Record an anytime-quality trace point after every archive update
  /// (drives the Fig. 9(e) / Fig. 11(b) anytime plots).
  bool record_trace = false;

  Status Validate() const {
    if (graph == nullptr || tmpl == nullptr || domains == nullptr ||
        groups == nullptr) {
      return Status::InvalidArgument("QGenConfig pointers must all be set");
    }
    if (epsilon <= 0) return Status::InvalidArgument("epsilon must be > 0");
    if (domains->num_vars() != tmpl->num_range_vars()) {
      return Status::InvalidArgument("domains built for a different template");
    }
    return tmpl->Validate();
  }
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_CONFIG_H_
