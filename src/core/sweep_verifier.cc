#include "core/sweep_verifier.h"

#include <utility>

#include "common/logging.h"
#include "core/match_cache.h"
#include "obs/trace.h"

namespace fairsqg {

namespace {

/// Parked member sets beyond this many evict oldest-first. Chains are
/// normally served promptly (the odometer visits them consecutively;
/// Rf/Bi spawn them as lattice children), so the cap only bounds leakage
/// from abandoned subtrees.
constexpr size_t kStoreCap = 4096;

}  // namespace

SweepVerifier::SweepVerifier(const QGenConfig& config) : config_(&config) {}

bool SweepVerifier::Serve(const Instantiation& inst, NodeSet* matches) {
  auto it = store_.find(inst);
  if (it == store_.end()) return false;
  *matches = std::move(it->second);
  store_.erase(it);  // The fifo_ entry goes stale; eviction skips it.
  return true;
}

void SweepVerifier::PublishMember(const Instantiation& member, NodeSet set) {
  if (config_->match_cache != nullptr) {
    // Mirror into the shared cache under the member's canonical key — the
    // cross-worker sharing path, and exactly what the per-instance miss
    // path would have inserted.
    QueryInstance mq =
        QueryInstance::Materialize(*config_->tmpl, *config_->domains, member);
    config_->match_cache->Insert(MatchSetCache::KeyFor(mq), set);
  }
  while (store_.size() >= kStoreCap && !fifo_.empty()) {
    auto it = store_.find(fifo_.front());
    fifo_.pop_front();
    if (it != store_.end()) store_.erase(it);
  }
  if (store_.emplace(member, std::move(set)).second) fifo_.push_back(member);
}

SweepVerifier::Outcome SweepVerifier::SweepChain(
    const QueryInstance& q, RangeVarId var, const CandidateSpace& candidates,
    const NodeSet* output_restrict, SubgraphMatcher* matcher,
    const FeasibilityGate& gate, NodeSet* head_matches) {
  FAIRSQG_TRACE_SPAN_FULL("sweep_chain");
  const QueryTemplate& tmpl = *config_->tmpl;
  const LiteralTemplate& lit = tmpl.literals()[tmpl.literal_of_var(var)];
  const int32_t m = static_cast<int32_t>(config_->domains->size(var));
  const int32_t head_level = q.instantiation().range_binding(var);
  FAIRSQG_DCHECK(head_level < m - 1);
  RunContext* ctx = config_->run_context;

  if (!q.is_active(lit.node)) {
    // The swept node lies outside u_o's component, and activity depends
    // only on edge bindings (constant along the chain): every member
    // materializes to the same active structure, so the head's match set
    // is every member's match set. One search serves the whole chain.
    MatchResult res =
        matcher->MatchOutputBounded(q, candidates, ctx, output_restrict);
    if (res.outcome == MatchOutcome::kAborted) {
      ++fallbacks_;
      return Outcome::kAborted;
    }
    if (gate && !gate(res.matches)) {
      *head_matches = std::move(res.matches);
      return Outcome::kHeadOnly;
    }
    Instantiation member = q.instantiation();
    for (int32_t k = head_level + 1; k < m; ++k) {
      member.set_range_binding(var, k);
      PublishMember(member, res.matches);
    }
    ++chains_;
    instances_ += static_cast<uint64_t>(m - 1 - head_level);
    *head_matches = std::move(res.matches);
    return Outcome::kSwept;
  }

  if (level_.size() < config_->graph->num_nodes()) {
    level_.resize(config_->graph->num_nodes(), 0);
  }
  for (NodeId w : candidates.of(lit.node)) {
    level_[w] = config_->domains->CriticalLevel(
        var, lit.op, config_->graph->GetAttr(w, lit.attr));
  }
  SweepSpec spec;
  spec.node = lit.node;
  spec.level = level_.data();
  spec.min_level = head_level;
  spec.num_levels = m;

  SweepMatchResult head = matcher->MatchOutputWithWitness(q, candidates, spec,
                                                          ctx, output_restrict);
  if (head.outcome == MatchOutcome::kAborted) {
    ++fallbacks_;
    return Outcome::kAborted;
  }
  if (gate && !gate(head.matches)) {
    *head_matches = std::move(head.matches);
    return Outcome::kHeadOnly;
  }
  if (matcher->ResolveSweepThresholds(q, candidates, spec, head.matches, ctx,
                                      &head.thresholds) ==
      MatchOutcome::kAborted) {
    ++fallbacks_;
    return Outcome::kAborted;  // Partial thresholds: publish nothing.
  }

  // Member k's match set is the threshold prefix {v : t(v) >= k}, built in
  // ascending node order (head.matches is sorted, so members are too —
  // byte-identical to what the per-instance matcher would have returned).
  Instantiation member = q.instantiation();
  for (int32_t k = head_level + 1; k < m; ++k) {
    member.set_range_binding(var, k);
    NodeSet set;
    for (size_t i = 0; i < head.matches.size(); ++i) {
      if (head.thresholds[i] >= k) set.push_back(head.matches[i]);
    }
    PublishMember(member, std::move(set));
  }
  ++chains_;
  instances_ += static_cast<uint64_t>(m - 1 - head_level);
  *head_matches = std::move(head.matches);
  return Outcome::kSwept;
}

}  // namespace fairsqg
