#include "matching/subgraph_matcher.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace fairsqg {

/// Backtracking plan: a connectivity-aware order of the active query nodes
/// plus, per position, the edge checks against already-matched positions.
struct SubgraphMatcher::Plan {
  struct EdgeConstraint {
    uint32_t matched_pos;  // Position of the already-matched endpoint.
    LabelId label;
    bool outgoing_from_matched;  // Edge direction: matched -> current?
  };

  std::vector<QNodeId> order;                        // order[0] == u_o.
  std::vector<std::vector<EdgeConstraint>> constraints;  // Per position.

  static Plan Build(const QueryInstance& q, const CandidateSpace& candidates,
                    QNodeId anchor) {
    Plan plan;
    const auto& active = q.active_nodes();
    std::vector<bool> placed(q.tmpl().num_nodes(), false);
    std::vector<int> position(q.tmpl().num_nodes(), -1);

    auto place = [&](QNodeId u) {
      position[u] = static_cast<int>(plan.order.size());
      plan.order.push_back(u);
      placed[u] = true;
    };
    place(anchor);

    while (plan.order.size() < active.size()) {
      // Among unplaced active nodes adjacent to a placed one, pick the one
      // with the smallest candidate set.
      QNodeId best = kInvalidNode;
      size_t best_size = 0;
      for (const InstanceEdge& e : q.active_edges()) {
        for (QNodeId u : {e.from, e.to}) {
          QNodeId other = (u == e.from) ? e.to : e.from;
          if (placed[u] || !placed[other]) continue;
          size_t size = candidates.of(u).size();
          if (best == kInvalidNode || size < best_size) {
            best = u;
            best_size = size;
          }
        }
      }
      FAIRSQG_CHECK(best != kInvalidNode)
          << "active query nodes must be connected to u_o";
      place(best);
    }

    plan.constraints.resize(plan.order.size());
    for (const InstanceEdge& e : q.active_edges()) {
      int pf = position[e.from];
      int pt = position[e.to];
      FAIRSQG_DCHECK(pf >= 0 && pt >= 0);
      if (pf < pt) {
        plan.constraints[pt].push_back(
            {static_cast<uint32_t>(pf), e.label, /*outgoing_from_matched=*/true});
      } else {
        plan.constraints[pf].push_back(
            {static_cast<uint32_t>(pt), e.label, /*outgoing_from_matched=*/false});
      }
    }
    return plan;
  }
};

namespace {

bool InSortedSet(const NodeSet& set, NodeId v) {
  return std::binary_search(set.begin(), set.end(), v);
}

}  // namespace

bool SubgraphMatcher::ExistsEmbedding(const CandidateSpace& candidates,
                                      const Plan& plan, NodeId v,
                                      SearchBudget* budget) {
  const size_t n = plan.order.size();
  std::vector<NodeId> assignment(n, kInvalidNode);
  assignment[0] = v;

  // Recursive extension over plan positions.
  auto extend = [&](auto&& self, size_t pos) -> bool {
    if (pos == n) return true;
    ++stats_.backtrack_steps;
    (void)FAIRSQG_FAULT_POINT("matcher.step");
    if (budget->Tick()) return false;
    QNodeId u = plan.order[pos];
    const auto& constraints = plan.constraints[pos];
    FAIRSQG_DCHECK(!constraints.empty());

    // Drive enumeration from the constraint whose matched endpoint has the
    // smallest label-compatible adjacency list.
    const Plan::EdgeConstraint* driver = &constraints[0];
    size_t driver_size = SIZE_MAX;
    for (const auto& c : constraints) {
      NodeId w = assignment[c.matched_pos];
      size_t size = c.outgoing_from_matched ? g_->out_degree(w) : g_->in_degree(w);
      if (size < driver_size) {
        driver_size = size;
        driver = &c;
      }
    }
    NodeId anchor = assignment[driver->matched_pos];
    auto adjacency = driver->outgoing_from_matched ? g_->OutEdges(anchor)
                                                   : g_->InEdges(anchor);
    const NodeBitset& cand = candidates.bits(u);
    for (const AdjEntry& e : adjacency) {
      if (e.edge_label != driver->label) continue;
      NodeId w = e.neighbor;
      ++stats_.bitset_probes;
      if (!cand.Test(w)) continue;
      // Injectivity (isomorphism semantics only).
      if (semantics_ == MatchSemantics::kIsomorphism) {
        bool used = false;
        for (size_t i = 0; i < pos; ++i) {
          if (assignment[i] == w) {
            used = true;
            break;
          }
        }
        if (used) continue;
      }
      // Remaining edge constraints.
      bool ok = true;
      for (const auto& c : constraints) {
        if (&c == driver) continue;
        NodeId m = assignment[c.matched_pos];
        bool has = c.outgoing_from_matched ? g_->HasEdge(m, w, c.label)
                                           : g_->HasEdge(w, m, c.label);
        if (!has) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      assignment[pos] = w;
      if (self(self, pos + 1)) return true;
      if (budget->aborted) return false;  // Unwind without trying siblings.
      assignment[pos] = kInvalidNode;
    }
    return false;
  };
  return extend(extend, 1);
}

NodeSet SubgraphMatcher::MatchOutput(const QueryInstance& q,
                                     const CandidateSpace& candidates,
                                     const NodeSet* output_restrict) {
  return MatchNode(q, candidates, q.output_node(), output_restrict);
}

NodeSet SubgraphMatcher::MatchNode(const QueryInstance& q,
                                   const CandidateSpace& candidates,
                                   QNodeId anchor,
                                   const NodeSet* output_restrict) {
  return MatchNodeBounded(q, candidates, anchor, /*ctx=*/nullptr,
                          output_restrict)
      .matches;
}

MatchResult SubgraphMatcher::MatchOutputBounded(const QueryInstance& q,
                                                const CandidateSpace& candidates,
                                                RunContext* ctx,
                                                const NodeSet* output_restrict) {
  return MatchNodeBounded(q, candidates, q.output_node(), ctx, output_restrict);
}

MatchResult SubgraphMatcher::MatchNodeBounded(const QueryInstance& q,
                                              const CandidateSpace& candidates,
                                              QNodeId anchor, RunContext* ctx,
                                              const NodeSet* output_restrict) {
  FAIRSQG_TRACE_SPAN_FULL("match");
  ++stats_.instances_matched;
  MatchResult result;
  if (!q.is_active(anchor)) return result;  // Unconstrained by the instance.
  if (candidates.HasEmptyActive(q)) return result;

  SearchBudget budget;
  budget.ctx = ctx;
  budget.limit = ctx != nullptr ? ctx->match_step_limit() : 0;
  if (ctx != nullptr && ctx->HardExpired()) {
    ++stats_.aborted_matches;
    result.outcome = MatchOutcome::kAborted;
    return result;
  }

  Plan plan = Plan::Build(q, candidates, anchor);

  const NodeSet& base = candidates.of(anchor);
  // Iterate over the smaller of the base candidates and the restriction.
  const NodeSet* outer = &base;
  const NodeSet* inner = nullptr;
  if (output_restrict != nullptr) {
    outer = output_restrict->size() < base.size() ? output_restrict : &base;
    inner = outer == &base ? output_restrict : &base;
  }
  for (NodeId v : *outer) {
    if (budget.aborted) break;
    if (inner != nullptr && !InSortedSet(*inner, v)) continue;
    ++stats_.output_candidates_tested;
    // Trivial (single-node) plans never enter the step loop, so poll the
    // context here, amortized over the candidate scan.
    if (ctx != nullptr && (stats_.output_candidates_tested & 255) == 0 &&
        ctx->HardExpired()) {
      budget.aborted = true;
      break;
    }
    if (plan.order.size() == 1 ||
        ExistsEmbedding(candidates, plan, v, &budget)) {
      if (!budget.aborted) result.matches.push_back(v);
    }
  }
  if (budget.aborted) {
    ++stats_.aborted_matches;
    result.outcome = MatchOutcome::kAborted;
  }
  // `outer` iterations are ascending, so the result is sorted.
  return result;
}

NodeSet SubgraphMatcher::MatchOutput(const QueryInstance& q) {
  CandidateSpace candidates = CandidateSpace::Build(*g_, q);
  return MatchOutput(q, candidates);
}

size_t SubgraphMatcher::EnumerateEmbeddings(const QueryInstance& q,
                                            const CandidateSpace& candidates,
                                            const EmbeddingVisitor& visitor,
                                            size_t limit) {
  if (candidates.HasEmptyActive(q)) return 0;
  Plan plan = Plan::Build(q, candidates, q.output_node());
  const size_t n = plan.order.size();
  std::vector<NodeId> assignment(n, kInvalidNode);
  std::vector<NodeId> by_query_node(q.tmpl().num_nodes(), kInvalidNode);
  size_t count = 0;
  bool stop = false;

  auto emit = [&]() {
    std::fill(by_query_node.begin(), by_query_node.end(), kInvalidNode);
    for (size_t i = 0; i < n; ++i) by_query_node[plan.order[i]] = assignment[i];
    ++count;
    if (!visitor(by_query_node)) stop = true;
    if (limit > 0 && count >= limit) stop = true;
  };

  auto extend = [&](auto&& self, size_t pos) -> void {
    if (stop) return;
    if (pos == n) {
      emit();
      return;
    }
    ++stats_.backtrack_steps;
    QNodeId u = plan.order[pos];
    const auto& constraints = plan.constraints[pos];
    const Plan::EdgeConstraint& driver = constraints[0];
    NodeId anchor = assignment[driver.matched_pos];
    auto adjacency = driver.outgoing_from_matched ? g_->OutEdges(anchor)
                                                  : g_->InEdges(anchor);
    const NodeBitset& cand = candidates.bits(u);
    for (const AdjEntry& e : adjacency) {
      if (stop) return;
      if (e.edge_label != driver.label) continue;
      NodeId w = e.neighbor;
      ++stats_.bitset_probes;
      if (!cand.Test(w)) continue;
      if (semantics_ == MatchSemantics::kIsomorphism) {
        bool used = false;
        for (size_t i = 0; i < pos; ++i) {
          if (assignment[i] == w) {
            used = true;
            break;
          }
        }
        if (used) continue;
      }
      bool ok = true;
      for (const auto& c : constraints) {
        if (&c == &driver) continue;
        NodeId m = assignment[c.matched_pos];
        bool has = c.outgoing_from_matched ? g_->HasEdge(m, w, c.label)
                                           : g_->HasEdge(w, m, c.label);
        if (!has) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      assignment[pos] = w;
      self(self, pos + 1);
      assignment[pos] = kInvalidNode;
    }
  };

  for (NodeId v : candidates.of(q.output_node())) {
    if (stop) break;
    assignment[0] = v;
    if (n == 1) {
      emit();
    } else {
      extend(extend, 1);
    }
    assignment[0] = kInvalidNode;
  }
  return count;
}

}  // namespace fairsqg
