#ifndef FAIRSQG_CORE_TEMPLATE_REFINER_H_
#define FAIRSQG_CORE_TEMPLATE_REFINER_H_

#include "graph/graph.h"
#include "query/refinement.h"

namespace fairsqg {

/// \brief Spawn's template refinement (Section IV-A).
///
/// Given a verified instance's match set q(G), considers the subgraph
/// `G_q^d` induced by the d-hop neighbours of q(G) (d = template diameter)
/// and derives hints that shrink the spawn frontier:
///  1. a range variable on a literal `u.A op x` keeps domain index i only
///     when some value of A on a node of u's label inside G_q^d satisfies
///     binding i but not binding i + 1 (or i is the last index) — other
///     bindings admit the same G_q^d nodes as the next one, so they
///     cannot change the match set differently. Each G_q^d value costs
///     one binary search over the domain;
///  2. an edge variable is pinned to 0 when G_q^d contains no edge with the
///     required label between nodes of the endpoint labels.
///
/// Cost is bounded by the part of G_q^d it reaches, not by |V|. It first
/// computes the hint's ceiling, the hint as if G_q^d were all of G (from
/// the per-label active domains and the graph's edge label triples), then
/// walks G_q^d breadth-first from q(G) over per-thread visited stamps,
/// folding each reached node into the hint, and stops as soon as the hint
/// reaches the ceiling. Safe to call from several threads at once.
RefinementHints ComputeRefinementHints(const Graph& g, const QueryTemplate& tmpl,
                                       const VariableDomains& domains,
                                       const NodeSet& matches);

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_TEMPLATE_REFINER_H_
