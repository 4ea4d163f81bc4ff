#include "matching/brute_force.h"

#include <algorithm>

namespace fairsqg {

NodeSet BruteForceMatchOutput(const Graph& g, const QueryInstance& q,
                              MatchSemantics semantics) {
  const auto& active = q.active_nodes();
  const size_t n = active.size();

  // Candidate lists per active position, by direct predicate evaluation.
  std::vector<NodeSet> cands(n);
  for (size_t i = 0; i < n; ++i) {
    QNodeId u = active[i];
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (NodeSatisfies(g, v, q.tmpl().node_label(u), q.literals_of(u))) {
        cands[i].push_back(v);
      }
    }
  }

  // Position of each active query node.
  std::vector<int> pos_of(q.tmpl().num_nodes(), -1);
  for (size_t i = 0; i < n; ++i) pos_of[active[i]] = static_cast<int>(i);
  size_t out_pos = static_cast<size_t>(pos_of[q.output_node()]);

  NodeSet result;
  std::vector<NodeId> assignment(n, kInvalidNode);

  auto edges_ok = [&]() {
    for (const InstanceEdge& e : q.active_edges()) {
      NodeId from = assignment[pos_of[e.from]];
      NodeId to = assignment[pos_of[e.to]];
      if (!g.HasEdge(from, to, e.label)) return false;
    }
    return true;
  };

  auto enumerate = [&](auto&& self, size_t i) -> void {
    if (i == n) {
      if (edges_ok()) result.push_back(assignment[out_pos]);
      return;
    }
    for (NodeId v : cands[i]) {
      if (semantics == MatchSemantics::kIsomorphism &&
          std::find(assignment.begin(), assignment.begin() + i, v) !=
              assignment.begin() + i) {
        continue;  // Injectivity.
      }
      assignment[i] = v;
      self(self, i + 1);
      assignment[i] = kInvalidNode;
    }
  };
  enumerate(enumerate, 0);

  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace fairsqg
