#include "core/template_refiner.h"

#include <algorithm>

#include "graph/neighborhood.h"

namespace fairsqg {

RefinementHints ComputeRefinementHints(const Graph& g, const QueryTemplate& tmpl,
                                       const VariableDomains& domains,
                                       const NodeSet& matches) {
  RefinementHints hints = RefinementHints::None(tmpl);
  std::vector<bool> mask = DHopMask(g, matches, tmpl.Diameter());

  // Range variables: keep domain index i only when some value v of the
  // literal's attribute on a G_q^d node of its label satisfies binding i
  // but not binding i + 1 (or i is the last index). Otherwise bindings i
  // and i + 1 admit the same G_q^d nodes, hence the same match sets. The
  // bindings v satisfies form an index prefix (domains run relaxed →
  // refined), so its deepest one is found by binary search; on a coarsened
  // domain v itself need not be a domain value.
  std::vector<bool> keep;
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    const LiteralTemplate& l = tmpl.literals()[tmpl.literal_of_var(x)];
    LabelId label = tmpl.node_label(l.node);
    const std::vector<AttrValue>& values = domains.values(x);
    keep.assign(values.size(), false);
    for (NodeId v : g.NodesWithLabel(label)) {
      if (!mask[v]) continue;
      const AttrValue* value = g.GetAttr(v, l.attr);
      if (value == nullptr) continue;
      const size_t satisfied = static_cast<size_t>(
          std::partition_point(values.begin(), values.end(),
                               [&](const AttrValue& bound) {
                                 return value->Compare(l.op, bound);
                               }) -
          values.begin());
      if (satisfied > 0) keep[satisfied - 1] = true;
    }
    hints.restrict_range[x] = true;
    auto& allowed = hints.allowed_range_indexes[x];
    for (size_t i = 0; i < values.size(); ++i) {
      if (keep[i]) allowed.push_back(static_cast<int32_t>(i));
    }
  }

  // Edge variables: pin to 0 when no label-compatible edge exists in G_q^d.
  for (EdgeVarId x = 0; x < tmpl.num_edge_vars(); ++x) {
    const QueryEdge& e = tmpl.edge(tmpl.edge_of_var(x));
    LabelId from_label = tmpl.node_label(e.from);
    LabelId to_label = tmpl.node_label(e.to);
    bool exists = false;
    for (NodeId v : g.NodesWithLabel(from_label)) {
      if (!mask[v]) continue;
      for (const AdjEntry& adj : g.OutEdges(v)) {
        if (adj.edge_label == e.label && mask[adj.neighbor] &&
            g.node_label(adj.neighbor) == to_label) {
          exists = true;
          break;
        }
      }
      if (exists) break;
    }
    hints.edge_fixed_zero[x] = !exists;
  }
  return hints;
}

}  // namespace fairsqg
