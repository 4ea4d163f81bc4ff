#include "core/template_refiner.h"

#include <algorithm>

#include "obs/trace.h"

namespace fairsqg {

namespace {

/// Number of bindings of `bounds` (relaxed → refined) that `value op bound`
/// satisfies. They form an index prefix, so binary search finds its end; on
/// a coarsened domain `value` itself need not be a domain value.
size_t SatisfiedPrefix(const AttrValue& value, CompareOp op,
                       const std::vector<AttrValue>& bounds) {
  return static_cast<size_t>(
      std::partition_point(bounds.begin(), bounds.end(),
                           [&](const AttrValue& bound) {
                             return value.Compare(op, bound);
                           }) -
      bounds.begin());
}

/// Per-thread BFS scratch, reused across calls. A node is reached in the
/// current call iff its stamp equals `epoch`, so a call neither allocates
/// nor clears a |V|-sized array (it grows only for a larger graph).
struct BfsScratch {
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
  std::vector<NodeId> frontier;
  std::vector<NodeId> next;

  void Begin(size_t num_nodes) {
    if (stamp.size() < num_nodes) stamp.resize(num_nodes, 0);
    if (++epoch == 0) {  // Wrapped: an old stamp could equal the new epoch.
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    frontier.clear();
    next.clear();
  }
  bool Reached(NodeId v) const { return stamp[v] == epoch; }
  /// Marks v reached; false when it already was.
  bool Reach(NodeId v) {
    if (stamp[v] == epoch) return false;
    stamp[v] = epoch;
    return true;
  }
};

thread_local BfsScratch scratch;

/// A range variable's literal and the deepest-satisfied bindings seen so
/// far; `missing` counts ceiling bindings not yet seen.
struct RangeFold {
  LabelId label;
  AttrId attr;
  CompareOp op;
  const std::vector<AttrValue>* bounds;
  std::vector<bool> keep;
  size_t missing = 0;
};

/// An edge variable's label triple. `in_ceiling`: G has an edge of that
/// triple; `found`: one joins two reached nodes.
struct EdgeFold {
  LabelId from_label;
  LabelId edge_label;
  LabelId to_label;
  bool in_ceiling;
  bool found;
};

}  // namespace

RefinementHints ComputeRefinementHints(const Graph& g, const QueryTemplate& tmpl,
                                       const VariableDomains& domains,
                                       const NodeSet& matches) {
  FAIRSQG_TRACE_SPAN_FULL("refine_hints");
  // The ceiling is the hint as if G_q^d were all of G. Folding reached
  // nodes only adds to the hint and never exceeds the ceiling, so the walk
  // stops as soon as nothing of the ceiling is missing.
  size_t missing = 0;
  std::vector<RangeFold> ranges(tmpl.num_range_vars());
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    const LiteralTemplate& l = tmpl.literals()[tmpl.literal_of_var(x)];
    RangeFold& r = ranges[x];
    r.label = tmpl.node_label(l.node);
    r.attr = l.attr;
    r.op = l.op;
    r.bounds = &domains.values(x);
    std::vector<bool> ceiling(r.bounds->size(), false);
    for (const AttrValue& value : g.ActiveDomain(r.label, r.attr)) {
      const size_t satisfied = SatisfiedPrefix(value, r.op, *r.bounds);
      if (satisfied > 0 && !ceiling[satisfied - 1]) {
        ceiling[satisfied - 1] = true;
        ++r.missing;
      }
    }
    r.keep.assign(r.bounds->size(), false);
    missing += r.missing;
  }
  std::vector<EdgeFold> edges;
  edges.reserve(tmpl.num_edge_vars());
  for (EdgeVarId x = 0; x < tmpl.num_edge_vars(); ++x) {
    const QueryEdge& e = tmpl.edge(tmpl.edge_of_var(x));
    const LabelId from_label = tmpl.node_label(e.from);
    const LabelId to_label = tmpl.node_label(e.to);
    const bool in_ceiling = g.HasLabeledEdge(from_label, e.label, to_label);
    edges.push_back({from_label, e.label, to_label, in_ceiling, false});
    missing += in_ceiling;
  }

  BfsScratch& bfs = scratch;
  bfs.Begin(g.num_nodes());
  // True when `adj` holds an `edge_label` edge to a reached `label` node.
  auto reached_neighbor = [&](std::span<const AdjEntry> adj,
                              LabelId edge_label, LabelId label) {
    return std::any_of(adj.begin(), adj.end(), [&](const AdjEntry& a) {
      return a.edge_label == edge_label && bfs.Reached(a.neighbor) &&
             g.node_label(a.neighbor) == label;
    });
  };
  // Folds a newly reached node into the hint: its value of each range
  // literal on its label, and any edge of an edge variable's triple that
  // joins it to a node reached before it (v itself included, for loops).
  auto fold = [&](NodeId v) {
    const LabelId label = g.node_label(v);
    for (RangeFold& r : ranges) {
      if (r.missing == 0 || r.label != label) continue;
      const AttrValue* value = g.GetAttr(v, r.attr);
      if (value == nullptr) continue;
      const size_t satisfied = SatisfiedPrefix(*value, r.op, *r.bounds);
      if (satisfied > 0 && !r.keep[satisfied - 1]) {
        r.keep[satisfied - 1] = true;
        --r.missing;
        --missing;
      }
    }
    for (EdgeFold& f : edges) {
      if (f.found || !f.in_ceiling) continue;
      if ((label == f.from_label &&
           reached_neighbor(g.OutEdges(v), f.edge_label, f.to_label)) ||
          (label == f.to_label &&
           reached_neighbor(g.InEdges(v), f.edge_label, f.from_label))) {
        f.found = true;
        --missing;
      }
    }
  };

  // Level-synchronous BFS from q(G) to depth d, undirected. Once nothing
  // of the ceiling is missing, the walk stops after the node it is on.
  auto reach = [&](NodeId v) {
    if (!bfs.Reach(v)) return;
    fold(v);
    bfs.next.push_back(v);
  };
  for (NodeId v : matches) {
    if (missing == 0) break;
    if (v < g.num_nodes()) reach(v);
  }
  const int depth = tmpl.Diameter();
  for (int level = 0; level < depth && missing > 0; ++level) {
    std::swap(bfs.frontier, bfs.next);
    bfs.next.clear();
    for (NodeId u : bfs.frontier) {
      for (const AdjEntry& a : g.OutEdges(u)) reach(a.neighbor);
      for (const AdjEntry& a : g.InEdges(u)) reach(a.neighbor);
      if (missing == 0) break;
    }
  }

  RefinementHints hints = RefinementHints::None(tmpl);
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    hints.restrict_range[x] = true;
    const std::vector<bool>& keep = ranges[x].keep;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (keep[i]) {
        hints.allowed_range_indexes[x].push_back(static_cast<int32_t>(i));
      }
    }
  }
  for (EdgeVarId x = 0; x < tmpl.num_edge_vars(); ++x) {
    hints.edge_fixed_zero[x] = !edges[x].found;
  }
  return hints;
}

}  // namespace fairsqg
