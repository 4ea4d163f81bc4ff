#include "matching/candidate_space.h"

#include <algorithm>

namespace fairsqg {

namespace {

/// Galloping kicks in when one side is this many times larger: binary
/// probes through the big side beat a linear merge.
constexpr size_t kGallopSkew = 16;

/// Sorting an index slice pays off only while the slice is within this
/// factor of the running intersection; beyond it, a direct per-node
/// predicate test over the (smaller) base is cheaper.
constexpr size_t kSliceSortBudget = 8;

/// Intersection of two sorted id ranges into `out` (cleared first).
void IntersectSorted(std::span<const NodeId> a, std::span<const NodeId> b,
                     NodeSet* out) {
  out->clear();
  if (b.size() < a.size()) std::swap(a, b);
  if (b.size() >= kGallopSkew * std::max<size_t>(a.size(), 1)) {
    auto it = b.begin();
    for (NodeId v : a) {
      it = std::lower_bound(it, b.end(), v);
      if (it == b.end()) break;
      if (*it == v) out->push_back(v);
    }
  } else {
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(*out));
  }
}

/// Keeps only the members of sorted `base` satisfying `v.attr op x`.
void FilterByLiteral(const Graph& g, const BoundLiteral& l, NodeSet* base) {
  std::erase_if(*base, [&](NodeId v) {
    const AttrValue* value = g.GetAttr(v, l.attr);
    return value == nullptr || !value->Compare(l.op, l.value);
  });
}

struct DegreeRequirement {
  size_t out_deg = 0;
  size_t in_deg = 0;
  bool effective() const { return out_deg > 0 || in_deg > 0; }
};

void FilterByDegree(const Graph& g, const DegreeRequirement& req, NodeSet* base) {
  std::erase_if(*base, [&](NodeId v) {
    return g.out_degree(v) < req.out_deg || g.in_degree(v) < req.in_deg;
  });
}

/// Intersection of the literal slices of `lits` (all over `label`), via the
/// attribute range indexes. `base` receives the sorted result. Chooses
/// between sort+merge (selective smallest slice) and bitmap AND
/// (unselective) per call.
void IntersectSlices(const Graph& g, LabelId label,
                     const std::vector<BoundLiteral>& lits, NodeSet* base,
                     MatchStats* stats) {
  base->clear();
  struct Slice {
    std::span<const NodeId> nodes;
  };
  std::vector<Slice> slices;
  slices.reserve(lits.size());
  for (const BoundLiteral& l : lits) {
    const AttrRangeIndex* idx = g.RangeIndex(label, l.attr);
    if (idx == nullptr) return;  // No labelled node carries the attribute.
    if (stats != nullptr) ++stats->index_slices;
    std::span<const NodeId> s = idx->SliceFor(l.op, l.value);
    if (s.empty()) return;
    slices.push_back({s});
  }
  size_t min_pos = 0;
  for (size_t i = 1; i < slices.size(); ++i) {
    if (slices[i].nodes.size() < slices[min_pos].nodes.size()) min_pos = i;
  }
  const size_t n = g.num_nodes();
  const size_t k_min = slices[min_pos].nodes.size();

  if (k_min <= std::max<size_t>(256, n / 16)) {
    // Selective: sort the smallest slice into id order, then shrink it.
    base->assign(slices[min_pos].nodes.begin(), slices[min_pos].nodes.end());
    std::sort(base->begin(), base->end());
    NodeSet scratch, merged;
    for (size_t i = 0; i < slices.size() && !base->empty(); ++i) {
      if (i == min_pos) continue;
      const auto s = slices[i].nodes;
      if (s.size() <= kSliceSortBudget * base->size() + 64) {
        scratch.assign(s.begin(), s.end());
        std::sort(scratch.begin(), scratch.end());
        IntersectSorted(*base, scratch, &merged);
        base->swap(merged);
      } else {
        FilterByLiteral(g, lits[i], base);
      }
    }
  } else {
    // Unselective: dense bitmap AND per literal, then set-bit extraction
    // (which emits ascending ids — no sort needed).
    NodeBitset acc(n);
    for (NodeId v : slices[min_pos].nodes) acc.Set(v);
    NodeBitset cur(n);
    for (size_t i = 0; i < slices.size(); ++i) {
      if (i == min_pos) continue;
      cur.ClearAll();
      for (NodeId v : slices[i].nodes) cur.Set(v);
      acc.IntersectWith(cur);
    }
    acc.ExtractTo(base);
  }
}

}  // namespace

bool NodeSatisfies(const Graph& g, NodeId v, LabelId label,
                   const std::vector<BoundLiteral>& literals) {
  if (g.node_label(v) != label) return false;
  for (const BoundLiteral& l : literals) {
    const AttrValue* value = g.GetAttr(v, l.attr);
    if (value == nullptr || !value->Compare(l.op, l.value)) return false;
  }
  return true;
}

CandidateSpace::Entry CandidateSpace::MakeEntry(NodeSet set,
                                                size_t num_graph_nodes) {
  Entry e;
  auto bits = std::make_shared<NodeBitset>(
      NodeBitset::FromNodes(set, num_graph_nodes));
  e.nodes = std::make_shared<const NodeSet>(std::move(set));
  e.bits = std::move(bits);
  return e;
}

CandidateSpace CandidateSpace::Build(const Graph& g, const QueryInstance& q,
                                     bool degree_filter, bool use_index,
                                     MatchStats* stats) {
  CandidateSpace space;
  const QueryTemplate& tmpl = q.tmpl();

  // Active out/in degree per query node (for the degree filter).
  std::vector<DegreeRequirement> req(tmpl.num_nodes());
  if (degree_filter) {
    for (const InstanceEdge& e : q.active_edges()) {
      ++req[e.from].out_deg;
      ++req[e.to].in_deg;
    }
  }

  space.per_node_.resize(tmpl.num_nodes());
  for (QNodeId u = 0; u < tmpl.num_nodes(); ++u) {
    LabelId label = tmpl.node_label(u);
    const std::vector<BoundLiteral>& lits = q.literals_of(u);
    bool filter = degree_filter && q.is_active(u) && req[u].effective();

    if (use_index && lits.empty() && !filter) {
      // Unconstrained node: alias the Graph-owned label set and bitset
      // (non-owning shared_ptr; the Graph outlives every candidate space).
      space.per_node_[u].nodes = std::shared_ptr<const NodeSet>(
          std::shared_ptr<const NodeSet>(), &g.NodesWithLabel(label));
      space.per_node_[u].bits = std::shared_ptr<const NodeBitset>(
          std::shared_ptr<const NodeBitset>(), &g.LabelBitset(label));
      continue;
    }

    NodeSet set;
    if (use_index) {
      if (lits.empty()) {
        const NodeSet& labelled = g.NodesWithLabel(label);
        set.assign(labelled.begin(), labelled.end());
      } else {
        IntersectSlices(g, label, lits, &set, stats);
      }
      if (filter) FilterByDegree(g, req[u], &set);
    } else {
      // Reference path: scan every labelled node and test the conjunction.
      for (NodeId v : g.NodesWithLabel(label)) {
        if (filter &&
            (g.out_degree(v) < req[u].out_deg || g.in_degree(v) < req[u].in_deg)) {
          continue;
        }
        if (NodeSatisfies(g, v, label, lits)) set.push_back(v);
      }
    }
    space.per_node_[u] = MakeEntry(std::move(set), g.num_nodes());
  }
  return space;
}

bool CandidateSpace::HasEmptyActive(const QueryInstance& q) const {
  for (QNodeId u : q.active_nodes()) {
    if (per_node_[u].nodes->empty()) return true;
  }
  return false;
}

}  // namespace fairsqg
