#include "graph/graph_builder.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>

#include "common/logging.h"

namespace fairsqg {

NodeId GraphBuilder::AddNode(std::string_view label) {
  return AddNode(schema_->InternNodeLabel(label));
}

NodeId GraphBuilder::AddNode(LabelId label) {
  NodeId id = static_cast<NodeId>(node_labels_.size());
  node_labels_.push_back(label);
  node_attrs_.emplace_back();
  return id;
}

void GraphBuilder::SetAttr(NodeId v, std::string_view attr, AttrValue value) {
  SetAttr(v, schema_->InternAttr(attr), std::move(value));
}

void GraphBuilder::SetAttr(NodeId v, AttrId attr, AttrValue value) {
  FAIRSQG_CHECK(v < node_attrs_.size()) << "SetAttr on unknown node " << v;
  for (NodeAttr& e : node_attrs_[v]) {
    if (e.attr == attr) {
      e.value = std::move(value);
      return;
    }
  }
  node_attrs_[v].push_back({attr, std::move(value)});
}

void GraphBuilder::AddEdge(NodeId from, NodeId to, std::string_view edge_label) {
  AddEdge(from, to, schema_->InternEdgeLabel(edge_label));
}

void GraphBuilder::AddEdge(NodeId from, NodeId to, LabelId edge_label) {
  edges_.push_back({from, to, edge_label});
}

Result<Graph> GraphBuilder::Build() && {
  const size_t n = node_labels_.size();
  for (const EdgeRec& e : edges_) {
    if (e.from >= n || e.to >= n) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
  }

  Graph g;
  g.schema_ = std::move(schema_);
  g.node_labels_ = std::move(node_labels_);

  // Attribute pool, each tuple sorted by attribute id, over a value pool
  // holding each distinct (attribute, stored value) once. The key is the
  // exact representation, not AttrValue's order: 5 equals 5.0, and NaN is
  // unordered against every number, yet each prints and scores as itself.
  struct StoredLess {
    bool operator()(const AttrValue& a, const AttrValue& b) const {
      const int ra = Rank(a);
      const int rb = Rank(b);
      if (ra != rb) return ra < rb;
      if (a.is_int()) return a.as_int() < b.as_int();
      if (a.is_double()) {
        return std::bit_cast<uint64_t>(a.as_double()) <
               std::bit_cast<uint64_t>(b.as_double());
      }
      return a.as_string() < b.as_string();
    }
    static int Rank(const AttrValue& x) {
      return x.is_int() ? 0 : x.is_double() ? 1 : 2;
    }
  };
  std::vector<std::map<AttrValue, uint32_t, StoredLess>> value_ids(
      g.schema_->num_attrs());
  g.attr_offsets_.assign(n + 1, 0);
  size_t total_attrs = 0;
  for (auto& tuple : node_attrs_) total_attrs += tuple.size();
  g.attr_pool_.reserve(total_attrs);
  for (size_t v = 0; v < n; ++v) {
    auto& tuple = node_attrs_[v];
    std::sort(tuple.begin(), tuple.end(),
              [](const NodeAttr& a, const NodeAttr& b) { return a.attr < b.attr; });
    g.attr_offsets_[v] = g.attr_pool_.size();
    for (NodeAttr& e : tuple) {
      const auto [it, added] = value_ids[e.attr].try_emplace(
          e.value, static_cast<uint32_t>(g.attr_values_.size()));
      if (added) g.attr_values_.push_back(std::move(e.value));
      g.attr_pool_.push_back({e.attr, it->second});
    }
  }
  g.attr_offsets_[n] = g.attr_pool_.size();
  g.attr_values_.shrink_to_fit();
  node_attrs_.clear();

  // Deduplicate edges, then build CSR in both directions.
  std::sort(edges_.begin(), edges_.end(), [](const EdgeRec& a, const EdgeRec& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    return a.label < b.label;
  });
  edges_.erase(std::unique(edges_.begin(), edges_.end(),
                           [](const EdgeRec& a, const EdgeRec& b) {
                             return a.from == b.from && a.to == b.to &&
                                    a.label == b.label;
                           }),
               edges_.end());

  g.out_offsets_.assign(n + 1, 0);
  g.in_offsets_.assign(n + 1, 0);
  for (const EdgeRec& e : edges_) {
    ++g.out_offsets_[e.from + 1];
    ++g.in_offsets_[e.to + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    g.out_offsets_[v + 1] += g.out_offsets_[v];
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  g.out_adj_.resize(edges_.size());
  g.in_adj_.resize(edges_.size());
  {
    std::vector<size_t> out_pos(g.out_offsets_.begin(), g.out_offsets_.end() - 1);
    std::vector<size_t> in_pos(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
    for (const EdgeRec& e : edges_) {
      g.out_adj_[out_pos[e.from]++] = {e.to, e.label};
      g.in_adj_[in_pos[e.to]++] = {e.from, e.label};
    }
  }
  // Distinct (from label, edge label, to label) triples.
  for (const EdgeRec& e : edges_) {
    g.edge_label_triples_.push_back(
        {g.node_labels_[e.from], e.label, g.node_labels_[e.to]});
  }
  std::sort(g.edge_label_triples_.begin(), g.edge_label_triples_.end());
  g.edge_label_triples_.erase(
      std::unique(g.edge_label_triples_.begin(), g.edge_label_triples_.end()),
      g.edge_label_triples_.end());
  g.edge_label_triples_.shrink_to_fit();

  // Out lists are already (to, label)-sorted by the global sort; in lists
  // need their own ordering for binary search and merge-joins.
  for (size_t v = 0; v < n; ++v) {
    auto begin = g.in_adj_.begin() + static_cast<ptrdiff_t>(g.in_offsets_[v]);
    auto end = g.in_adj_.begin() + static_cast<ptrdiff_t>(g.in_offsets_[v + 1]);
    std::sort(begin, end, [](const AdjEntry& a, const AdjEntry& b) {
      return a.neighbor != b.neighbor ? a.neighbor < b.neighbor
                                      : a.edge_label < b.edge_label;
    });
  }

  // Label index.
  size_t num_labels = g.schema_->num_node_labels();
  g.label_index_.assign(num_labels, {});
  for (NodeId v = 0; v < n; ++v) {
    if (g.node_labels_[v] < num_labels) g.label_index_[g.node_labels_[v]].push_back(v);
  }

  // Per-label bitsets for O(1) label-membership tests.
  g.label_bitsets_.reserve(g.label_index_.size());
  for (const NodeSet& nodes : g.label_index_) {
    g.label_bitsets_.push_back(NodeBitset::FromNodes(nodes, n));
  }

  // The attribute range indexes ((value, node) sorted per (node label,
  // attribute) pair), whose distinct values are the active domains.
  std::map<std::pair<LabelId, AttrId>, std::vector<std::pair<AttrValue, NodeId>>>
      index_entries;
  for (NodeId v = 0; v < n; ++v) {
    for (const AttrEntry& e : g.attrs(v)) {
      index_entries[{g.node_labels_[v], e.attr}].push_back(
          {g.attr_value(e), v});
    }
  }
  for (auto& [key, entries] : index_entries) {
    AttrRangeIndex index = AttrRangeIndex::Build(std::move(entries));
    g.max_adom_size_ = std::max(g.max_adom_size_, index.distinct_values().size());
    g.attr_index_.emplace(key, std::move(index));
  }

  for (NodeId v = 0; v < n; ++v) {
    g.max_degree_ = std::max(g.max_degree_, g.degree(v));
  }

  return g;
}

}  // namespace fairsqg
