#include "graph/graph.h"

#include <algorithm>

namespace fairsqg {

const AttrValue* Graph::GetAttr(NodeId v, AttrId a) const {
  auto tuple = attrs(v);
  auto it = std::lower_bound(
      tuple.begin(), tuple.end(), a,
      [](const AttrEntry& e, AttrId key) { return e.attr < key; });
  if (it != tuple.end() && it->attr == a) return &attr_values_[it->value_id];
  return nullptr;
}

bool Graph::HasEdge(NodeId from, NodeId to, LabelId edge_label) const {
  auto adj = OutEdges(from);
  auto it = std::lower_bound(
      adj.begin(), adj.end(), std::make_pair(to, edge_label),
      [](const AdjEntry& e, const std::pair<NodeId, LabelId>& key) {
        return e.neighbor != key.first ? e.neighbor < key.first
                                       : e.edge_label < key.second;
      });
  return it != adj.end() && it->neighbor == to && it->edge_label == edge_label;
}

bool Graph::HasLabeledEdge(LabelId from_label, LabelId edge_label,
                           LabelId to_label) const {
  return std::binary_search(edge_label_triples_.begin(),
                            edge_label_triples_.end(),
                            std::array<LabelId, 3>{from_label, edge_label,
                                                   to_label});
}

const NodeSet& Graph::NodesWithLabel(LabelId label) const {
  if (label >= label_index_.size()) return empty_node_set_;
  return label_index_[label];
}

const NodeBitset& Graph::LabelBitset(LabelId label) const {
  if (label >= label_bitsets_.size()) return empty_bitset_;
  return label_bitsets_[label];
}

const AttrRangeIndex* Graph::RangeIndex(LabelId label, AttrId a) const {
  auto it = attr_index_.find({label, a});
  if (it == attr_index_.end()) return nullptr;
  return &it->second;
}

std::vector<AttrValue> Graph::ActiveDomain(AttrId a) const {
  std::vector<AttrValue> values;
  for (const auto& [key, index] : attr_index_) {
    if (key.second != a) continue;
    values.insert(values.end(), index.distinct_values().begin(),
                  index.distinct_values().end());
  }
  std::stable_sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end(),
                           [](const AttrValue& x, const AttrValue& y) {
                             return !(x < y) && !(y < x);
                           }),
               values.end());
  return values;
}

const std::vector<AttrValue>& Graph::ActiveDomain(LabelId label, AttrId a) const {
  const AttrRangeIndex* index = RangeIndex(label, a);
  return index != nullptr ? index->distinct_values() : empty_domain_;
}

}  // namespace fairsqg
