#ifndef FAIRSQG_GRAPH_GRAPH_H_
#define FAIRSQG_GRAPH_GRAPH_H_

#include <array>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/attr_range_index.h"
#include "graph/attr_value.h"
#include "graph/node_bitset.h"
#include "graph/schema.h"
#include "graph/types.h"

namespace fairsqg {

/// One attribute of a node tuple `T(v)`: the attribute and the id of its
/// value in the graph's value pool (Graph::attr_value), which holds each
/// distinct typed value once — 8 bytes per node attribute instead of a
/// 40-byte AttrValue.
struct AttrEntry {
  AttrId attr;
  uint32_t value_id;
};

/// One adjacency slot: target (or source) node plus the edge label.
struct AdjEntry {
  NodeId neighbor;
  LabelId edge_label;
};

/// \brief Immutable attributed directed graph `G = (V, E, L, T)`.
///
/// Nodes carry a label and a tuple of typed attributes; edges carry a label.
/// Storage is CSR in both directions, with a label index and precomputed
/// active domains (global and per node label) to drive template variable
/// domains and candidate filtering. Construct via GraphBuilder.
class Graph {
 public:
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  size_t num_nodes() const { return node_labels_.size(); }
  size_t num_edges() const { return out_adj_.size(); }

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<Schema>& schema_ptr() const { return schema_; }

  LabelId node_label(NodeId v) const { return node_labels_[v]; }

  /// The attribute tuple T(v), sorted by attribute id.
  std::span<const AttrEntry> attrs(NodeId v) const {
    return {attr_pool_.data() + attr_offsets_[v],
            attr_offsets_[v + 1] - attr_offsets_[v]};
  }

  /// Value of attribute `a` on `v`, or nullptr when absent.
  const AttrValue* GetAttr(NodeId v, AttrId a) const;

  /// The pooled value an AttrEntry refers to.
  const AttrValue& attr_value(const AttrEntry& e) const {
    return attr_values_[e.value_id];
  }

  std::span<const AdjEntry> OutEdges(NodeId v) const {
    return {out_adj_.data() + out_offsets_[v], out_offsets_[v + 1] - out_offsets_[v]};
  }
  std::span<const AdjEntry> InEdges(NodeId v) const {
    return {in_adj_.data() + in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]};
  }
  size_t out_degree(NodeId v) const { return out_offsets_[v + 1] - out_offsets_[v]; }
  size_t in_degree(NodeId v) const { return in_offsets_[v + 1] - in_offsets_[v]; }
  size_t degree(NodeId v) const { return out_degree(v) + in_degree(v); }
  size_t max_degree() const { return max_degree_; }

  /// True iff edge (from, to) with `edge_label` exists (binary search).
  bool HasEdge(NodeId from, NodeId to, LabelId edge_label) const;

  /// True iff some edge labelled `edge_label` runs from a node labelled
  /// `from_label` to one labelled `to_label` (binary search over the
  /// distinct label triples, collected at Graph build time).
  bool HasLabeledEdge(LabelId from_label, LabelId edge_label,
                      LabelId to_label) const;

  /// `V(u)`: all nodes carrying `label`, ascending. Empty for unknown labels.
  const NodeSet& NodesWithLabel(LabelId label) const;

  /// Characteristic bitset of `NodesWithLabel(label)` (O(1) membership);
  /// an empty bitset for unknown labels.
  const NodeBitset& LabelBitset(LabelId label) const;

  /// Order index of `(label, a)`, or nullptr when no node with `label`
  /// carries `a` (then no literal over `a` can be satisfied). Built once at
  /// Graph build time; drives index-sliced candidate generation.
  const AttrRangeIndex* RangeIndex(LabelId label, AttrId a) const;

  /// Global active domain adom(A): sorted unique values of attribute `a`
  /// (one representative per AttrValue equality class), merged on demand
  /// from the per-label range indexes — nothing on the hot path reads it.
  std::vector<AttrValue> ActiveDomain(AttrId a) const;

  /// Active domain of `a` restricted to nodes labelled `label`; this is the
  /// value set a range variable on a query node with that label can take.
  /// Served from the pair's AttrRangeIndex (its distinct values).
  const std::vector<AttrValue>& ActiveDomain(LabelId label, AttrId a) const;

  /// Size of the largest per-label active domain (the paper's |adom_m|).
  size_t MaxActiveDomainSize() const { return max_adom_size_; }

 private:
  friend class GraphBuilder;
  Graph() = default;

  std::shared_ptr<Schema> schema_;
  std::vector<LabelId> node_labels_;

  // Attribute tuples, pooled; their values, each distinct typed value once.
  std::vector<AttrEntry> attr_pool_;
  std::vector<size_t> attr_offsets_;  // size num_nodes()+1
  std::vector<AttrValue> attr_values_;

  // CSR adjacency, each list sorted by (neighbor, edge_label).
  std::vector<AdjEntry> out_adj_;
  std::vector<size_t> out_offsets_;
  std::vector<AdjEntry> in_adj_;
  std::vector<size_t> in_offsets_;

  // Distinct (from label, edge label, to label) triples, ascending.
  std::vector<std::array<LabelId, 3>> edge_label_triples_;

  std::vector<NodeSet> label_index_;  // indexed by LabelId
  std::vector<NodeBitset> label_bitsets_;  // parallel to label_index_
  NodeSet empty_node_set_;
  NodeBitset empty_bitset_;

  // Attribute range indexes, one per (label, attr) pair present in G.
  std::map<std::pair<LabelId, AttrId>, AttrRangeIndex> attr_index_;

  std::vector<AttrValue> empty_domain_;
  size_t max_adom_size_ = 0;
  size_t max_degree_ = 0;
};

}  // namespace fairsqg

#endif  // FAIRSQG_GRAPH_GRAPH_H_
