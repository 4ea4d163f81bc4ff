#ifndef FAIRSQG_GRAPH_ATTR_RANGE_INDEX_H_
#define FAIRSQG_GRAPH_ATTR_RANGE_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/attr_value.h"
#include "graph/types.h"

namespace fairsqg {

/// \brief Order index of one (node label, attribute) pair: every node of
/// the label carrying the attribute, sorted by value (AttrValue's total
/// order: numerics first, then strings; ties by node id).
///
/// Because every search predicate `u.A op x` is a half-open range in that
/// order (Compare's mixed-type rule confines a numeric constant to the
/// numeric prefix and a string constant to the string suffix), its
/// satisfying nodes are a *contiguous slice* found by binary search in
/// O(log n) — candidate generation becomes index slicing instead of a scan
/// over `NodesWithLabel`. Built once at Graph build time; nodes missing the
/// attribute are simply absent (a missing attribute never satisfies a
/// predicate).
///
/// Layout: the sorted node ids, plus each distinct value once (ascending)
/// with the offset of its first node. Values are stored per distinct value,
/// not per node, and the distinct values double as the pair's active domain.
class AttrRangeIndex {
 public:
  AttrRangeIndex() = default;

  /// Builds from unsorted `(value, node)` pairs (consumed).
  static AttrRangeIndex Build(std::vector<std::pair<AttrValue, NodeId>> entries);

  /// Total entries (= nodes of the label carrying the attribute).
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  /// Node ids satisfying `value op x`, in *value order* (not id order).
  /// Callers intersect or sort as needed; `SliceBounds` returns the raw
  /// index range when only the selectivity is wanted.
  std::span<const NodeId> SliceFor(CompareOp op, const AttrValue& x) const;

  /// [lo, hi) entry range of `SliceFor` — O(log n), no materialization.
  std::pair<size_t, size_t> SliceBounds(CompareOp op, const AttrValue& x) const;

  /// Value of entry i: the first-inserted (lowest node id) representative
  /// of its run of equal values. O(log distinct values).
  const AttrValue& value_at(size_t i) const;
  NodeId node_at(size_t i) const { return nodes_[i]; }

  /// The distinct values, ascending (the pair's active domain).
  const std::vector<AttrValue>& distinct_values() const { return values_; }

 private:
  /// First entry of distinct value k; size() for k == values_.size().
  size_t StartOf(size_t k) const {
    return k < starts_.size() ? starts_[k] : nodes_.size();
  }

  std::vector<NodeId> nodes_;     ///< Sorted by (value, id).
  std::vector<AttrValue> values_;  ///< Distinct values, ascending.
  std::vector<uint32_t> starts_;  ///< Parallel to values_: first entry.
  size_t num_numeric_ = 0;        ///< Numeric prefix of values_.
};

}  // namespace fairsqg

#endif  // FAIRSQG_GRAPH_ATTR_RANGE_INDEX_H_
