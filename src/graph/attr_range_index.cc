#include "graph/attr_range_index.h"

#include <algorithm>

namespace fairsqg {

AttrRangeIndex AttrRangeIndex::Build(
    std::vector<std::pair<AttrValue, NodeId>> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const std::pair<AttrValue, NodeId>& a,
               const std::pair<AttrValue, NodeId>& b) {
              if (a.first < b.first) return true;
              if (b.first < a.first) return false;
              return a.second < b.second;
            });
  AttrRangeIndex index;
  index.nodes_.reserve(entries.size());
  for (auto& [value, node] : entries) {
    // Entries are sorted, so a value either equals the last run's or
    // starts a new run.
    if (index.values_.empty() || index.values_.back() < value) {
      if (value.is_numeric()) ++index.num_numeric_;
      index.starts_.push_back(static_cast<uint32_t>(index.nodes_.size()));
      index.values_.push_back(std::move(value));
    }
    index.nodes_.push_back(node);
  }
  index.values_.shrink_to_fit();
  index.starts_.shrink_to_fit();
  return index;
}

std::pair<size_t, size_t> AttrRangeIndex::SliceBounds(CompareOp op,
                                                      const AttrValue& x) const {
  // Compare's mixed-type rule: a numeric constant only ever matches numeric
  // values, a string constant only strings. The total order puts numerics
  // first, so the admissible region is the numeric prefix or string suffix.
  const size_t region_begin = x.is_numeric() ? 0 : num_numeric_;
  const size_t region_end = x.is_numeric() ? num_numeric_ : values_.size();

  auto begin = values_.begin() + static_cast<ptrdiff_t>(region_begin);
  auto end = values_.begin() + static_cast<ptrdiff_t>(region_end);
  // lower: first value !< x; upper: first value > x. Both stay inside the
  // region because cross-type comparisons order the regions themselves.
  // Distinct-value positions map to entry offsets through StartOf.
  const size_t lower = StartOf(static_cast<size_t>(
      std::lower_bound(begin, end, x) - values_.begin()));
  const size_t upper = StartOf(static_cast<size_t>(
      std::upper_bound(begin, end, x) - values_.begin()));
  const size_t first = StartOf(region_begin);
  const size_t last = StartOf(region_end);

  switch (op) {
    case CompareOp::kGt:
      return {upper, last};
    case CompareOp::kGe:
      return {lower, last};
    case CompareOp::kEq:
      return {lower, upper};
    case CompareOp::kLe:
      return {first, upper};
    case CompareOp::kLt:
      return {first, lower};
  }
  return {0, 0};
}

std::span<const NodeId> AttrRangeIndex::SliceFor(CompareOp op,
                                                 const AttrValue& x) const {
  auto [lo, hi] = SliceBounds(op, x);
  return {nodes_.data() + lo, hi - lo};
}

const AttrValue& AttrRangeIndex::value_at(size_t i) const {
  const auto run = std::upper_bound(starts_.begin(), starts_.end(), i);
  return values_[static_cast<size_t>(run - starts_.begin()) - 1];
}

}  // namespace fairsqg
