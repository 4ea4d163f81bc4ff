#include "query/domains.h"

#include <algorithm>
#include <limits>

namespace fairsqg {

Result<VariableDomains> VariableDomains::Build(const Graph& g,
                                               const QueryTemplate& tmpl) {
  FAIRSQG_RETURN_NOT_OK(tmpl.Validate());
  VariableDomains out;
  out.domains_.resize(tmpl.num_range_vars());
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    const LiteralTemplate& l = tmpl.literals()[tmpl.literal_of_var(x)];
    LabelId label = tmpl.node_label(l.node);
    const std::vector<AttrValue>& adom = g.ActiveDomain(label, l.attr);
    std::vector<AttrValue>& dom = out.domains_[x];
    dom = adom;  // Ascending by AttrValue order.
    if (l.op == CompareOp::kLt || l.op == CompareOp::kLe) {
      std::reverse(dom.begin(), dom.end());  // Descending: lowering refines.
    }
  }
  return out;
}

int32_t VariableDomains::CriticalLevel(RangeVarId x, CompareOp op,
                                      const AttrValue* value) const {
  if (value == nullptr) return -1;
  const std::vector<AttrValue>& values = domains_[x];
  int32_t lo = -1;  // P(-1) holds: the wildcard admits every node.
  int32_t hi = static_cast<int32_t>(values.size());
  while (hi - lo > 1) {
    const int32_t mid = lo + (hi - lo) / 2;
    if (value->Compare(op, values[mid])) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

VariableDomains VariableDomains::Coarsened(size_t max_per_var) const {
  VariableDomains out;
  out.domains_.resize(domains_.size());
  for (size_t x = 0; x < domains_.size(); ++x) {
    const std::vector<AttrValue>& dom = domains_[x];
    std::vector<AttrValue>& coarse = out.domains_[x];
    if (dom.size() <= max_per_var || max_per_var == 0) {
      coarse = dom;
      continue;
    }
    // Evenly spaced picks, always keeping both endpoints.
    for (size_t i = 0; i < max_per_var; ++i) {
      size_t idx = (i * (dom.size() - 1)) / (max_per_var - 1);
      coarse.push_back(dom[idx]);
    }
    coarse.erase(std::unique(coarse.begin(), coarse.end(),
                             [](const AttrValue& a, const AttrValue& b) {
                               return a == b;
                             }),
                 coarse.end());
  }
  return out;
}

size_t VariableDomains::InstanceSpaceSize(const QueryTemplate& tmpl) const {
  size_t total = 1;
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  for (const auto& dom : domains_) {
    size_t options = dom.size() + 1;  // +1 for the wildcard.
    if (total > kMax / options) return kMax;
    total *= options;
  }
  for (size_t i = 0; i < tmpl.num_edge_vars(); ++i) {
    if (total > kMax / 2) return kMax;
    total *= 2;
  }
  return total;
}

}  // namespace fairsqg
