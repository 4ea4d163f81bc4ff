#include "query/refinement.h"

#include <algorithm>

#include "common/logging.h"

namespace fairsqg {

std::vector<LatticeStep> LatticeNeighbors::RefineChildren(
    const QueryTemplate& tmpl, const VariableDomains& domains,
    const Instantiation& inst, const RefinementHints& hints) {
  std::vector<LatticeStep> out;
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    int32_t cur = inst.range_binding(x);
    int32_t next = kWildcardBinding;
    if (x < hints.restrict_range.size() && hints.restrict_range[x]) {
      // First allowed index strictly greater than the current binding
      // (wildcard is -1, so any allowed index qualifies from wildcard).
      const auto& allowed = hints.allowed_range_indexes[x];
      auto it = std::upper_bound(allowed.begin(), allowed.end(), cur);
      if (it == allowed.end()) continue;
      next = *it;
    } else {
      next = cur + 1;  // Wildcard (-1) -> 0, k -> k+1.
      if (next >= static_cast<int32_t>(domains.size(x))) continue;
    }
    Instantiation child = inst;
    child.set_range_binding(x, next);
    out.push_back({std::move(child), x});
  }
  for (EdgeVarId x = 0; x < tmpl.num_edge_vars(); ++x) {
    if (inst.edge_binding(x) != 0) continue;
    if (x < hints.edge_fixed_zero.size() && hints.edge_fixed_zero[x]) continue;
    Instantiation child = inst;
    child.set_edge_binding(x, 1);
    out.push_back({std::move(child),
                   static_cast<uint32_t>(tmpl.num_range_vars()) + x});
  }
  return out;
}

std::vector<LatticeStep> LatticeNeighbors::RelaxChildren(
    const QueryTemplate& tmpl, const Instantiation& inst) {
  std::vector<LatticeStep> out;
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    int32_t cur = inst.range_binding(x);
    if (cur == kWildcardBinding) continue;  // Already the most relaxed.
    Instantiation child = inst;
    child.set_range_binding(x, cur - 1);  // 0 - 1 == kWildcardBinding.
    out.push_back({std::move(child), x});
  }
  for (EdgeVarId x = 0; x < tmpl.num_edge_vars(); ++x) {
    if (inst.edge_binding(x) != 1) continue;
    Instantiation child = inst;
    child.set_edge_binding(x, 0);
    out.push_back({std::move(child),
                   static_cast<uint32_t>(tmpl.num_range_vars()) + x});
  }
  return out;
}

}  // namespace fairsqg
