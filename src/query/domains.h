#ifndef FAIRSQG_QUERY_DOMAINS_H_
#define FAIRSQG_QUERY_DOMAINS_H_

#include <vector>

#include "common/result.h"
#include "graph/attr_value.h"
#include "graph/graph.h"
#include "query/query_template.h"

namespace fairsqg {

/// \brief Per-range-variable value domains, ordered from most relaxed to
/// most refined.
///
/// The domain of a range variable on literal `u.A op x` is the active
/// domain `adom(A)` restricted to nodes with `u`'s label (Section IV,
/// template refinement restricts it further at spawn time). Ordering makes
/// one refinement step "advance the index by one":
///  * op in {>, >=}: ascending values (raising a lower bound refines);
///  * op in {<, <=}: descending values (lowering an upper bound refines).
/// Index -1 denotes the wildcard '_' (predicate dropped), the most relaxed
/// binding of any range variable.
class VariableDomains {
 public:
  /// Builds domains for every range variable of `tmpl` against `g`.
  static Result<VariableDomains> Build(const Graph& g, const QueryTemplate& tmpl);

  size_t num_vars() const { return domains_.size(); }

  /// Values of variable `x`, relaxed -> refined.
  const std::vector<AttrValue>& values(RangeVarId x) const { return domains_[x]; }

  size_t size(RangeVarId x) const { return domains_[x].size(); }

  /// Value at `index` of variable `x`; index must be in range.
  const AttrValue& value(RangeVarId x, size_t index) const {
    return domains_[x][index];
  }

  /// \brief Deepest index i of x's domain whose literal `*value op dom[i]`
  /// holds, or -1 (the wildcard binding) when `value` is null or satisfies
  /// none. `op` is the operator of x's literal.
  ///
  /// Satisfaction is an index prefix — domains run relaxed -> refined — so
  /// this is a binary search, and a node carrying `value` satisfies x's
  /// literal at binding b iff b <= CriticalLevel(x, op, value).
  int32_t CriticalLevel(RangeVarId x, CompareOp op,
                        const AttrValue* value) const;

  /// \brief A coarsened copy keeping at most `max_per_var` evenly spaced
  /// values per variable (always including the most relaxed and most
  /// refined values).
  ///
  /// The paper's template generator controls |I(Q)| by limiting the
  /// candidate bindings per variable (its largest spaces hold 800-1400
  /// instances); this is the corresponding knob for attributes with large
  /// active domains.
  VariableDomains Coarsened(size_t max_per_var) const;

  /// Total number of distinct instantiations:
  /// prod_x (|dom(x)|+1) * 2^|X_E| (the +1 is the wildcard).
  /// Saturates at SIZE_MAX on overflow.
  size_t InstanceSpaceSize(const QueryTemplate& tmpl) const;

 private:
  std::vector<std::vector<AttrValue>> domains_;
};

}  // namespace fairsqg

#endif  // FAIRSQG_QUERY_DOMAINS_H_
