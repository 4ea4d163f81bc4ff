#ifndef FAIRSQG_QUERY_REFINEMENT_H_
#define FAIRSQG_QUERY_REFINEMENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "query/instantiation.h"

namespace fairsqg {

/// \brief Per-variable restrictions computed by template refinement
/// (procedure Spawn, Section IV-A): which domain indexes are worth
/// exploring, and which edge variables are fixed to 0.
///
/// Empty/default hints impose no restriction.
struct RefinementHints {
  /// For each range variable: sorted list of still-useful domain indexes.
  /// An empty inner vector with `restrict_range[x] == true` means no value
  /// remains useful (refining x further cannot change the match set).
  std::vector<std::vector<int32_t>> allowed_range_indexes;
  std::vector<bool> restrict_range;  // Whether allowed_range_indexes[x] applies.
  /// Edge variables pinned to 0 (no matching edge exists in G_q^d).
  std::vector<bool> edge_fixed_zero;

  static RefinementHints None(const QueryTemplate& tmpl) {
    RefinementHints h;
    h.allowed_range_indexes.resize(tmpl.num_range_vars());
    h.restrict_range.assign(tmpl.num_range_vars(), false);
    h.edge_fixed_zero.assign(tmpl.num_edge_vars(), false);
    return h;
  }
};

/// A lattice neighbor: the new instantiation and the index of the variable
/// that changed (range variables first, then edge variables).
struct LatticeStep {
  Instantiation inst;
  uint32_t var_index;

  /// True if the changed variable is a range variable of `tmpl`.
  bool IsRangeVar(const QueryTemplate& tmpl) const {
    return var_index < tmpl.num_range_vars();
  }
};

/// \brief Stepwise neighbor generation in the instance lattice
/// `(I(Q), <=_I)`: an edge of the lattice changes exactly one variable to
/// its next (or previous) value in the corresponding ordered domain.
class LatticeNeighbors {
 public:
  /// Children of `inst` in the refinement direction (procedure Spawn /
  /// SpawnF): for each variable, advance it one step if possible. `hints`
  /// restricts range indexes and skips edges fixed to 0; pass
  /// RefinementHints::None(tmpl) for the unrestricted lattice.
  static std::vector<LatticeStep> RefineChildren(const QueryTemplate& tmpl,
                                                 const VariableDomains& domains,
                                                 const Instantiation& inst,
                                                 const RefinementHints& hints);

  /// Children in the relaxation direction (procedure SpawnB): for each
  /// variable, step it back once (index k -> k-1, 0 -> wildcard, edge 1->0).
  static std::vector<LatticeStep> RelaxChildren(const QueryTemplate& tmpl,
                                                const Instantiation& inst);
};

}  // namespace fairsqg

#endif  // FAIRSQG_QUERY_REFINEMENT_H_
