#ifndef FAIRSQG_MATCHING_CANDIDATE_SPACE_H_
#define FAIRSQG_MATCHING_CANDIDATE_SPACE_H_

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "matching/match_stats.h"
#include "query/instance.h"

namespace fairsqg {

/// \brief Per-query-node candidate sets: for each template node `u`, the
/// data nodes with `u`'s label satisfying all of `u`'s bound literals.
///
/// Each node stores the candidates twice: as a sorted id vector (for
/// ordered iteration and merge-joins) and as a dense NodeBitset (for the
/// matcher's O(1) membership probes).
///
/// Construction is selectivity-adaptive when `use_index` is set:
///  - a node with no bound literals (and no effective degree filter)
///    aliases the Graph-owned label set and label bitset — zero copies;
///  - selective literals resolve through AttrRangeIndex slices, sorting the
///    smallest slice and intersecting the rest by galloping merge or a
///    direct per-node predicate test, whichever is cheaper;
///  - unselective literals fall back to bitmap filtering: one AND per
///    literal slice over dense bitsets, then set-bit extraction (which
///    yields id-sorted output without a sort).
class CandidateSpace {
 public:
  CandidateSpace() = default;

  /// Builds candidates for every template node of `q` from scratch.
  /// With `degree_filter` (valid under isomorphism semantics only), a
  /// candidate for an active query node must have at least the node's
  /// active out- and in-degrees: injectivity forces distinct data edges
  /// per query edge, so lower-degree nodes can never host an embedding.
  /// `use_index=false` forces the reference label-scan path (NodeSatisfies
  /// per node); `stats`, when non-null, accrues `index_slices`.
  static CandidateSpace Build(const Graph& g, const QueryInstance& q,
                              bool degree_filter = false,
                              bool use_index = true,
                              MatchStats* stats = nullptr);

  /// Candidates of query node `u`, ascending; never null after Build.
  const NodeSet& of(QNodeId u) const { return *per_node_[u].nodes; }

  /// Characteristic bitset of `of(u)` for O(1) membership probes.
  const NodeBitset& bits(QNodeId u) const { return *per_node_[u].bits; }

  size_t num_nodes() const { return per_node_.size(); }

  /// True if some *active* node of `q` has no candidates (no match exists).
  bool HasEmptyActive(const QueryInstance& q) const;

 private:
  struct Entry {
    std::shared_ptr<const NodeSet> nodes;
    std::shared_ptr<const NodeBitset> bits;
  };

  static Entry MakeEntry(NodeSet set, size_t num_graph_nodes);

  std::vector<Entry> per_node_;
};

/// True iff data node `v` carries `label` and satisfies every literal in
/// `literals` (conjunction; missing attributes never satisfy a predicate).
bool NodeSatisfies(const Graph& g, NodeId v, LabelId label,
                   const std::vector<BoundLiteral>& literals);

}  // namespace fairsqg

#endif  // FAIRSQG_MATCHING_CANDIDATE_SPACE_H_
