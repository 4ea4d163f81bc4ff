#ifndef FAIRSQG_MATCHING_LATTICE_INDEX_H_
#define FAIRSQG_MATCHING_LATTICE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "query/domains.h"
#include "query/instantiation.h"

namespace fairsqg {

/// \brief Every instance's homomorphic match set from one bottom-up pass
/// over the graph (DESIGN.md §14).
///
/// The pass roots a breadth-first spanning tree of the template at u_o and
/// computes, for each query node u and data node w carrying u's label, the
/// antichain A(u, w) of the maximal variable bindings under which u's
/// subtree embeds homomorphically with u at w. A binding is one coordinate
/// per variable: a range variable's domain level (-1 for the wildcard; a
/// node's coordinate is its VariableDomains::CriticalLevel), an edge
/// variable's 0 or 1. An optional edge contributes two options: e = 1 with
/// the child's antichain, or e = 0 with the child's subtree unconstrained.
/// Children are memoised per data node, so a hub's neighbourhood is
/// scanned once, not once per output candidate. This is a join-tree
/// evaluation of the acyclic query (Yannakakis), annotated with the
/// lattice coordinates. An edge outside the spanning tree (a template with
/// a cycle) is left out, and its edge variable, if any, stays at 1 in
/// every element.
///
/// Each element of an output node's antichain is itself an instantiation
/// x; the node is listed in x's *frontier* F_x. Lemma 2 then gives every
/// homomorphic match set: H_x is the union of F_y over the refinements y
/// of x (y = x included). H_x equals q_x(G) for a tree template under
/// homomorphism. Under isomorphism, or when edges were left out, it is a
/// superset, and VerifyLattice (core/lattice_verify.h) certifies only the
/// frontier nodes.
///
/// On a pool the pass is data parallel (DESIGN.md §9, §14.1): workers
/// claim ranges of u_o's candidates and share the memo of A(c, w), each
/// slot published once by whichever worker computed it first. A(c, w)
/// depends on c and w alone and the frontier entries are sorted at the
/// end, so the index is the same at any worker count. Without a pool the
/// same body runs inline, computing exactly the antichains it needs.
///
/// Instances are addressed by their rank in EnumQGen's odometer order:
/// range variable 0 is the fastest digit, then the other range variables,
/// then the edge variables. Digit k of a range variable is its binding + 1
/// (0 is the wildcard), of an edge variable its binding.
class LatticeIndex {
 public:
  /// True when every range variable's domain level fits the index's 16-bit
  /// coordinates. The pass takes any connected template
  /// (QueryTemplate::Validate), cyclic or not.
  static bool Supports(const VariableDomains& domains);

  /// Runs the pass, as one round on `pool` when it is not null. Fails with
  /// FailedPrecondition when !Supports, and with DeadlineExceeded when
  /// `ctx` hard-expires (token or deadline) mid-pass; every worker polls
  /// it, and none is still running when Build returns. `ctx` may be null.
  static Result<LatticeIndex> Build(const Graph& g, const QueryTemplate& tmpl,
                                    const VariableDomains& domains,
                                    RunContext* ctx = nullptr,
                                    ThreadPool* pool = nullptr);

  /// Variables, range ones first: the odometer's digits.
  size_t num_vars() const { return radix_.size(); }
  /// Values digit k takes: |dom(x)| + 1 for a range variable, 2 for an edge.
  uint32_t radix(size_t k) const { return radix_[k]; }
  /// Rank distance between instances that differ by one in digit k.
  uint64_t stride(size_t k) const { return stride_[k]; }
  /// |I(Q)|: the product of the radices.
  uint64_t num_instances() const { return num_instances_; }

  /// The instance of odometer rank `rank`.
  Instantiation InstanceAt(uint64_t rank) const;

  /// F_x for the instance of rank `rank`: the output candidates whose
  /// antichain holds exactly that binding, ascending.
  std::span<const NodeId> Frontier(uint64_t rank) const;

 private:
  class Pass;

  LatticeIndex() = default;

  size_t num_range_vars_ = 0;
  std::vector<uint32_t> radix_;
  std::vector<uint64_t> stride_;
  uint64_t num_instances_ = 1;
  /// Frontier entries sorted by (rank, node), as two parallel arrays.
  std::vector<uint64_t> frontier_rank_;
  std::vector<NodeId> frontier_node_;
};

}  // namespace fairsqg

#endif  // FAIRSQG_MATCHING_LATTICE_INDEX_H_
