#ifndef FAIRSQG_QUERY_QUERY_TEMPLATE_H_
#define FAIRSQG_QUERY_QUERY_TEMPLATE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/attr_value.h"
#include "graph/schema.h"
#include "graph/types.h"

namespace fairsqg {

/// Index of a query node within a template.
using QNodeId = uint32_t;
/// Index of a query edge within a template.
using QEdgeId = uint32_t;
/// Index of a range variable (into QueryTemplate::range_vars()).
using RangeVarId = uint32_t;
/// Index of an edge variable (into QueryTemplate::edge_vars()).
using EdgeVarId = uint32_t;

inline constexpr uint32_t kNoVariable = 0xffffffffu;

/// A search predicate `u.A op x` where x is either a fixed constant or a
/// range variable to be bound at instantiation time.
struct LiteralTemplate {
  QNodeId node = 0;
  AttrId attr = kInvalidAttr;
  CompareOp op = CompareOp::kGe;
  /// kNoVariable for a fixed literal, else the RangeVarId bound to this
  /// literal (each range variable parameterizes exactly one literal).
  uint32_t variable = kNoVariable;
  /// Constant for fixed literals; ignored when variable != kNoVariable.
  AttrValue fixed_value;

  bool is_variable() const { return variable != kNoVariable; }
};

/// A query edge; `variable == kNoVariable` means the edge is always present.
struct QueryEdge {
  QNodeId from = 0;
  QNodeId to = 0;
  LabelId label = kInvalidLabel;
  uint32_t variable = kNoVariable;  // EdgeVarId if this edge is optional

  bool is_variable() const { return variable != kNoVariable; }
};

/// \brief A query template `Q(u_o)`: a connected, labelled query graph with
/// parameterized search predicates (Section II of the paper).
///
/// Range variables appear in literals `u.A op x` with op in {>, >=, <=, <};
/// the refinement preorder of Section IV is defined for inequality
/// predicates, so equality literals must use fixed constants. Boolean edge
/// variables switch optional edges on and off. The designated output node
/// `u_o` is the node whose match set `q(G)` the measures are computed over.
class QueryTemplate {
 public:
  explicit QueryTemplate(std::shared_ptr<Schema> schema)
      : schema_(std::move(schema)) {}

  /// Adds a query node; the first added node is the output node by default.
  QNodeId AddNode(std::string_view label);
  QNodeId AddNode(LabelId label);

  void SetOutputNode(QNodeId u) { output_node_ = u; }
  QNodeId output_node() const { return output_node_; }

  /// Adds a fixed search predicate `u.A op value`.
  void AddLiteral(QNodeId u, std::string_view attr, CompareOp op, AttrValue value);
  void AddLiteral(QNodeId u, AttrId attr, CompareOp op, AttrValue value);

  /// Adds a parameterized predicate `u.A op x`; returns the new variable id.
  /// op must be an inequality (the refinement preorder needs a direction).
  RangeVarId AddRangeLiteral(QNodeId u, std::string_view attr, CompareOp op);
  RangeVarId AddRangeLiteral(QNodeId u, AttrId attr, CompareOp op);

  /// Adds an always-present edge.
  QEdgeId AddEdge(QNodeId from, QNodeId to, std::string_view label);
  QEdgeId AddEdge(QNodeId from, QNodeId to, LabelId label);

  /// Adds an optional edge controlled by a Boolean edge variable; returns
  /// the edge variable id.
  EdgeVarId AddVariableEdge(QNodeId from, QNodeId to, std::string_view label);
  EdgeVarId AddVariableEdge(QNodeId from, QNodeId to, LabelId label);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }
  LabelId node_label(QNodeId u) const { return index_[u]; }
  const std::vector<QueryEdge>& edges() const { return edges_; }
  const QueryEdge& edge(QEdgeId e) const { return edges_[e]; }
  const std::vector<LiteralTemplate>& literals() const { return literals_; }

  /// Literal indexes attached to query node `u`, in the order they were
  /// added.
  std::span<const uint32_t> literals_of(QNodeId u) const;

  size_t num_range_vars() const { return num_range_vars_; }
  size_t num_edge_vars() const { return num_edge_vars_; }
  /// |X| = |X_L| + |X_E|.
  size_t num_vars() const { return num_range_vars() + num_edge_vars(); }

  /// Literal index parameterized by range variable `x`.
  uint32_t literal_of_var(RangeVarId x) const {
    return index_[RangeVarsBegin() + x];
  }
  /// Edge index controlled by edge variable `x`.
  QEdgeId edge_of_var(EdgeVarId x) const {
    return index_[RangeVarsBegin() + num_range_vars_ + x];
  }

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<Schema>& schema_ptr() const { return schema_; }

  /// Diameter (longest shortest path, undirected) of the template graph
  /// with ALL edges present; the paper's `d` for `G_q^d`.
  int Diameter() const;

  /// Checks structural invariants: output node valid, endpoints in range,
  /// template connected when all edges are present, inequality ops on all
  /// range variables, attrs/labels known to the schema.
  Status Validate() const;

  /// Human-readable multi-line description.
  std::string ToString() const;

 private:
  /// Where index_'s sections start: the node literal offsets, the node
  /// literal indexes, and the range then edge variables' targets.
  size_t OffsetsBegin() const { return num_nodes_; }
  size_t NodeLiteralsBegin() const { return 2 * size_t{num_nodes_} + 1; }
  size_t RangeVarsBegin() const { return NodeLiteralsBegin() + literals_.size(); }

  /// Inserts `value` at `pos` of index_, growing it by exactly one slot:
  /// a pooled template keeps no spare capacity.
  void IndexInsert(size_t pos, uint32_t value);

  /// Appends literal `l` to node `u` and returns its index.
  uint32_t PushLiteral(QNodeId u, LiteralTemplate l);

  std::shared_ptr<Schema> schema_;
  std::vector<QueryEdge> edges_;
  std::vector<LiteralTemplate> literals_;
  /// Every small per-template array in one allocation, in sections:
  ///   node labels (num_nodes_),
  ///   node literal offsets (num_nodes_ + 1; node u's literals are
  ///     entries [offset u, offset u+1) of the next section),
  ///   node literal indexes (literals_.size(), grouped by node),
  ///   range variable -> literal index (num_range_vars_),
  ///   edge variable -> edge index (num_edge_vars_).
  std::vector<uint32_t> index_{0};
  uint32_t num_nodes_ = 0;
  uint32_t num_range_vars_ = 0;
  uint32_t num_edge_vars_ = 0;
  QNodeId output_node_ = 0;
};

}  // namespace fairsqg

#endif  // FAIRSQG_QUERY_QUERY_TEMPLATE_H_
