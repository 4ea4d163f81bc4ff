#ifndef FAIRSQG_GRAPH_GRAPH_BUILDER_H_
#define FAIRSQG_GRAPH_GRAPH_BUILDER_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace fairsqg {

/// \brief Mutable accumulator that produces an immutable Graph.
///
/// Usage:
/// \code
///   GraphBuilder b;
///   NodeId v = b.AddNode("user");
///   b.SetAttr(v, "yearsOfExp", AttrValue(int64_t{12}));
///   b.AddEdge(v, w, "worksAt");
///   FAIRSQG_ASSIGN_OR_RETURN(Graph g, b.Build());
/// \endcode
class GraphBuilder {
 public:
  GraphBuilder() : schema_(std::make_shared<Schema>()) {}
  /// Builds against an existing schema (e.g., shared with templates).
  explicit GraphBuilder(std::shared_ptr<Schema> schema)
      : schema_(std::move(schema)) {}

  Schema& schema() { return *schema_; }

  /// Adds a node with the given label; returns its dense id.
  NodeId AddNode(std::string_view label);
  NodeId AddNode(LabelId label);

  /// Sets (or overwrites) one attribute of `v`'s tuple.
  void SetAttr(NodeId v, std::string_view attr, AttrValue value);
  void SetAttr(NodeId v, AttrId attr, AttrValue value);

  /// Adds a directed labelled edge; parallel edges with distinct labels are
  /// allowed, exact duplicates are deduplicated at Build time.
  void AddEdge(NodeId from, NodeId to, std::string_view edge_label);
  void AddEdge(NodeId from, NodeId to, LabelId edge_label);

  size_t num_nodes() const { return node_labels_.size(); }
  size_t num_edges() const { return edges_.size(); }

  /// Finalizes: sorts adjacency, builds CSR, label index, active domains.
  /// The builder is consumed.
  Result<Graph> Build() &&;

 private:
  struct NodeAttr {
    AttrId attr;
    AttrValue value;
  };
  struct EdgeRec {
    NodeId from;
    NodeId to;
    LabelId label;
  };

  std::shared_ptr<Schema> schema_;
  std::vector<LabelId> node_labels_;
  std::vector<std::vector<NodeAttr>> node_attrs_;
  std::vector<EdgeRec> edges_;
};

}  // namespace fairsqg

#endif  // FAIRSQG_GRAPH_GRAPH_BUILDER_H_
