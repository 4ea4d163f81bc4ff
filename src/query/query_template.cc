#include "query/query_template.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "common/logging.h"

namespace fairsqg {

QNodeId QueryTemplate::AddNode(std::string_view label) {
  return AddNode(schema_->InternNodeLabel(label));
}

QNodeId QueryTemplate::AddNode(LabelId label) {
  const QNodeId id = num_nodes_;
  const auto literal_count = static_cast<uint32_t>(literals_.size());
  IndexInsert(id, label);
  // The labels grew by one, so the offsets start one slot later; the new
  // node's literals end where the last node's do.
  IndexInsert(NodeLiteralsBegin() + 1, literal_count);
  ++num_nodes_;
  return id;
}

void QueryTemplate::IndexInsert(size_t pos, uint32_t value) {
  index_.reserve(index_.size() + 1);
  index_.insert(index_.begin() + static_cast<ptrdiff_t>(pos), value);
}

uint32_t QueryTemplate::PushLiteral(QNodeId u, LiteralTemplate l) {
  FAIRSQG_CHECK(u < num_nodes()) << "literal on unknown query node";
  const auto id = static_cast<uint32_t>(literals_.size());
  IndexInsert(NodeLiteralsBegin() + index_[OffsetsBegin() + u + 1], id);
  for (size_t v = u + 1; v <= num_nodes_; ++v) ++index_[OffsetsBegin() + v];
  literals_.reserve(literals_.size() + 1);
  literals_.push_back(std::move(l));
  return id;
}

void QueryTemplate::AddLiteral(QNodeId u, std::string_view attr, CompareOp op,
                               AttrValue value) {
  AddLiteral(u, schema_->InternAttr(attr), op, std::move(value));
}

void QueryTemplate::AddLiteral(QNodeId u, AttrId attr, CompareOp op,
                               AttrValue value) {
  LiteralTemplate l;
  l.node = u;
  l.attr = attr;
  l.op = op;
  l.fixed_value = std::move(value);
  PushLiteral(u, std::move(l));
}

RangeVarId QueryTemplate::AddRangeLiteral(QNodeId u, std::string_view attr,
                                          CompareOp op) {
  return AddRangeLiteral(u, schema_->InternAttr(attr), op);
}

RangeVarId QueryTemplate::AddRangeLiteral(QNodeId u, AttrId attr, CompareOp op) {
  const RangeVarId var = num_range_vars_;
  LiteralTemplate l;
  l.node = u;
  l.attr = attr;
  l.op = op;
  l.variable = var;
  const uint32_t id = PushLiteral(u, std::move(l));
  IndexInsert(RangeVarsBegin() + var, id);
  ++num_range_vars_;
  return var;
}

QEdgeId QueryTemplate::AddEdge(QNodeId from, QNodeId to, std::string_view label) {
  return AddEdge(from, to, schema_->InternEdgeLabel(label));
}

QEdgeId QueryTemplate::AddEdge(QNodeId from, QNodeId to, LabelId label) {
  QEdgeId id = static_cast<QEdgeId>(edges_.size());
  edges_.reserve(edges_.size() + 1);
  edges_.push_back({from, to, label, kNoVariable});
  return id;
}

EdgeVarId QueryTemplate::AddVariableEdge(QNodeId from, QNodeId to,
                                         std::string_view label) {
  return AddVariableEdge(from, to, schema_->InternEdgeLabel(label));
}

EdgeVarId QueryTemplate::AddVariableEdge(QNodeId from, QNodeId to, LabelId label) {
  const EdgeVarId var = num_edge_vars_;
  const auto e = static_cast<QEdgeId>(edges_.size());
  edges_.reserve(edges_.size() + 1);
  edges_.push_back({from, to, label, var});
  IndexInsert(index_.size(), e);
  ++num_edge_vars_;
  return var;
}

std::span<const uint32_t> QueryTemplate::literals_of(QNodeId u) const {
  FAIRSQG_CHECK(u < num_nodes());
  const uint32_t begin = index_[OffsetsBegin() + u];
  const uint32_t end = index_[OffsetsBegin() + u + 1];
  return {index_.data() + NodeLiteralsBegin() + begin, end - begin};
}

int QueryTemplate::Diameter() const {
  const size_t n = num_nodes();
  if (n == 0) return 0;
  // Undirected adjacency with all edges present.
  std::vector<std::vector<QNodeId>> adj(n);
  for (const QueryEdge& e : edges_) {
    adj[e.from].push_back(e.to);
    adj[e.to].push_back(e.from);
  }
  int diameter = 0;
  std::vector<int> dist(n);
  for (QNodeId s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::deque<QNodeId> queue{s};
    dist[s] = 0;
    while (!queue.empty()) {
      QNodeId v = queue.front();
      queue.pop_front();
      diameter = std::max(diameter, dist[v]);
      for (QNodeId w : adj[v]) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          queue.push_back(w);
        }
      }
    }
  }
  return diameter;
}

Status QueryTemplate::Validate() const {
  if (num_nodes() == 0) return Status::InvalidArgument("template has no nodes");
  if (output_node_ >= num_nodes()) {
    return Status::InvalidArgument("output node out of range");
  }
  for (size_t i = 0; i < edges_.size(); ++i) {
    const QueryEdge& e = edges_[i];
    if (e.from >= num_nodes() || e.to >= num_nodes()) {
      return Status::InvalidArgument("query edge endpoint out of range");
    }
    if (e.from == e.to) return Status::InvalidArgument("self-loop query edge");
    for (size_t j = i + 1; j < edges_.size(); ++j) {
      const QueryEdge& o = edges_[j];
      if (e.from == o.from && e.to == o.to && e.label == o.label) {
        return Status::InvalidArgument(
            "duplicate query edge (same endpoints and label)");
      }
    }
  }
  for (const LiteralTemplate& l : literals_) {
    if (l.attr == kInvalidAttr) return Status::InvalidArgument("literal attr unset");
    if (l.is_variable() && l.op == CompareOp::kEq) {
      return Status::InvalidArgument(
          "range variables require an inequality op; '=' literals must be fixed");
    }
  }
  // Connectivity with all edges present (the template must be a connected
  // graph per its definition; instances keep u_o's component).
  if (num_nodes() > 1) {
    std::vector<bool> seen(num_nodes(), false);
    std::deque<QNodeId> queue{output_node_};
    seen[output_node_] = true;
    size_t reached = 1;
    while (!queue.empty()) {
      QNodeId v = queue.front();
      queue.pop_front();
      for (const QueryEdge& e : edges_) {
        QNodeId other = kInvalidNode;
        if (e.from == v) other = e.to;
        if (e.to == v) other = e.from;
        if (other != kInvalidNode && !seen[other]) {
          seen[other] = true;
          ++reached;
          queue.push_back(other);
        }
      }
    }
    if (reached != num_nodes()) {
      return Status::InvalidArgument("template graph is not connected");
    }
  }
  return Status::OK();
}

std::string QueryTemplate::ToString() const {
  std::ostringstream out;
  out << "QueryTemplate(u_o=u" << output_node_ << ", |V|=" << num_nodes()
      << ", |E|=" << num_edges() << ", |X_L|=" << num_range_vars()
      << ", |X_E|=" << num_edge_vars() << ")\n";
  for (QNodeId u = 0; u < num_nodes(); ++u) {
    out << "  u" << u << ": " << schema_->NodeLabelName(node_label(u));
    for (uint32_t li : literals_of(u)) {
      const LiteralTemplate& l = literals_[li];
      out << " [" << schema_->AttrName(l.attr) << " " << CompareOpToString(l.op)
          << " ";
      if (l.is_variable()) {
        out << "x" << l.variable;
      } else {
        out << l.fixed_value.ToString();
      }
      out << "]";
    }
    out << "\n";
  }
  for (size_t i = 0; i < edges_.size(); ++i) {
    const QueryEdge& e = edges_[i];
    out << "  u" << e.from << " -" << schema_->EdgeLabelName(e.label) << "-> u"
        << e.to;
    if (e.is_variable()) out << " [xe" << e.variable << "]";
    out << "\n";
  }
  return out.str();
}

}  // namespace fairsqg
