#include "matching/lattice_index.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "obs/trace.h"

namespace fairsqg {

namespace {

using Coord = int16_t;

/// Antichain computations between two hard-expiry polls.
constexpr uint32_t kPollInterval = 256;

/// Marks a memo slot whose antichain has not been computed yet.
constexpr uint32_t kUncomputed = std::numeric_limits<uint32_t>::max();

}  // namespace

/// The bottom-up pass. Antichains are flat arrays of `width_` coordinates
/// per element; every element is "top" (the most refined level, or edge
/// present) outside the subtree that produced it, so combining two
/// subtrees' options is a coordinatewise min and their product stays an
/// antichain. A template without variables stores one dummy coordinate
/// (always 0) so that elements stay countable.
class LatticeIndex::Pass {
 public:
  Pass(const Graph& g, const QueryTemplate& tmpl,
       const VariableDomains& domains, RunContext* ctx)
      : g_(&g), tmpl_(&tmpl), domains_(&domains), ctx_(ctx) {}

  Status Run(LatticeIndex* out) {
    const size_t num_vars = tmpl_->num_vars();
    width_ = std::max<size_t>(num_vars, 1);
    top_.assign(width_, 0);
    for (RangeVarId x = 0; x < tmpl_->num_range_vars(); ++x) {
      top_[x] = static_cast<Coord>(static_cast<int32_t>(domains_->size(x)) - 1);
    }
    for (EdgeVarId x = 0; x < tmpl_->num_edge_vars(); ++x) {
      top_[tmpl_->num_range_vars() + x] = 1;
    }
    FAIRSQG_RETURN_NOT_OK(Orient());

    const QNodeId root = tmpl_->output_node();
    std::vector<std::pair<uint64_t, NodeId>> frontier;
    Poll();
    for (NodeId v : g_->NodesWithLabel(tmpl_->node_label(root))) {
      Compute(root, v);
      if (expired_) break;
      const std::vector<Coord>& elems = scratch_[root].partial;
      for (size_t i = 0; i < scratch_[root].count; ++i) {
        frontier.emplace_back(RankOf(*out, &elems[i * width_]), v);
      }
    }
    if (expired_) {
      return Status::DeadlineExceeded("lattice index pass stopped early");
    }
    std::sort(frontier.begin(), frontier.end());
    out->frontier_rank_.reserve(frontier.size());
    out->frontier_node_.reserve(frontier.size());
    for (const auto& [rank, v] : frontier) {
      out->frontier_rank_.push_back(rank);
      out->frontier_node_.push_back(v);
    }
    return Status::OK();
  }

 private:
  /// A child of a query node in the tree rooted at u_o, reached over one
  /// template edge.
  struct Child {
    QNodeId node;
    LabelId edge_label;
    bool outgoing;   // Template edge runs parent -> child.
    int32_t coord;   // The edge variable's coordinate, or -1 when fixed.
  };
  struct RangeLiteral {
    size_t coord;
    const LiteralTemplate* lit;
  };
  struct NodeInfo {
    LabelId label = kInvalidLabel;
    std::vector<const LiteralTemplate*> fixed;
    std::vector<RangeLiteral> ranges;
    std::vector<Child> children;
  };
  /// Memoised antichain of (u, w): elements [begin, begin + count) of
  /// pool_[u].
  struct Slot {
    uint32_t begin = 0;
    uint32_t count = kUncomputed;
  };
  /// Per query node working buffers. A tree puts each query node on the
  /// recursion stack at most once, so one set per node suffices.
  struct Scratch {
    std::vector<Coord> partial, next, options;
    size_t count = 0;
  };

  /// Roots the template at u_o and files each node's literals.
  Status Orient() {
    const size_t n = tmpl_->num_nodes();
    nodes_.assign(n, NodeInfo{});
    scratch_.assign(n, Scratch{});
    pool_.assign(n, {});
    memo_.assign(n, {});
    for (QNodeId u = 0; u < n; ++u) nodes_[u].label = tmpl_->node_label(u);
    for (const LiteralTemplate& l : tmpl_->literals()) {
      if (l.is_variable()) {
        nodes_[l.node].ranges.push_back({l.variable, &l});
      } else {
        nodes_[l.node].fixed.push_back(&l);
      }
    }
    std::vector<bool> seen(n, false);
    std::deque<QNodeId> queue{tmpl_->output_node()};
    seen[tmpl_->output_node()] = true;
    size_t reached = 1;
    while (!queue.empty()) {
      const QNodeId u = queue.front();
      queue.pop_front();
      for (const QueryEdge& e : tmpl_->edges()) {
        if (e.from != u && e.to != u) continue;
        const QNodeId c = e.from == u ? e.to : e.from;
        if (seen[c]) continue;
        seen[c] = true;
        ++reached;
        queue.push_back(c);
        const int32_t coord =
            e.is_variable()
                ? static_cast<int32_t>(tmpl_->num_range_vars() + e.variable)
                : -1;
        nodes_[u].children.push_back({c, e.label, e.from == u, coord});
        memo_[c].assign(g_->num_nodes(), Slot{});
      }
    }
    if (reached != n || tmpl_->num_edges() + 1 != n) {
      return Status::FailedPrecondition(
          "lattice index needs a tree-shaped template");
    }
    return Status::OK();
  }

  void Poll() {
    if (ctx_ != nullptr && ctx_->HardExpired()) expired_ = true;
  }

  uint64_t RankOf(const LatticeIndex& index, const Coord* c) const {
    uint64_t rank = 0;
    for (size_t k = 0; k < index.num_vars(); ++k) {
      const int32_t digit = k < index.num_range_vars_ ? c[k] + 1 : c[k];
      rank += static_cast<uint64_t>(digit) * index.stride_[k];
    }
    return rank;
  }

  bool Dominates(const Coord* a, const Coord* b) const {
    for (size_t k = 0; k < width_; ++k) {
      if (a[k] < b[k]) return false;
    }
    return true;
  }

  /// Adds `v` to the antichain `acc` of `*count` elements unless an element
  /// dominates it, dropping the elements it dominates.
  void InsertMaximal(const Coord* v, std::vector<Coord>* acc,
                     size_t* count) const {
    for (size_t i = 0; i < *count; ++i) {
      if (Dominates(&(*acc)[i * width_], v)) return;
    }
    size_t kept = 0;
    for (size_t i = 0; i < *count; ++i) {
      if (Dominates(v, &(*acc)[i * width_])) continue;
      if (kept != i) {
        std::copy_n(acc->begin() + i * width_, width_,
                    acc->begin() + kept * width_);
      }
      ++kept;
    }
    acc->resize(kept * width_);
    acc->insert(acc->end(), v, v + width_);
    *count = kept + 1;
  }

  /// A(u, w) into scratch_[u].partial (scratch_[u].count elements; none
  /// when w cannot host u's subtree).
  void Compute(QNodeId u, NodeId w) {
    Scratch& s = scratch_[u];
    s.count = 0;
    s.partial.clear();
    if (++ticks_ % kPollInterval == 0) Poll();
    if (expired_) return;
    const NodeInfo& info = nodes_[u];
    for (const LiteralTemplate* l : info.fixed) {
      const AttrValue* a = g_->GetAttr(w, l->attr);
      if (a == nullptr || !a->Compare(l->op, l->fixed_value)) return;
    }
    s.partial = top_;
    for (const RangeLiteral& r : info.ranges) {
      s.partial[r.coord] = static_cast<Coord>(domains_->CriticalLevel(
          static_cast<RangeVarId>(r.coord), r.lit->op,
          g_->GetAttr(w, r.lit->attr)));
    }
    size_t count = 1;
    for (const Child& c : info.children) {
      size_t num_options = Options(c, w, &s.options);
      if (expired_) return;
      if (num_options == 0) return;  // A fixed edge with no host.
      s.next.clear();
      for (size_t p = 0; p < count; ++p) {
        for (size_t o = 0; o < num_options; ++o) {
          for (size_t k = 0; k < width_; ++k) {
            s.next.push_back(std::min(s.partial[p * width_ + k],
                                      s.options[o * width_ + k]));
          }
        }
      }
      s.partial.swap(s.next);
      count *= num_options;
    }
    s.count = count;
  }

  /// The options child `c` offers its parent at data node `w`: the maximal
  /// elements of A(c, w') over w's matching neighbours w', plus, for an
  /// optional edge, "edge absent" with c's subtree unconstrained. Returns
  /// the number of options, written flat to `*out`.
  size_t Options(const Child& c, NodeId w, std::vector<Coord>* out) {
    out->clear();
    size_t count = 0;
    bool at_top = false;
    const LabelId child_label = nodes_[c.node].label;
    const auto adjacency = c.outgoing ? g_->OutEdges(w) : g_->InEdges(w);
    for (const AdjEntry& e : adjacency) {
      if (e.edge_label != c.edge_label) continue;
      if (g_->node_label(e.neighbor) != child_label) continue;
      const Slot slot = Get(c.node, e.neighbor);
      if (expired_) return 0;
      const std::vector<Coord>& pool = pool_[c.node];
      for (uint32_t i = 0; i < slot.count; ++i) {
        const Coord* v = &pool[(slot.begin + i) * width_];
        InsertMaximal(v, out, &count);
        at_top = at_top || std::equal(v, v + width_, top_.begin());
      }
      // The whole-lattice ceiling: nothing further can be added.
      if (at_top) break;
    }
    if (c.coord >= 0 && !at_top) {
      out->insert(out->end(), top_.begin(), top_.end());
      (*out)[count * width_ + static_cast<size_t>(c.coord)] = 0;
      ++count;
    }
    return count;
  }

  /// Memoised A(c, w) for a non-root query node.
  Slot Get(QNodeId c, NodeId w) {
    Slot& memo = memo_[c][w];
    if (memo.count != kUncomputed) return memo;
    Compute(c, w);
    if (expired_) return Slot{0, 0};
    const Scratch& s = scratch_[c];
    std::vector<Coord>& pool = pool_[c];
    Slot slot{static_cast<uint32_t>(pool.size() / width_),
              static_cast<uint32_t>(s.count)};
    pool.insert(pool.end(), s.partial.begin(),
                s.partial.begin() + s.count * width_);
    memo_[c][w] = slot;
    return slot;
  }

  const Graph* g_;
  const QueryTemplate* tmpl_;
  const VariableDomains* domains_;
  RunContext* ctx_;
  size_t width_ = 1;
  std::vector<Coord> top_;
  std::vector<NodeInfo> nodes_;
  std::vector<Scratch> scratch_;
  std::vector<std::vector<Coord>> pool_;  // Per query node, flat elements.
  std::vector<std::vector<Slot>> memo_;   // Per non-root query node.
  uint32_t ticks_ = 0;
  bool expired_ = false;
};

bool LatticeIndex::Supports(const QueryTemplate& tmpl,
                            const VariableDomains& domains) {
  if (tmpl.num_edges() + 1 != tmpl.num_nodes()) return false;
  for (RangeVarId x = 0; x < domains.num_vars(); ++x) {
    if (domains.size(x) >
        static_cast<size_t>(std::numeric_limits<Coord>::max())) {
      return false;
    }
  }
  return true;
}

Result<LatticeIndex> LatticeIndex::Build(const Graph& g,
                                         const QueryTemplate& tmpl,
                                         const VariableDomains& domains,
                                         RunContext* ctx) {
  if (!Supports(tmpl, domains)) {
    return Status::FailedPrecondition(
        "lattice index needs a tree-shaped template");
  }
  FAIRSQG_TRACE_SPAN("lattice_index.build");
  LatticeIndex index;
  index.num_range_vars_ = tmpl.num_range_vars();
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    index.radix_.push_back(static_cast<uint32_t>(domains.size(x) + 1));
  }
  index.radix_.resize(tmpl.num_vars(), 2);
  for (uint32_t r : index.radix_) {
    index.stride_.push_back(index.num_instances_);
    index.num_instances_ *= r;
  }
  Pass pass(g, tmpl, domains, ctx);
  FAIRSQG_RETURN_NOT_OK(pass.Run(&index));
  return index;
}

Instantiation LatticeIndex::InstanceAt(uint64_t rank) const {
  std::vector<int32_t> range(num_range_vars_);
  std::vector<uint8_t> edges(num_vars() - num_range_vars_);
  for (size_t k = 0; k < num_vars(); ++k) {
    const auto digit = static_cast<int32_t>(rank % radix_[k]);
    rank /= radix_[k];
    if (k < num_range_vars_) {
      range[k] = digit - 1;
    } else {
      edges[k - num_range_vars_] = static_cast<uint8_t>(digit);
    }
  }
  return Instantiation(range, edges);
}

std::span<const NodeId> LatticeIndex::Frontier(uint64_t rank) const {
  const auto [lo, hi] =
      std::equal_range(frontier_rank_.begin(), frontier_rank_.end(), rank);
  return {frontier_node_.data() + (lo - frontier_rank_.begin()),
          static_cast<size_t>(hi - lo)};
}

}  // namespace fairsqg
