#include "matching/lattice_index.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "obs/trace.h"

namespace fairsqg {

namespace {

using Coord = int16_t;

/// Antichain computations between two hard-expiry polls, per worker.
constexpr uint32_t kPollInterval = 256;

/// Output candidates a worker claims from the shared cursor at a time: a
/// chunk.
constexpr size_t kClaim = 16;

/// First coordinate of the element that ends a published antichain; no
/// binding takes it (levels start at -1).
constexpr Coord kEnd = std::numeric_limits<Coord>::min();

/// The published form of every empty antichain.
constexpr Coord kEmpty[] = {kEnd};

/// Append-only storage for one worker's published antichains. Blocks never
/// move, so other workers read an antichain while its owner keeps
/// appending.
class Arena {
 public:
  Coord* Allocate(size_t n) {
    if (n > left_) {
      const size_t size = std::max(kBlockCoords, n);
      blocks_.push_back(std::make_unique_for_overwrite<Coord[]>(size));
      next_ = blocks_.back().get();
      left_ = size;
    }
    Coord* out = next_;
    next_ += n;
    left_ -= n;
    return out;
  }

 private:
  static constexpr size_t kBlockCoords = size_t{1} << 14;

  std::vector<std::unique_ptr<Coord[]>> blocks_;
  Coord* next_ = nullptr;
  size_t left_ = 0;
};

}  // namespace

/// The bottom-up pass. Antichains are flat arrays of `width_` coordinates
/// per element; every element is "top" (the most refined level, or edge
/// present) outside the subtree that produced it, so combining two
/// subtrees' options is a coordinatewise min and their product stays an
/// antichain. A template without variables stores one dummy coordinate
/// (always 0) so that elements stay countable.
///
/// Workers claim chunks of u_o's candidates from a shared cursor and
/// compute antichains lazily, depth first, each with its own scratch. The
/// memo of A(c, w) is shared: a worker copies an antichain into its own
/// arena, terminated by a kEnd element, and publishes the copy's address
/// in the (c, w) slot with one compare-and-swap. A(c, w) depends on c and w
/// alone, so two workers racing on a slot compute the same antichain, and
/// whichever copy is published is correct. Each worker files its own
/// frontier entries, and File sorts them together, so the index does not
/// depend on the number of workers or on who computed what. Without a
/// pool, worker 0 runs the same body inline.
class LatticeIndex::Pass {
 public:
  Pass(const Graph& g, const QueryTemplate& tmpl,
       const VariableDomains& domains, RunContext* ctx)
      : g_(&g), tmpl_(&tmpl), domains_(&domains), ctx_(ctx) {}

  Status Run(ThreadPool* pool, LatticeIndex* out) {
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

    const size_t num_candidates =
        g_->NodesWithLabel(tmpl_->node_label(tmpl_->output_node())).size();
    chunks_.resize((num_candidates + kClaim - 1) / kClaim);
    workers_.resize(pool != nullptr ? pool->num_workers() : 1);
    for (Worker& worker : workers_) worker.scratch.resize(tmpl_->num_nodes());
    Poll();
    if (pool == nullptr) {
      Work(*out, 0);
    } else {
      pool->Run([&](size_t w) { Work(*out, w); });
    }
    if (Expired()) {
      return Status::DeadlineExceeded("lattice index pass stopped early");
    }
    File(out);
    return Status::OK();
  }

 private:
  /// A child of a query node in the spanning tree rooted at u_o, reached
  /// over one template edge.
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
  /// Per query node working buffers. The spanning tree puts each query node
  /// on a worker's recursion stack at most once, so one set per node
  /// suffices.
  struct Scratch {
    std::vector<Coord> partial, next, options;
    size_t count = 0;
  };
  /// A frontier entry: an output candidate and the rank of one element of
  /// its antichain.
  struct Entry {
    uint64_t rank;
    NodeId node;
  };
  /// Everything one worker writes but the memo and its claimed chunks.
  struct Worker {
    std::vector<Scratch> scratch;
    Arena arena;
    uint32_t ticks = 0;
    std::vector<Entry> frontier;
  };
  /// Where one claim of kClaim candidates filed its entries:
  /// workers_[worker].frontier[begin, end).
  struct Chunk {
    size_t worker = 0;
    size_t begin = 0;
    size_t end = 0;
  };
  /// A(c, w) once published: elements up to the kEnd element; null until
  /// some worker has computed it.
  using Memo = std::unique_ptr<std::atomic<const Coord*>[]>;

  /// Roots a breadth-first spanning tree of the template at u_o and files
  /// each node's literals. An edge outside the tree is left out, and its
  /// edge variable, if any, stays at "present" (top_) in every element.
  Status Orient() {
    const size_t n = tmpl_->num_nodes();
    nodes_.assign(n, NodeInfo{});
    memo_.resize(n);
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
        // Value-initialised: every slot starts null.
        memo_[c] = std::make_unique<std::atomic<const Coord*>[]>(
            g_->num_nodes());
      }
    }
    if (reached != n) {
      return Status::FailedPrecondition(
          "lattice index needs a connected template");
    }
    return Status::OK();
  }

  /// Worker `w` claims chunks of u_o's candidates until none is left,
  /// filing each candidate's antichain elements in its own frontier and
  /// recording where the chunk's entries went.
  void Work(const LatticeIndex& index, size_t w) {
    Worker* worker = &workers_[w];
    const QNodeId root = tmpl_->output_node();
    const NodeSet& candidates = g_->NodesWithLabel(tmpl_->node_label(root));
    const Scratch& s = worker->scratch[root];
    for (;;) {
      const size_t chunk = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks_.size()) return;
      chunks_[chunk] = {w, worker->frontier.size(), 0};
      const size_t end = std::min((chunk + 1) * kClaim, candidates.size());
      for (size_t i = chunk * kClaim; i < end; ++i) {
        Compute(worker, root, candidates[i]);
        if (Expired()) return;
        for (size_t k = 0; k < s.count; ++k) {
          worker->frontier.push_back(
              {RankOf(index, &s.partial[k * width_]), candidates[i]});
        }
      }
      chunks_[chunk].end = worker->frontier.size();
    }
  }

  /// Files the workers' entries into out's arrays, sorted by (rank, node).
  /// The chunks in claim order list the entries by ascending node, so a
  /// stable sort by rank alone gives that order: a least-significant-digit
  /// radix sort, one byte of the rank per pass (one pass for the 162 ranks
  /// of a dbp request template), linear in the entries.
  void File(LatticeIndex* out) const {
    std::vector<Entry> entries;
    for (const Chunk& c : chunks_) {
      const std::vector<Entry>& from = workers_[c.worker].frontier;
      entries.insert(entries.end(), from.begin() + c.begin,
                     from.begin() + c.end);
    }
    std::vector<Entry> sorted(entries.size());
    const uint64_t max_rank = out->num_instances_ - 1;
    for (int shift = 0; shift < 64 && (max_rank >> shift) != 0; shift += 8) {
      std::array<size_t, 257> next{};
      for (const Entry& e : entries) ++next[((e.rank >> shift) & 0xff) + 1];
      std::partial_sum(next.begin(), next.end(), next.begin());
      for (const Entry& e : entries) sorted[next[(e.rank >> shift) & 0xff]++] = e;
      entries.swap(sorted);
    }
    out->frontier_rank_.reserve(entries.size());
    out->frontier_node_.reserve(entries.size());
    for (const Entry& e : entries) {
      out->frontier_rank_.push_back(e.rank);
      out->frontier_node_.push_back(e.node);
    }
  }

  void Poll() {
    if (ctx_ != nullptr && ctx_->HardExpired()) {
      expired_.store(true, std::memory_order_relaxed);
    }
  }

  /// Whether some worker saw the context expire. The flag only ever turns
  /// on, so a computation cut short is never published: the check after
  /// it sees the flag too.
  bool Expired() const { return expired_.load(std::memory_order_relaxed); }

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

  /// A(u, w) into the worker's scratch[u].partial (scratch[u].count
  /// elements; none when w cannot host u's subtree).
  void Compute(Worker* worker, QNodeId u, NodeId w) {
    Scratch& s = worker->scratch[u];
    s.count = 0;
    s.partial.clear();
    if (++worker->ticks % kPollInterval == 0) Poll();
    if (Expired()) return;
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
      size_t num_options = Options(worker, c, w, &s.options);
      if (Expired()) return;
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
  size_t Options(Worker* worker, const Child& c, NodeId w,
                 std::vector<Coord>* out) {
    out->clear();
    size_t count = 0;
    bool at_top = false;
    const LabelId child_label = nodes_[c.node].label;
    const auto adjacency = c.outgoing ? g_->OutEdges(w) : g_->InEdges(w);
    for (const AdjEntry& e : adjacency) {
      if (e.edge_label != c.edge_label) continue;
      if (g_->node_label(e.neighbor) != child_label) continue;
      const Coord* elems = Get(worker, c.node, e.neighbor);
      if (elems == nullptr) return 0;  // Expired.
      for (const Coord* v = elems; v[0] != kEnd; v += width_) {
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

  /// Memoised A(c, w) for a non-root query node, or null when the pass
  /// expired before it was computed.
  const Coord* Get(Worker* worker, QNodeId c, NodeId w) {
    std::atomic<const Coord*>& slot = memo_[c][w];
    const Coord* published = slot.load(std::memory_order_acquire);
    if (published != nullptr) return published;
    Compute(worker, c, w);
    if (Expired()) return nullptr;
    const Scratch& s = worker->scratch[c];
    const Coord* copy = kEmpty;
    if (s.count > 0) {
      const size_t n = s.count * width_;
      Coord* elems = worker->arena.Allocate(n + 1);
      std::copy_n(s.partial.begin(), n, elems);
      elems[n] = kEnd;
      copy = elems;
    }
    // A racing worker may have published the same antichain meanwhile;
    // everyone then reads its copy.
    if (!slot.compare_exchange_strong(published, copy,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      return published;
    }
    return copy;
  }

  const Graph* g_;
  const QueryTemplate* tmpl_;
  const VariableDomains* domains_;
  RunContext* ctx_;
  size_t width_ = 1;
  std::vector<Coord> top_;
  std::vector<NodeInfo> nodes_;
  std::vector<Memo> memo_;  // Per non-root query node, by data node.
  std::vector<Worker> workers_;
  std::vector<Chunk> chunks_;      // Each written by the worker claiming it.
  std::atomic<size_t> cursor_{0};  // Next unclaimed chunk.
  std::atomic<bool> expired_{false};
};

bool LatticeIndex::Supports(const VariableDomains& domains) {
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
                                         RunContext* ctx, ThreadPool* pool) {
  if (!Supports(domains)) {
    return Status::FailedPrecondition(
        "lattice index coordinates are 16-bit: a range domain is too large");
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
  FAIRSQG_RETURN_NOT_OK(pass.Run(pool, &index));
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
