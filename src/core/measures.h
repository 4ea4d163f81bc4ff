#ifndef FAIRSQG_CORE_MEASURES_H_
#define FAIRSQG_CORE_MEASURES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/groups.h"
#include "graph/graph.h"

namespace fairsqg {

/// Pluggable relevance score r(u_o, v) in [0, 1] (paper Section III-A; in
/// practice an entity-linkage or impact score — our default is degree
/// centrality normalized over the output label's nodes).
using RelevanceFn = std::function<double(const Graph&, NodeId)>;

/// Parameters of the Max-sum diversity measure.
struct DiversityConfig {
  /// Relevance/dissimilarity balance λ in [0, 1].
  double lambda = 0.5;
  /// Custom relevance; null selects normalized degree centrality.
  RelevanceFn relevance;
};

/// \brief Evaluates the paper's Max-sum diversity
///   δ(q, G) = (1-λ) Σ_{v∈q(G)} r(u_o, v)
///           + (2λ / (|V_uo|-1)) Σ_{v<v'∈q(G)} d(v, v')
/// for match sets over one output label.
///
/// The pairwise distance d(v, v') in [0, 1] follows Section V: the
/// normalized distance of the nodes' matching attributes — per attribute of
/// the label, numeric values differ by |a-b|/range and categorical values by
/// the normalized edit distance of their strings (memoized per value pair);
/// attributes missing on one side, or of different types, count as fully
/// different. Per-node attribute cells are precomputed once per shared
/// Index (see BuildIndex) and reused read-only by every evaluator holding
/// it, so a distance evaluation is O(#attrs) and parallel workers skip the
/// precompute. At λ ≤ 0 the pair term is zero, so BuildIndex skips the
/// attribute columns and δ is the relevance sum alone.
///
/// Because d is a mean over attributes, the pair sum of a set splits per
/// attribute into closed forms — sorted-gap sums for numeric values, a
/// value-count histogram for categorical ones, and pair counts for missing
/// or type-mismatched values — so scoring a set of n nodes costs
/// O(n log n + m_a²) per attribute a (m_a: distinct strings of a in the
/// set) instead of O(n²) distance evaluations. δ depends only on the set.
class DiversityEvaluator {
 public:
  /// \brief Immutable per-(graph, output label, relevance fn) precompute:
  /// per-slot relevance and, when `columns` is set, the attribute columns
  /// (per-node attribute cells, ranked numeric values, interned categorical
  /// values with dense normalized-edit-distance matrices, numeric ranges).
  /// Built once by BuildIndex and shared read-only across evaluators —
  /// parallel workers reuse one index instead of redoing the
  /// O(|V_label|·#attrs + Σk²) precompute per verifier.
  ///
  /// An index built for λ ≤ 0 holds label, label_size, max_label_degree,
  /// node_slot and relevance only: `columns` is false and every attribute
  /// vector is empty. It scores relevance sums exactly as a full index
  /// does; only evaluators at λ ≤ 0 may hold it.
  struct Index {
    /// How a node holds one attribute. kOther is a present value that is
    /// neither a number nor a string (a NaN number).
    enum class Kind : uint8_t { kMissing, kNumeric, kString, kOther };

    /// One node's value of one attribute: for kNumeric, `id` ranks the
    /// value in attr_numbers; for kString, it interns it in attr_values.
    struct Cell {
      Kind kind = Kind::kMissing;
      int32_t id = -1;
    };

    LabelId label = 0;
    size_t label_size = 0;
    double max_label_degree = 0;
    /// Whether attrs through cells below were built (λ > 0).
    bool columns = false;

    std::vector<AttrId> attrs;       // Attributes of the label, sorted.
    std::vector<double> attr_range;  // Numeric value range per attr.
    // Distinct numeric values per attribute, ascending.
    std::vector<std::vector<double>> attr_numbers;
    std::vector<std::vector<std::string>> attr_values;  // Interned strings.
    // Dense normalized-edit-distance matrix per categorical attribute,
    // indexed [value_a * k + value_b]; precomputed so scoring never
    // touches strings.
    std::vector<std::vector<double>> string_dist;

    std::vector<int32_t> node_slot;  // NodeId -> slot or -1.
    // Attribute-major: cells[attr * label_size + slot], so scoring one
    // attribute over a set reads one column.
    std::vector<Cell> cells;
    std::vector<double> relevance;   // Per slot.

    const Cell& cell(size_t attr, int32_t slot) const {
      return cells[attr * label_size + static_cast<size_t>(slot)];
    }
  };

  /// Builds the shared precompute for `output_label` and `config`: the
  /// relevance of `config.relevance` (null selects normalized degree
  /// centrality, the default measure), and the attribute columns only when
  /// config.lambda > 0. An index with columns serves evaluators at any λ,
  /// one without only those at λ ≤ 0.
  static std::shared_ptr<const Index> BuildIndex(const Graph& g,
                                                 LabelId output_label,
                                                 const DiversityConfig& config);

  DiversityEvaluator(const Graph& g, LabelId output_label,
                     DiversityConfig config);

  /// Shares a prebuilt index. `config.relevance` is ignored — the index's
  /// relevance function was baked in at BuildIndex time. CHECK-fails when
  /// config.lambda > 0 and the index has no attribute columns.
  DiversityEvaluator(std::shared_ptr<const Index> index,
                     DiversityConfig config);

  /// The additive decomposition of δ: δ = (1-λ)·relevance_sum +
  /// (2λ/(|V_uo|-1))·pair_sum.
  struct Parts {
    double relevance_sum = 0;
    double pair_sum = 0;
  };

  /// δ(q, G) for the match set `matches` (exact; see ComputeParts).
  double Diversity(const NodeSet& matches) const;

  /// Exact decomposition of `matches`, computed per attribute a of the
  /// label: with p numeric values sorted ascending, Σ_{i<j} |x_j - x_i| =
  /// Σ_i (2i-p+1)·x_i, divided by a's range; categorical values contribute
  /// Σ_{u<v} h_u·h_v·dist(u, v) over their histogram h; every pair with the
  /// value missing on exactly one side, or of different types (e.g. numeric
  /// on one side and a string on the other), contributes 1. pair_sum is the
  /// sum of those terms over |A|. Cost O(n log n + m_a²) per attribute for
  /// n = |matches| and m_a distinct strings of a in the set; the pairwise
  /// definition over Distance agrees to rounding. The result depends only
  /// on the set, not on how it was derived.
  Parts ComputeParts(const NodeSet& matches) const;

  /// δ from a decomposition.
  double Combine(const Parts& parts) const;

  /// Relevance r(u_o, v).
  double Relevance(NodeId v) const;

  /// Pairwise distance d(a, b) in [0, 1]. A checked error (CHECK-fail) on
  /// an index built for λ ≤ 0, which has no attribute columns: it never
  /// reads as 0. Callers at λ ≤ 0 need no distance, since the pair term is
  /// zero.
  double Distance(NodeId a, NodeId b) const;

  /// Upper bound of δ over any match set: |V_uo| (paper Section III-A).
  double MaxDiversity() const {
    return static_cast<double>(index_->label_size);
  }

  LabelId output_label() const { return index_->label; }
  double lambda() const { return config_.lambda; }

  /// The shared precompute (pass into other evaluators / QGenConfig).
  const std::shared_ptr<const Index>& index() const { return index_; }

 private:
  std::shared_ptr<const Index> index_;
  DiversityConfig config_;

  double AttrDistance(size_t attr, int32_t slot_a, int32_t slot_b) const;
};

/// Result of evaluating the coverage measure for one instance.
struct CoverageResult {
  /// f(q, P) = clamp(C - Σ_i | |q(G) ∩ P_i| - c_i |, 0, C).
  double value = 0;
  /// Feasible iff |q(G) ∩ P_i| >= c_i for every group.
  bool feasible = false;
  std::vector<size_t> per_group;
};

/// \brief Evaluates the paper's group-coverage measure f(q, P) (Section
/// III-A) and the feasibility predicate.
class CoverageEvaluator {
 public:
  explicit CoverageEvaluator(const GroupSet& groups) : groups_(&groups) {}

  CoverageResult Evaluate(const NodeSet& matches) const;

  /// Upper bound of f: C = Σ c_i.
  double MaxCoverage() const {
    return static_cast<double>(groups_->total_constraint());
  }

 private:
  const GroupSet* groups_;
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_MEASURES_H_
