#include "core/measures.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "obs/trace.h"

namespace fairsqg {

namespace {

using Kind = DiversityEvaluator::Index::Kind;

/// Groups `ids`, each in [0, distinct), into (id, count) runs in ascending
/// id order. A dense count costs O(p + distinct) and a sort O(p log p) for
/// p ids; the count is taken when it is no dearer. Both give the same runs.
void CountRuns(std::vector<int32_t>* ids, size_t distinct,
               std::vector<uint32_t>* counts,
               std::vector<std::pair<int32_t, uint32_t>>* runs) {
  runs->clear();
  const size_t p = ids->size();
  if (distinct <= p * static_cast<size_t>(std::bit_width(p))) {
    counts->assign(distinct, 0);
    for (int32_t id : *ids) ++(*counts)[static_cast<size_t>(id)];
    for (size_t id = 0; id < distinct; ++id) {
      if ((*counts)[id] > 0) {
        runs->emplace_back(static_cast<int32_t>(id), (*counts)[id]);
      }
    }
    return;
  }
  std::sort(ids->begin(), ids->end());
  for (int32_t id : *ids) {
    if (runs->empty() || runs->back().first != id) runs->emplace_back(id, 0);
    ++runs->back().second;
  }
}

}  // namespace

std::shared_ptr<const DiversityEvaluator::Index> DiversityEvaluator::BuildIndex(
    const Graph& g, LabelId output_label, const DiversityConfig& config) {
  FAIRSQG_TRACE_SPAN("diversity_index");
  auto index = std::make_shared<Index>();
  Index& idx = *index;
  idx.label = output_label;
  const NodeSet& nodes = g.NodesWithLabel(output_label);
  idx.label_size = nodes.size();
  for (NodeId v : nodes) {
    idx.max_label_degree =
        std::max(idx.max_label_degree, static_cast<double>(g.degree(v)));
  }
  idx.node_slot.assign(g.num_nodes(), -1);
  for (size_t slot = 0; slot < nodes.size(); ++slot) {
    idx.node_slot[nodes[slot]] = static_cast<int32_t>(slot);
  }

  // Precompute relevance per slot (degree centrality or the custom fn).
  idx.relevance.resize(nodes.size());
  for (NodeId v : nodes) {
    double r;
    if (config.relevance) {
      r = config.relevance(g, v);
    } else {
      r = idx.max_label_degree > 0
              ? static_cast<double>(g.degree(v)) / idx.max_label_degree
              : 0.0;
    }
    idx.relevance[idx.node_slot[v]] = r;
  }
  // At λ ≤ 0 δ is the relevance sum: nothing reads the columns.
  if (config.lambda <= 0) return index;
  idx.columns = true;

  // Attribute universe of the label.
  std::set<AttrId> attr_set;
  for (NodeId v : nodes) {
    for (const AttrEntry& e : g.attrs(v)) attr_set.insert(e.attr);
  }
  idx.attrs.assign(attr_set.begin(), attr_set.end());
  const size_t na = idx.attrs.size();
  idx.attr_range.assign(na, 0.0);
  idx.attr_numbers.resize(na);
  idx.attr_values.resize(na);

  // One column of cells per attribute: strings are interned in order of
  // first appearance, numbers ranked among the attribute's distinct values.
  idx.cells.assign(na * nodes.size(), Index::Cell{});
  for (size_t a = 0; a < na; ++a) {
    Index::Cell* column = &idx.cells[a * nodes.size()];
    std::map<std::string, int32_t> string_ids;
    std::vector<double> number(nodes.size());
    std::vector<double>& numbers = idx.attr_numbers[a];
    for (size_t slot = 0; slot < nodes.size(); ++slot) {
      const AttrValue* value = g.GetAttr(nodes[slot], idx.attrs[a]);
      if (value == nullptr) continue;
      Index::Cell& cell = column[slot];
      if (!value->is_numeric()) {
        auto [it, inserted] = string_ids.emplace(
            value->as_string(),
            static_cast<int32_t>(idx.attr_values[a].size()));
        if (inserted) idx.attr_values[a].push_back(value->as_string());
        cell.kind = Kind::kString;
        cell.id = it->second;
      } else if (std::isnan(value->ToNumeric())) {
        cell.kind = Kind::kOther;
      } else {
        cell.kind = Kind::kNumeric;
        number[slot] = value->ToNumeric();
        numbers.push_back(number[slot]);
      }
    }
    std::sort(numbers.begin(), numbers.end());
    numbers.erase(std::unique(numbers.begin(), numbers.end()), numbers.end());
    if (numbers.size() > 1) idx.attr_range[a] = numbers.back() - numbers.front();
    for (size_t slot = 0; slot < nodes.size(); ++slot) {
      if (column[slot].kind != Kind::kNumeric) continue;
      column[slot].id = static_cast<int32_t>(
          std::lower_bound(numbers.begin(), numbers.end(), number[slot]) -
          numbers.begin());
    }
  }

  // Dense normalized-edit-distance matrices per categorical attribute:
  // active domains of categorical attributes are small, so the O(k^2)
  // precomputation removes all string work from scoring.
  idx.string_dist.resize(na);
  for (size_t i = 0; i < na; ++i) {
    size_t k = idx.attr_values[i].size();
    if (k == 0) continue;
    idx.string_dist[i].assign(k * k, 0.0);
    for (size_t a = 0; a < k; ++a) {
      for (size_t b = a + 1; b < k; ++b) {
        double d =
            NormalizedEditDistance(idx.attr_values[i][a], idx.attr_values[i][b]);
        idx.string_dist[i][a * k + b] = d;
        idx.string_dist[i][b * k + a] = d;
      }
    }
  }
  return index;
}

DiversityEvaluator::DiversityEvaluator(const Graph& g, LabelId output_label,
                                       DiversityConfig config)
    : index_(BuildIndex(g, output_label, config)), config_(std::move(config)) {}

DiversityEvaluator::DiversityEvaluator(std::shared_ptr<const Index> index,
                                       DiversityConfig config)
    : index_(std::move(index)), config_(std::move(config)) {
  FAIRSQG_CHECK(index_ != nullptr) << "shared diversity index must be built";
  FAIRSQG_CHECK(index_->columns || config_.lambda <= 0)
      << "diversity index built for lambda <= 0 has no attribute columns";
}

double DiversityEvaluator::Relevance(NodeId v) const {
  int32_t slot = index_->node_slot[v];
  FAIRSQG_CHECK(slot >= 0) << "Relevance on non-output-label node";
  return index_->relevance[slot];
}

double DiversityEvaluator::AttrDistance(size_t attr, int32_t slot_a,
                                        int32_t slot_b) const {
  const Index::Cell& a = index_->cell(attr, slot_a);
  const Index::Cell& b = index_->cell(attr, slot_b);
  // Missing on one side, or a type mismatch: fully different.
  if (a.kind != b.kind) return 1.0;
  switch (a.kind) {
    case Kind::kNumeric: {
      const double range = index_->attr_range[attr];
      if (range <= 0) return 0.0;
      const std::vector<double>& x = index_->attr_numbers[attr];
      return std::abs(x[a.id] - x[b.id]) / range;
    }
    case Kind::kString: {
      if (a.id == b.id) return 0.0;
      const size_t k = index_->attr_values[attr].size();
      return index_->string_dist[attr][static_cast<size_t>(a.id) * k +
                                       static_cast<size_t>(b.id)];
    }
    case Kind::kMissing:
    case Kind::kOther:
      break;
  }
  return 0.0;
}

double DiversityEvaluator::Distance(NodeId a, NodeId b) const {
  FAIRSQG_CHECK(index_->columns)
      << "Distance on a diversity index built for lambda <= 0";
  if (index_->attrs.empty()) return 0.0;
  int32_t sa = index_->node_slot[a];
  int32_t sb = index_->node_slot[b];
  FAIRSQG_CHECK(sa >= 0 && sb >= 0) << "Distance on non-output-label node";
  double total = 0;
  for (size_t i = 0; i < index_->attrs.size(); ++i) {
    total += AttrDistance(i, sa, sb);
  }
  return total / static_cast<double>(index_->attrs.size());
}

DiversityEvaluator::Parts DiversityEvaluator::ComputeParts(
    const NodeSet& matches) const {
  Parts parts;
  // Resolve slots once.
  std::vector<int32_t> slots;
  slots.reserve(matches.size());
  for (NodeId v : matches) {
    int32_t slot = index_->node_slot[v];
    FAIRSQG_CHECK(slot >= 0) << "match is not an output-label node";
    parts.relevance_sum += index_->relevance[slot];
    slots.push_back(slot);
  }
  const size_t n = slots.size();
  if (config_.lambda <= 0 || index_->attrs.empty() || n < 2) return parts;

  // Σ_{v<v'} d(v, v') = Σ_a Σ_{v<v'} AttrDistance(a, v, v') / |A|: each
  // attribute's pair sum has a closed form over the set's values.
  std::vector<int32_t> numeric;  // Ranks into attr_numbers.
  std::vector<int32_t> strings;  // Interned ids.
  std::vector<uint32_t> counts;
  std::vector<std::pair<int32_t, uint32_t>> runs;  // (id, count), ascending.
  numeric.reserve(n);
  strings.reserve(n);
  double total = 0;
  for (size_t a = 0; a < index_->attrs.size(); ++a) {
    numeric.clear();
    strings.clear();
    size_t missing = 0;
    size_t other = 0;
    const Index::Cell* column = &index_->cell(a, 0);
    for (int32_t slot : slots) {
      const Index::Cell& cell = column[slot];
      switch (cell.kind) {
        case Kind::kMissing: ++missing; break;
        case Kind::kNumeric: numeric.push_back(cell.id); break;
        case Kind::kString: strings.push_back(cell.id); break;
        case Kind::kOther: ++other; break;
      }
    }
    // Fully different pairs: the value missing on exactly one side, or
    // present with different kinds.
    const size_t p = numeric.size();
    const size_t c = strings.size();
    double term = static_cast<double>(missing * (n - missing) +
                                      p * (c + other) + c * other);
    // Numeric: with x sorted ascending, Σ_{i<j} (x_j - x_i) =
    // Σ_i (2i - p + 1)·x_i, summed here gap by gap — the gap between two
    // adjacent distinct values separates below·(p - below) pairs — so every
    // term is non-negative.
    const double range = index_->attr_range[a];
    if (p > 1 && range > 0) {
      const std::vector<double>& x = index_->attr_numbers[a];
      CountRuns(&numeric, x.size(), &counts, &runs);
      double spread = 0;
      size_t below = runs[0].second;
      for (size_t j = 1; j < runs.size(); ++j) {
        spread += static_cast<double>(below * (p - below)) *
                  (x[runs[j].first] - x[runs[j - 1].first]);
        below += runs[j].second;
      }
      term += spread / range;
    }
    // Categorical: Σ_{u<v} h_u·h_v·dist(u, v) over the histogram h of the
    // set's strings (equal strings are distance 0).
    if (c > 1) {
      const size_t k = index_->attr_values[a].size();
      const std::vector<double>& dist = index_->string_dist[a];
      CountRuns(&strings, k, &counts, &runs);
      for (size_t u = 0; u < runs.size(); ++u) {
        const size_t row_base = static_cast<size_t>(runs[u].first) * k;
        double row = 0;
        for (size_t v = u + 1; v < runs.size(); ++v) {
          row += runs[v].second * dist[row_base + runs[v].first];
        }
        term += runs[u].second * row;
      }
    }
    total += term;
  }
  parts.pair_sum = total / static_cast<double>(index_->attrs.size());
  return parts;
}

double DiversityEvaluator::Combine(const Parts& parts) const {
  double pair_scale =
      index_->label_size > 1
          ? 2.0 * config_.lambda / static_cast<double>(index_->label_size - 1)
          : 0.0;
  return (1.0 - config_.lambda) * parts.relevance_sum +
         pair_scale * parts.pair_sum;
}

double DiversityEvaluator::Diversity(const NodeSet& matches) const {
  return Combine(ComputeParts(matches));
}

CoverageResult CoverageEvaluator::Evaluate(const NodeSet& matches) const {
  CoverageResult r;
  r.per_group = groups_->CoverageCounts(matches);
  r.feasible = true;
  double error = 0;
  for (size_t i = 0; i < r.per_group.size(); ++i) {
    double c = static_cast<double>(groups_->constraint(i));
    double cov = static_cast<double>(r.per_group[i]);
    if (cov < c) r.feasible = false;
    error += std::abs(cov - c);
  }
  double c_total = static_cast<double>(groups_->total_constraint());
  r.value = std::clamp(c_total - error, 0.0, c_total);
  return r;
}

}  // namespace fairsqg
