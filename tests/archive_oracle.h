#ifndef FAIRSQG_TESTS_ARCHIVE_ORACLE_H_
#define FAIRSQG_TESTS_ARCHIVE_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/enum_qgen.h"
#include "core/measures.h"
#include "matching/subgraph_matcher.h"
#include "query/instance.h"

namespace fairsqg {

/// The reference an archive is checked against: serial EnumQGen with
/// template refinement and incVerify off, so it shares neither of the
/// optimizations the generators under test rely on.
inline std::vector<EvaluatedPtr> ReferenceArchive(QGenConfig config) {
  config.use_template_refinement = false;
  config.use_incremental_verify = false;
  return EnumQGen::Run(config).ValueOrDie().pareto;
}

/// δ by the definition: (1-λ) Σ r(v) + (2λ/(|V_uo|-1)) Σ_{v<v'} d(v, v').
inline double DiversityByPairs(const DiversityEvaluator& eval,
                               const NodeSet& matches) {
  double relevance = 0;
  double pairs = 0;
  for (size_t i = 0; i < matches.size(); ++i) {
    relevance += eval.Relevance(matches[i]);
    for (size_t j = i + 1; j < matches.size(); ++j) {
      pairs += eval.Distance(matches[i], matches[j]);
    }
  }
  const double label_size = eval.MaxDiversity();
  const double pair_scale =
      label_size > 1 ? 2.0 * eval.lambda() / (label_size - 1) : 0.0;
  return (1.0 - eval.lambda()) * relevance + pair_scale * pairs;
}

/// Checks a generator's archive from scratch: every member is feasible,
/// its match set equals a fresh MatchOutput of its instantiation, its
/// (δ, f) agree with a pairwise recomputation to 1e-9 (relative), and
/// every member of `reference` is ε-covered. Returns the first violation,
/// or "" when the archive passes.
inline std::string CheckArchive(const QGenConfig& config,
                                const std::vector<EvaluatedPtr>& archive,
                                const std::vector<EvaluatedPtr>& reference) {
  auto agrees = [](double stored, double recomputed) {
    const double scale = std::max(std::abs(stored), std::abs(recomputed));
    return std::abs(stored - recomputed) <= 1e-9 * scale;
  };
  if (archive.empty()) return "empty archive";
  SubgraphMatcher matcher(*config.graph, config.semantics);
  DiversityEvaluator diversity(
      *config.graph, config.tmpl->node_label(config.tmpl->output_node()),
      config.diversity);
  CoverageEvaluator coverage(*config.groups);
  for (const EvaluatedPtr& m : archive) {
    const std::string who = m->inst.ToString(*config.tmpl, *config.domains);
    if (!m->feasible) return "infeasible member " + who;
    NodeSet matches = matcher.MatchOutput(
        QueryInstance::Materialize(*config.tmpl, *config.domains, m->inst));
    if (matches != m->matches) return "match set differs for " + who;
    const double delta = DiversityByPairs(diversity, matches);
    if (!agrees(m->obj.diversity, delta)) {
      return "diversity of " + who + " is " + std::to_string(m->obj.diversity) +
             ", recomputed " + std::to_string(delta);
    }
    CoverageResult cov = coverage.Evaluate(matches);
    if (!cov.feasible || !agrees(m->obj.coverage, cov.value)) {
      return "coverage of " + who + " is " + std::to_string(m->obj.coverage) +
             ", recomputed " + std::to_string(cov.value);
    }
  }
  for (const EvaluatedPtr& r : reference) {
    const bool covered =
        std::any_of(archive.begin(), archive.end(), [&](const EvaluatedPtr& m) {
          return EpsilonDominates(m->obj, r->obj, config.epsilon + 1e-9);
        });
    if (!covered) {
      return "reference member " +
             r->inst.ToString(*config.tmpl, *config.domains) +
             " is not epsilon-covered";
    }
  }
  return "";
}

}  // namespace fairsqg

#endif  // FAIRSQG_TESTS_ARCHIVE_ORACLE_H_
