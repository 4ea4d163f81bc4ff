#include "check.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "core/enum_qgen.h"
#include "core/measures.h"
#include "matching/subgraph_matcher.h"
#include "query/instance.h"

namespace fairsqg::reqbench {

namespace {

constexpr double kRelativeTolerance = 1e-9;

bool Agrees(double stored, double recomputed) {
  const double scale = std::max(std::abs(stored), std::abs(recomputed));
  return std::abs(stored - recomputed) <= kRelativeTolerance * scale;
}

/// δ by the definition: (1-λ) Σ r(v) + (2λ/(|V_uo|-1)) Σ_{v<v'} d(v, v').
double DiversityByPairs(const DiversityEvaluator& eval, const NodeSet& matches) {
  double relevance = 0;
  double pairs = 0;
  for (size_t i = 0; i < matches.size(); ++i) {
    relevance += eval.Relevance(matches[i]);
    if (eval.lambda() <= 0) continue;
    for (size_t j = i + 1; j < matches.size(); ++j) {
      pairs += eval.Distance(matches[i], matches[j]);
    }
  }
  const double label_size = eval.MaxDiversity();
  const double pair_scale =
      label_size > 1 ? 2.0 * eval.lambda() / (label_size - 1) : 0.0;
  return (1.0 - eval.lambda()) * relevance + pair_scale * pairs;
}

}  // namespace

uint64_t HashNodes(const NodeSet& nodes) {
  uint64_t h = Mix64(nodes.size());
  for (NodeId v : nodes) HashCombine(&h, Mix64(v));
  return h;
}

std::vector<MemberDigest> DigestArchive(
    const std::vector<EvaluatedPtr>& archive) {
  std::vector<MemberDigest> out;
  out.reserve(archive.size());
  for (const EvaluatedPtr& m : archive) {
    out.push_back({m->inst, m->obj, m->feasible, HashNodes(m->matches)});
  }
  return out;
}

Result<std::vector<EvaluatedPtr>> ReferenceArchive(QGenConfig config) {
  config.use_template_refinement = false;
  config.use_incremental_verify = false;
  FAIRSQG_ASSIGN_OR_RETURN(QGenResult result, EnumQGen::Run(config));
  return std::move(result.pareto);
}

std::string CheckArchive(const QGenConfig& config,
                         const std::vector<MemberDigest>& archive,
                         const std::vector<EvaluatedPtr>& reference) {
  if (archive.empty()) return "empty archive";
  SubgraphMatcher matcher(*config.graph, config.semantics);
  DiversityEvaluator diversity(
      *config.graph, config.tmpl->node_label(config.tmpl->output_node()),
      config.diversity);
  CoverageEvaluator coverage(*config.groups);
  for (const MemberDigest& m : archive) {
    const std::string who = m.inst.ToString(*config.tmpl, *config.domains);
    if (!m.feasible) return "infeasible member " + who;
    NodeSet matches = matcher.MatchOutput(
        QueryInstance::Materialize(*config.tmpl, *config.domains, m.inst));
    if (HashNodes(matches) != m.matches_hash) {
      return "match set differs for " + who;
    }
    const double delta = DiversityByPairs(diversity, matches);
    if (!Agrees(m.obj.diversity, delta)) {
      return "diversity of " + who + " is " + std::to_string(m.obj.diversity) +
             ", recomputed " + std::to_string(delta);
    }
    CoverageResult cov = coverage.Evaluate(matches);
    if (!cov.feasible || !Agrees(m.obj.coverage, cov.value)) {
      return "coverage of " + who + " is " + std::to_string(m.obj.coverage) +
             ", recomputed " + std::to_string(cov.value);
    }
  }
  for (const EvaluatedPtr& r : reference) {
    const bool covered = std::any_of(
        archive.begin(), archive.end(), [&](const MemberDigest& m) {
          return EpsilonDominates(m.obj, r->obj, config.epsilon + 1e-9);
        });
    if (!covered) {
      return "reference member " +
             r->inst.ToString(*config.tmpl, *config.domains) +
             " is not epsilon-covered";
    }
  }
  return "";
}

}  // namespace fairsqg::reqbench
