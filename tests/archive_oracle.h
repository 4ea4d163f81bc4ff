#ifndef FAIRSQG_TESTS_ARCHIVE_ORACLE_H_
#define FAIRSQG_TESTS_ARCHIVE_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/enumerate.h"
#include "core/measures.h"
#include "core/pareto_archive.h"
#include "core/qgen_result.h"
#include "core/template_refiner.h"
#include "core/verifier.h"
#include "matching/subgraph_matcher.h"
#include "query/instance.h"

namespace fairsqg {

/// Every instance of I(Q) verified on its own by the per-instance odometer
/// (VerifyAllInstances), in odometer order. Template refinement is off,
/// and the LatticeIndex path is not involved, so these evaluations share
/// none of the optimizations the generators under test rely on.
inline std::vector<EvaluatedPtr> ReferenceEvaluations(QGenConfig config) {
  config.use_template_refinement = false;
  InstanceVerifier verifier(config);
  GenStats stats;
  return VerifyAllInstances(config, &verifier, &stats).ValueOrDie();
}

/// The feasible members of `all` folded through a ParetoArchive.
inline std::vector<EvaluatedPtr> ArchiveOf(const std::vector<EvaluatedPtr>& all,
                                           double epsilon) {
  ParetoArchive archive(epsilon);
  for (const EvaluatedPtr& e : all) {
    if (e->feasible) archive.Update(e);
  }
  return archive.SortedEntries();
}

/// The reference an archive is checked against: the ReferenceEvaluations
/// folded through a ParetoArchive.
inline std::vector<EvaluatedPtr> ReferenceArchive(const QGenConfig& config) {
  return ArchiveOf(ReferenceEvaluations(config), config.epsilon);
}

/// RfQGen's search (Fig. 3) replayed over `all`, the per-instance
/// evaluations in odometer order: depth first from the most relaxed
/// instance, with the visited set, the infeasibility cut, subtree pruning
/// and refinement hints as `config` sets them, but every evaluation read
/// from `all`. Returns the archive, and in
/// `*verified` the number of instances the search consumed.
inline std::vector<EvaluatedPtr> ReplayRfQGen(
    const QGenConfig& config, const std::vector<EvaluatedPtr>& all,
    size_t* verified) {
  const QueryTemplate& tmpl = *config.tmpl;
  const VariableDomains& domains = *config.domains;
  std::unordered_map<Instantiation, EvaluatedPtr, Instantiation::Hasher> by_inst;
  for (const EvaluatedPtr& e : all) by_inst.emplace(e->inst, e);
  std::unordered_set<Instantiation, Instantiation::Hasher> visited;
  ParetoArchive archive(config.epsilon);
  const double max_coverage =
      static_cast<double>(config.groups->total_constraint());
  *verified = 0;
  std::function<void(const Instantiation&)> explore =
      [&](const Instantiation& inst) {
        if (!visited.insert(inst).second) return;
        const EvaluatedPtr& e = by_inst.at(inst);
        ++*verified;
        if (!e->feasible) return;
        archive.Update(e);
        if (config.use_subtree_pruning &&
            archive.SubtreeCovered(e->obj.diversity, max_coverage)) {
          return;
        }
        const RefinementHints hints =
            config.use_template_refinement
                ? ComputeRefinementHints(*config.graph, tmpl, domains,
                                         e->matches)
                : RefinementHints::None(tmpl);
        for (const LatticeStep& child :
             LatticeNeighbors::RefineChildren(tmpl, domains, inst, hints)) {
          explore(child.inst);
        }
      };
  explore(Instantiation::MostRelaxed(tmpl));
  return archive.SortedEntries();
}

/// Kungs's archive from the per-instance odometer (VerifyAllInstances)
/// under `config` as given: the reference of Kungs's lattice path, and the
/// generator for tests of what only per-instance verification consults
/// (the match-set cache, the per-match step budget).
inline Result<QGenResult> PerInstanceKungs(const QGenConfig& config) {
  QGenResult result;
  InstanceVerifier verifier(config);
  FAIRSQG_ASSIGN_OR_RETURN(
      std::vector<EvaluatedPtr> all,
      VerifyAllInstances(config, &verifier, &result.stats));
  result.pareto = ExactParetoSet(FeasibleOnly(all));
  return result;
}

/// "" when `archive` equals `reference` member for member — instantiation,
/// match set, objectives and feasibility — else the first difference.
inline std::string CompareArchives(const QueryTemplate& tmpl,
                                   const VariableDomains& domains,
                                   const std::vector<EvaluatedPtr>& archive,
                                   const std::vector<EvaluatedPtr>& reference) {
  if (archive.size() != reference.size()) {
    return "archive has " + std::to_string(archive.size()) +
           " members, reference " + std::to_string(reference.size());
  }
  for (size_t i = 0; i < archive.size(); ++i) {
    const EvaluatedInstance& a = *archive[i];
    const EvaluatedInstance& r = *reference[i];
    if (a.inst != r.inst || a.matches != r.matches ||
        a.obj.diversity != r.obj.diversity ||
        a.obj.coverage != r.obj.coverage || a.feasible != r.feasible) {
      return "member " + std::to_string(i) + " is " +
             a.inst.ToString(tmpl, domains) + ", reference " +
             r.inst.ToString(tmpl, domains);
    }
  }
  return "";
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
