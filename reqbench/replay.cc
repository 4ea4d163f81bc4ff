#include "replay.h"

#include <memory>
#include <utility>

#include "core/enumerate.h"
#include "core/pareto_archive.h"
#include "core/template_refiner.h"
#include "matching/candidate_space.h"
#include "matching/subgraph_matcher.h"
#include "query/instance.h"

namespace fairsqg::reqbench {

void ReplayCounts::Add(const ReplayCounts& other) {
  instances += other.instances;
  candidates_calls += other.candidates_calls;
  match_calls += other.match_calls;
  output_nodes += other.output_nodes;
  diversity_calls += other.diversity_calls;
  diversity_pairs += other.diversity_pairs;
  hints_calls += other.hints_calls;
  archive_updates += other.archive_updates;
  archive_accepts += other.archive_accepts;
}

ReplayCounts ReplayRequest(const QGenConfig& config, bool with_hints,
                           SpanRecorder* spans, uint64_t request) {
  ScopedSpan replay(spans, "replay", request);
  ReplayCounts counts;
  const Graph& g = *config.graph;
  SubgraphMatcher matcher(g, config.semantics);
  DiversityEvaluator diversity(g, config.tmpl->node_label(config.tmpl->output_node()),
                               config.diversity);
  CoverageEvaluator coverage(*config.groups);
  ParetoArchive archive(config.epsilon);
  const bool degree_filter = config.semantics == MatchSemantics::kIsomorphism;

  InstantiationEnumerator it(*config.tmpl, *config.domains);
  Instantiation inst;
  while (it.Next(&inst)) {
    ++counts.instances;
    QueryInstance q =
        QueryInstance::Materialize(*config.tmpl, *config.domains, inst);
    CandidateSpace candidates;
    {
      ScopedSpan s(spans, "matching.candidates", request);
      candidates = CandidateSpace::Build(g, q, degree_filter,
                                         config.use_candidate_index);
    }
    ++counts.candidates_calls;
    NodeSet matches;
    {
      ScopedSpan s(spans, "matching.match", request);
      matches = matcher.MatchOutput(q, candidates);
    }
    ++counts.match_calls;
    const double n = static_cast<double>(matches.size());
    counts.output_nodes += matches.size();
    DiversityEvaluator::Parts parts;
    {
      ScopedSpan s(spans, "core.diversity", request);
      parts = diversity.ComputeParts(matches);
    }
    ++counts.diversity_calls;
    if (diversity.lambda() > 0) counts.diversity_pairs += n * (n - 1) / 2;
    CoverageResult cov;
    {
      ScopedSpan s(spans, "core.coverage", request);
      cov = coverage.Evaluate(matches);
    }
    if (!cov.feasible) continue;
    if (with_hints) {
      ScopedSpan s(spans, "core.refine_hints", request);
      RefinementHints hints =
          ComputeRefinementHints(g, *config.tmpl, *config.domains, matches);
      ++counts.hints_calls;
    }
    auto evaluated = std::make_shared<EvaluatedInstance>();
    evaluated->inst = inst;
    evaluated->obj = {diversity.Combine(parts), cov.value};
    evaluated->relevance_sum = parts.relevance_sum;
    evaluated->pair_sum = parts.pair_sum;
    evaluated->feasible = true;
    evaluated->group_coverage = std::move(cov.per_group);
    evaluated->matches = std::move(matches);
    UpdateOutcome outcome;
    {
      ScopedSpan s(spans, "core.archive", request);
      outcome = archive.Update(std::move(evaluated));
    }
    ++counts.archive_updates;
    if (Accepted(outcome)) ++counts.archive_accepts;
  }
  return counts;
}

}  // namespace fairsqg::reqbench
