#include "core/multi_output.h"

#include <algorithm>

#include "common/timer.h"
#include "core/enumerate.h"
#include "core/pareto_archive.h"

namespace fairsqg {

MultiOutputVerifier::MultiOutputVerifier(const QGenConfig& config,
                                         std::vector<QNodeId> outputs)
    : config_(&config),
      outputs_(std::move(outputs)),
      matcher_(*config.graph, config.semantics),
      diversity_(*config.graph, config.tmpl->node_label(config.tmpl->output_node()),
                 config.diversity),
      coverage_(*config.groups) {}

Result<MultiOutputVerifier> MultiOutputVerifier::Create(
    const QGenConfig& config, std::vector<QNodeId> outputs) {
  FAIRSQG_RETURN_NOT_OK(config.Validate());
  if (outputs.empty()) {
    return Status::InvalidArgument("need at least one output node");
  }
  std::sort(outputs.begin(), outputs.end());
  outputs.erase(std::unique(outputs.begin(), outputs.end()), outputs.end());
  const QueryTemplate& tmpl = *config.tmpl;
  LabelId label = tmpl.node_label(tmpl.output_node());
  for (QNodeId u : outputs) {
    if (u >= tmpl.num_nodes()) {
      return Status::InvalidArgument("output node out of range");
    }
    if (tmpl.node_label(u) != label) {
      return Status::InvalidArgument(
          "all output nodes must share the primary output node's label");
    }
  }
  return MultiOutputVerifier(config, std::move(outputs));
}

EvaluatedPtr MultiOutputVerifier::Verify(const Instantiation& inst) {
  QueryInstance q =
      QueryInstance::Materialize(*config_->tmpl, *config_->domains, inst);
  CandidateSpace candidates = CandidateSpace::Build(*config_->graph, q);

  NodeSet matches;
  for (QNodeId u : outputs_) {
    NodeSet part = matcher_.MatchNode(q, candidates, u);
    NodeSet merged;
    merged.reserve(matches.size() + part.size());
    std::set_union(matches.begin(), matches.end(), part.begin(), part.end(),
                   std::back_inserter(merged));
    matches = std::move(merged);
  }

  auto out = std::make_shared<EvaluatedInstance>();
  out->inst = inst;
  DiversityEvaluator::Parts parts = diversity_.ComputeParts(matches);
  out->relevance_sum = parts.relevance_sum;
  out->pair_sum = parts.pair_sum;
  out->obj.diversity = diversity_.Combine(parts);
  CoverageResult cov = coverage_.Evaluate(matches);
  out->obj.coverage = cov.value;
  out->feasible = cov.feasible;
  out->group_coverage = std::move(cov.per_group);
  out->matches = std::move(matches);
  out->verify_seq = verify_seq_++;
  return out;
}

Result<QGenResult> MultiOutputEnumQGen(const QGenConfig& config,
                                       std::vector<QNodeId> outputs) {
  FAIRSQG_ASSIGN_OR_RETURN(MultiOutputVerifier verifier,
                           MultiOutputVerifier::Create(config, std::move(outputs)));
  Timer timer;
  QGenResult result;
  InstantiationEnumerator it(*config.tmpl, *config.domains);
  if (it.SpaceSize() > kMaxEnumeratedInstances) {
    return Status::FailedPrecondition("instance space too large to enumerate");
  }
  ParetoArchive archive(config.epsilon);
  RunContext* ctx = config.run_context;
  Instantiation inst;
  while (it.Next(&inst)) {
    if (ctx != nullptr && ctx->PollVerification()) {
      result.stats.deadline_exceeded = true;
      break;
    }
    EvaluatedPtr e = verifier.Verify(inst);
    ++result.stats.generated;
    ++result.stats.verified;
    if (e->feasible) {
      ++result.stats.feasible;
      archive.Update(std::move(e));
    }
  }
  result.pareto = archive.SortedEntries();
  result.stats.total_seconds = timer.ElapsedSeconds();
  FAIRSQG_RETURN_NOT_OK(ApplyExpiryPolicy(config, result.stats));
  return result;
}

}  // namespace fairsqg
