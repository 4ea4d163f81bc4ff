#include "core/verifier.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace fairsqg {

namespace {

/// Builds the diversity evaluator from the config's shared index when one
/// is provided (parallel runs build it once per run), else from scratch.
DiversityEvaluator MakeDiversity(const QGenConfig& config) {
  const LabelId label = config.tmpl->node_label(config.tmpl->output_node());
  if (config.diversity_index != nullptr) {
    FAIRSQG_CHECK(config.diversity_index->label == label)
        << "diversity_index built for a different output label";
    return DiversityEvaluator(config.diversity_index, config.diversity);
  }
  return DiversityEvaluator(*config.graph, label, config.diversity);
}

}  // namespace

InstanceVerifier::InstanceVerifier(const QGenConfig& config)
    : config_(&config),
      matcher_(*config.graph, config.semantics),
      diversity_(MakeDiversity(config)),
      coverage_(*config.groups) {}

EvaluatedPtr InstanceVerifier::Finish(const Instantiation& inst, NodeSet matches) {
  FAIRSQG_TRACE_SPAN_FULL("evaluate");
  DiversityEvaluator::Parts parts = diversity_.ComputeParts(matches);
  auto out = std::make_shared<EvaluatedInstance>();
  out->inst = inst;
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

EvaluatedPtr InstanceVerifier::RecordAbort() {
  ++aborted_matches_;
  ++timed_out_instances_;
  return nullptr;
}

bool InstanceVerifier::LookupCached(const QueryInstance& q, NodeSet* matches,
                                    std::string* key) {
  if (config_->match_cache == nullptr) return false;
  *key = MatchSetCache::KeyFor(q);
  if (config_->match_cache->Lookup(*key, matches)) {
    ++cache_hits_;
    key->clear();
    return true;
  }
  ++cache_misses_;
  return false;
}

EvaluatedPtr InstanceVerifier::Verify(const Instantiation& inst) {
  FAIRSQG_TRACE_SPAN_FULL("verify");
  Timer timer;
  NodeSet matches;
  std::string key;
  QueryInstance q =
      QueryInstance::Materialize(*config_->tmpl, *config_->domains, inst);
  if (!LookupCached(q, &matches, &key)) {
    CandidateSpace candidates = [&] {
      FAIRSQG_TRACE_SPAN_FULL("candidate_build");
      return CandidateSpace::Build(
          *config_->graph, q,
          /*degree_filter=*/config_->semantics == MatchSemantics::kIsomorphism,
          config_->use_candidate_index, &matcher_.mutable_stats());
    }();
    MatchResult res =
        matcher_.MatchOutputBounded(q, candidates, config_->run_context);
    if (res.outcome == MatchOutcome::kAborted) {
      verify_seconds_ += timer.ElapsedSeconds();
      return RecordAbort();  // Partial matches: never cached.
    }
    matches = std::move(res.matches);
    if (!key.empty()) config_->match_cache->Insert(key, matches);
  }
  EvaluatedPtr out = Finish(inst, std::move(matches));
  verify_seconds_ += timer.ElapsedSeconds();
  return out;
}

EvaluatedPtr InstanceVerifier::VerifyPartial(const Instantiation& inst,
                                             NodeSet known,
                                             const NodeSet& untested,
                                             NodeSet* rejected) {
  FAIRSQG_TRACE_SPAN_FULL("verify");
  Timer timer;
  rejected->clear();
  if (!untested.empty()) {
    QueryInstance q =
        QueryInstance::Materialize(*config_->tmpl, *config_->domains, inst);
    CandidateSpace candidates = [&] {
      FAIRSQG_TRACE_SPAN_FULL("candidate_build");
      return CandidateSpace::Build(
          *config_->graph, q,
          /*degree_filter=*/config_->semantics == MatchSemantics::kIsomorphism,
          config_->use_candidate_index, &matcher_.mutable_stats());
    }();
    MatchResult res = matcher_.MatchOutputBounded(
        q, candidates, config_->run_context, &untested);
    if (res.outcome == MatchOutcome::kAborted) {
      verify_seconds_ += timer.ElapsedSeconds();
      return RecordAbort();
    }
    std::set_difference(untested.begin(), untested.end(), res.matches.begin(),
                        res.matches.end(), std::back_inserter(*rejected));
    NodeSet all;
    all.reserve(known.size() + res.matches.size());
    std::set_union(known.begin(), known.end(), res.matches.begin(),
                   res.matches.end(), std::back_inserter(all));
    known = std::move(all);
  }
  EvaluatedPtr out = Finish(inst, std::move(known));
  verify_seconds_ += timer.ElapsedSeconds();
  return out;
}

}  // namespace fairsqg
