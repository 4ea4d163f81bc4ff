#include "core/verifier.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/fault_injection.h"
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

/// How a verification context bounds the instance (Lemma 2).
enum class Direction {
  kFull,    // No comparable context: verify from scratch.
  kRefine,  // The instance refines the context: matches ⊆ context's.
  kRelax,   // The context refines the instance: matches ⊇ context's.
};

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

EvaluatedPtr InstanceVerifier::Verify(const Instantiation& inst,
                                      const VerifyContext* ctx,
                                      CandidateSpace* out_candidates) {
  FAIRSQG_TRACE_SPAN_FULL("verify");
  Timer timer;
  Direction dir = Direction::kFull;
  if (ctx != nullptr && config_->use_incremental_verify) {
    if (inst.Refines(ctx->eval->inst)) {
      dir = Direction::kRefine;
    } else if (ctx->eval->inst.Refines(inst)) {
      dir = Direction::kRelax;
    }
  }
  NodeSet matches;
  std::string key;
  QueryInstance q =
      QueryInstance::Materialize(*config_->tmpl, *config_->domains, inst);
  const bool hit = LookupCached(q, &matches, &key);
  if (!hit || out_candidates != nullptr) {
    CandidateSpace candidates = [&] {
      FAIRSQG_TRACE_SPAN_FULL("candidate_build");
      if (dir == Direction::kRefine && ctx->cands != nullptr) {
        return CandidateSpace::DeriveRefined(
            *config_->graph, q, ctx->eval->inst, *ctx->cands,
            config_->use_candidate_index, &matcher_.mutable_stats());
      }
      return CandidateSpace::Build(
          *config_->graph, q,
          /*degree_filter=*/config_->semantics ==
              MatchSemantics::kIsomorphism,
          config_->use_candidate_index, &matcher_.mutable_stats());
    }();
    if (!hit) {
      // Output candidates to test (Lemma 2): a refinement's matches lie
      // within the context's; a relaxation keeps every context match,
      // so only the output candidates outside them need testing.
      const NodeSet* restrict = nullptr;
      NodeSet untested;
      if (dir == Direction::kRefine) {
        restrict = &ctx->eval->matches;
      } else if (dir == Direction::kRelax) {
        const NodeSet& base = candidates.of(q.output_node());
        const NodeSet& known = ctx->eval->matches;
        // Fault site: allocation throttling — a kFail here skips the
        // reserve hints; the result must stay byte-identical, only
        // reallocation behaviour changes.
        if (!FAIRSQG_FAULT_POINT("verifier.reserve")) {
          untested.reserve(base.size());
        }
        std::set_difference(base.begin(), base.end(), known.begin(),
                            known.end(), std::back_inserter(untested));
        restrict = &untested;
      }
      MatchResult res = matcher_.MatchOutputBounded(
          q, candidates, config_->run_context, restrict);
      if (res.outcome == MatchOutcome::kAborted) {
        verify_seconds_ += timer.ElapsedSeconds();
        return RecordAbort();  // Partial matches: never cached.
      }
      matches = std::move(res.matches);
      if (dir == Direction::kRelax) {
        const NodeSet& known = ctx->eval->matches;
        NodeSet all;
        if (!FAIRSQG_FAULT_POINT("verifier.reserve")) {
          all.reserve(matches.size() + known.size());
        }
        std::set_union(matches.begin(), matches.end(), known.begin(),
                       known.end(), std::back_inserter(all));
        matches = std::move(all);
      }
      if (!key.empty()) config_->match_cache->Insert(key, matches);
    }
    if (out_candidates != nullptr) *out_candidates = std::move(candidates);
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
