#include "core/verifier.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/sweep_verifier.h"
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
      coverage_(*config.groups) {
  if (config.use_sweep_verify) {
    sweep_ = std::make_unique<SweepVerifier>(config);
  }
}

InstanceVerifier::~InstanceVerifier() = default;

bool InstanceVerifier::SweepAllowed() const {
  return sweep_ != nullptr &&
         (config_->run_context == nullptr ||
          config_->run_context->match_step_limit() == 0);
}

bool InstanceVerifier::ServeSwept(const Instantiation& inst, NodeSet* matches) {
  return sweep_ != nullptr && sweep_->Serve(inst, matches);
}

uint64_t InstanceVerifier::sweep_chains() const {
  return sweep_ != nullptr ? sweep_->chains() : 0;
}

uint64_t InstanceVerifier::sweep_instances() const {
  return sweep_ != nullptr ? sweep_->instances() : 0;
}

uint64_t InstanceVerifier::sweep_fallbacks() const {
  return sweep_ != nullptr ? sweep_->fallbacks() : 0;
}

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
                                      CandidateSpace* out_candidates) {
  FAIRSQG_TRACE_SPAN_FULL("verify");
  Timer timer;
  NodeSet matches;
  std::string key;
  bool hit = ServeSwept(inst, &matches);
  if (!hit || out_candidates != nullptr) {
    QueryInstance q =
        QueryInstance::Materialize(*config_->tmpl, *config_->domains, inst);
    if (!hit) hit = LookupCached(q, &matches, &key);
    if (!hit || out_candidates != nullptr) {
      CandidateSpace candidates = [&] {
        FAIRSQG_TRACE_SPAN_FULL("candidate_build");
        return CandidateSpace::Build(
            *config_->graph, q,
            /*degree_filter=*/config_->semantics ==
                MatchSemantics::kIsomorphism,
            config_->use_candidate_index, &matcher_.mutable_stats());
      }();
      if (!hit) {
        bool swept = false;
        if (SweepAllowed() && config_->tmpl->num_range_vars() > 0 &&
            inst.is_wildcard(0) && config_->domains->size(0) > 0) {
          // Chain head at variable 0 — the odometer's fastest axis, so
          // Enum (and ParallelQGen chunks) hit this for every run, and
          // Rf/Bi hit it at the lattice root. No feasibility gate: the
          // whole chain is enumerated regardless.
          SweepVerifier::Outcome sw = sweep_->SweepChain(
              q, /*var=*/0, candidates, /*output_restrict=*/nullptr,
              &matcher_, /*gate=*/nullptr, &matches);
          // kAborted falls through: the per-instance path observes the
          // same hard expiry and records the abort.
          swept = sw == SweepVerifier::Outcome::kSwept;
        }
        if (!swept) {
          MatchResult res =
              matcher_.MatchOutputBounded(q, candidates, config_->run_context);
          if (res.outcome == MatchOutcome::kAborted) {
            verify_seconds_ += timer.ElapsedSeconds();
            return RecordAbort();  // Partial matches: never cached.
          }
          matches = std::move(res.matches);
        }
        if (!key.empty()) config_->match_cache->Insert(key, matches);
      }
      if (out_candidates != nullptr) *out_candidates = std::move(candidates);
    }
  }
  EvaluatedPtr out = Finish(inst, std::move(matches));
  verify_seconds_ += timer.ElapsedSeconds();
  return out;
}

EvaluatedPtr InstanceVerifier::VerifyRefined(const Instantiation& inst,
                                             const CandidateSpace& parent_candidates,
                                             const EvaluatedInstance& parent,
                                             uint32_t changed_var,
                                             CandidateSpace* out_candidates) {
  if (!config_->use_incremental_verify) return Verify(inst, out_candidates);
  FAIRSQG_TRACE_SPAN_FULL("verify_refined");
  Timer timer;
  NodeSet matches;
  std::string key;
  bool hit = ServeSwept(inst, &matches);
  if (!hit || out_candidates != nullptr) {
    QueryInstance q =
        QueryInstance::Materialize(*config_->tmpl, *config_->domains, inst);
    if (!hit) hit = LookupCached(q, &matches, &key);
    if (!hit || out_candidates != nullptr) {
      CandidateSpace candidates = [&] {
        FAIRSQG_TRACE_SPAN_FULL("candidate_build");
        return CandidateSpace::DeriveRefined(
            *config_->graph, q, parent_candidates, changed_var,
            config_->use_candidate_index, &matcher_.mutable_stats());
      }();
      if (!hit) {
        bool swept = false;
        if (SweepAllowed() &&
            changed_var < config_->tmpl->num_range_vars()) {
          const int32_t k = inst.range_binding(changed_var);
          const int32_t m =
              static_cast<int32_t>(config_->domains->size(changed_var));
          if (k != kWildcardBinding && k + 1 < m) {
            // Fresh refinement along a range chain with members still
            // below it: sweep the rest of the chain. Thresholds are only
            // probed when the head itself is coverage-feasible — the
            // explorers abandon infeasible heads, so their chains would
            // never be served.
            auto gate = [this](const NodeSet& head) {
              return coverage_.Evaluate(head).feasible;
            };
            SweepVerifier::Outcome sw = sweep_->SweepChain(
                q, changed_var, candidates, &parent.matches, &matcher_, gate,
                &matches);
            // kSwept and kHeadOnly both deliver the head's exact set;
            // kAborted falls through to the per-instance path below.
            swept = sw != SweepVerifier::Outcome::kAborted;
          }
        }
        if (!swept) {
          // Lemma 2: q(G) ⊆ parent's match set; test only those.
          MatchResult res = matcher_.MatchOutputBounded(
              q, candidates, config_->run_context, &parent.matches);
          if (res.outcome == MatchOutcome::kAborted) {
            verify_seconds_ += timer.ElapsedSeconds();
            return RecordAbort();  // Partial matches: never cached.
          }
          matches = std::move(res.matches);
        }
        if (!key.empty()) config_->match_cache->Insert(key, matches);
      }
      if (out_candidates != nullptr) *out_candidates = std::move(candidates);
    }
  }
  EvaluatedPtr out = Finish(inst, std::move(matches));
  verify_seconds_ += timer.ElapsedSeconds();
  return out;
}

EvaluatedPtr InstanceVerifier::VerifyRelaxed(const Instantiation& inst,
                                             const EvaluatedInstance& parent,
                                             CandidateSpace* out_candidates) {
  if (!config_->use_incremental_verify) return Verify(inst, out_candidates);
  FAIRSQG_TRACE_SPAN_FULL("verify_relaxed");
  Timer timer;
  NodeSet matches;
  std::string key;
  bool hit = ServeSwept(inst, &matches);
  if (!hit || out_candidates != nullptr) {
    QueryInstance q =
        QueryInstance::Materialize(*config_->tmpl, *config_->domains, inst);
    if (!hit) hit = LookupCached(q, &matches, &key);
    if (!hit || out_candidates != nullptr) {
      CandidateSpace candidates = [&] {
        FAIRSQG_TRACE_SPAN_FULL("candidate_build");
        return CandidateSpace::Build(*config_->graph, q,
                                     /*degree_filter=*/false,
                                     config_->use_candidate_index,
                                     &matcher_.mutable_stats());
      }();
      if (!hit) {
        // Lemma 2 in reverse: every parent match remains a match after
        // relaxation; only output candidates outside it need testing.
        const NodeSet& base = candidates.of(q.output_node());
        NodeSet untested;
        // Fault site: allocation throttling — a kFail here skips the
        // reserve hints; the result must stay byte-identical, only
        // reallocation behaviour changes.
        if (!FAIRSQG_FAULT_POINT("verifier.reserve")) {
          untested.reserve(base.size());
        }
        std::set_difference(base.begin(), base.end(), parent.matches.begin(),
                            parent.matches.end(), std::back_inserter(untested));
        MatchResult res = matcher_.MatchOutputBounded(
            q, candidates, config_->run_context, &untested);
        if (res.outcome == MatchOutcome::kAborted) {
          verify_seconds_ += timer.ElapsedSeconds();
          return RecordAbort();  // Partial matches: never cached.
        }
        NodeSet fresh = std::move(res.matches);
        if (!FAIRSQG_FAULT_POINT("verifier.reserve")) {
          matches.reserve(fresh.size() + parent.matches.size());
        }
        std::set_union(fresh.begin(), fresh.end(), parent.matches.begin(),
                       parent.matches.end(), std::back_inserter(matches));
        if (!key.empty()) config_->match_cache->Insert(key, matches);
      }
      if (out_candidates != nullptr) *out_candidates = std::move(candidates);
    }
  }
  EvaluatedPtr out = Finish(inst, std::move(matches));
  verify_seconds_ += timer.ElapsedSeconds();
  return out;
}

}  // namespace fairsqg
