// Literal-sweep batch verification (DESIGN.md §12): with
// QGenConfig::use_sweep_verify the verifier derives a whole range-variable
// chain's match sets from one matcher pass and serves them like cache hits.
// The contract under test: archives are byte-identical with sweeping on or
// off — for every generator, with and without a match-set cache, and under
// randomized cancellation — and sweeping silently disables itself when a
// per-match step budget is configured. EnumQGen, ParallelQGen, RfQGen,
// BiQGen and Kungs verify a tree template from one LatticeIndex pass and
// sweep nothing; the per-instance odometer (VerifyAllInstances, driven here
// as PerInstanceKungs) still sweeps.

#include <functional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive_oracle.h"
#include "common/run_context.h"
#include "core/bi_qgen.h"
#include "core/enum_qgen.h"
#include "core/match_cache.h"
#include "core/parallel_qgen.h"
#include "core/rf_qgen.h"
#include "core/verifier.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

struct NamedRunner {
  const char* name;
  std::function<Result<QGenResult>(const QGenConfig&)> run;
  /// False for the generators that verify a tree template's lattice from
  /// one LatticeIndex pass, which consults no sweep (DESIGN.md §14).
  bool sweeps = true;
};

std::vector<NamedRunner> SweepRunners() {
  return {
      {"EnumQGen", [](const QGenConfig& c) { return EnumQGen::Run(c); },
       false},
      {"RfQGen", [](const QGenConfig& c) { return RfQGen::Run(c); }, false},
      {"BiQGen", [](const QGenConfig& c) { return BiQGen::Run(c); }, false},
      {"BiQGen/parallel",
       [](const QGenConfig& c) { return BiQGen::RunParallel(c, 4); }, false},
      {"ParallelQGen",
       [](const QGenConfig& c) { return ParallelQGen::Run(c, 4); }, false},
  };
}

void ExpectSameArchive(const QGenResult& off, const QGenResult& on,
                       const std::string& label) {
  ASSERT_EQ(off.pareto.size(), on.pareto.size()) << label;
  for (size_t i = 0; i < off.pareto.size(); ++i) {
    EXPECT_EQ(off.pareto[i]->inst, on.pareto[i]->inst) << label << " #" << i;
    EXPECT_EQ(off.pareto[i]->matches, on.pareto[i]->matches)
        << label << " #" << i;
    EXPECT_DOUBLE_EQ(off.pareto[i]->obj.diversity, on.pareto[i]->obj.diversity)
        << label << " #" << i;
    EXPECT_DOUBLE_EQ(off.pareto[i]->obj.coverage, on.pareto[i]->obj.coverage)
        << label << " #" << i;
    EXPECT_EQ(off.pareto[i]->feasible, on.pareto[i]->feasible)
        << label << " #" << i;
  }
}

std::unique_ptr<MatchSetCache> MakeCache() {
  MatchSetCache::Options options;
  options.capacity_bytes = 8u << 20;
  options.num_shards = 4;
  return MatchSetCache::Create(options).ValueOrDie();
}

TEST(SweepVerifyTest, ArchivesByteIdenticalAcrossGeneratorsAndCaches) {
  SmallScenario s;
  for (const NamedRunner& runner : SweepRunners()) {
    for (bool with_cache : {false, true}) {
      std::string label = std::string(runner.name) +
                          (with_cache ? " cache=on" : " cache=off");

      QGenConfig off = s.Config();
      std::unique_ptr<MatchSetCache> off_cache;
      if (with_cache) {
        off_cache = MakeCache();
        off.match_cache = off_cache.get();
      }
      QGenResult base = runner.run(off).ValueOrDie();

      QGenConfig on = s.Config();
      on.use_sweep_verify = true;
      std::unique_ptr<MatchSetCache> on_cache;
      if (with_cache) {
        on_cache = MakeCache();
        on.match_cache = on_cache.get();
      }
      QGenResult swept = runner.run(on).ValueOrDie();

      ExpectSameArchive(base, swept, label);
      EXPECT_EQ(base.stats.verified, swept.stats.verified) << label;
      EXPECT_EQ(base.stats.feasible, swept.stats.feasible) << label;
      EXPECT_EQ(base.stats.sweep_chains, 0u) << label;
      if (runner.sweeps) {
        EXPECT_GT(swept.stats.sweep_chains, 0u) << label;
        EXPECT_GT(swept.stats.sweep_instances, 0u) << label;
      } else {
        EXPECT_EQ(swept.stats.sweep_chains, 0u) << label;
        EXPECT_EQ(swept.stats.sweep_instances, 0u) << label;
      }
    }
  }
}

TEST(SweepVerifyTest, RandomizedCancellationEquivalence) {
  SmallScenario s;
  // Fixed seed: cancellation points are arbitrary but reproducible.
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<uint64_t> pick(1, 60);
  for (const NamedRunner& runner : SweepRunners()) {
    for (int round = 0; round < 3; ++round) {
      uint64_t n = pick(rng);
      std::string label =
          std::string(runner.name) + " cancel@" + std::to_string(n);

      RunContext off_ctx;
      off_ctx.CancelAfterVerifications(n);
      QGenConfig off = s.Config();
      off.run_context = &off_ctx;
      QGenResult base = runner.run(off).ValueOrDie();

      RunContext on_ctx;
      on_ctx.CancelAfterVerifications(n);
      QGenConfig on = s.Config();
      on.use_sweep_verify = true;
      on.run_context = &on_ctx;
      QGenResult swept = runner.run(on).ValueOrDie();

      // Sweeping adds no RunContext poll sites, so the same cancellation
      // budget truncates both runs at the same instance and the degraded
      // archives stay identical.
      ExpectSameArchive(base, swept, label);
      EXPECT_EQ(base.stats.verified, swept.stats.verified) << label;
    }
  }
}

TEST(SweepVerifyTest, StepLimitDisablesSweeping) {
  SmallScenario s;
  RunContext on_ctx;
  on_ctx.set_match_step_limit(100000);  // Generous: no search aborts.
  QGenConfig on = s.Config();
  on.use_sweep_verify = true;
  on.run_context = &on_ctx;
  QGenResult swept = PerInstanceKungs(on).ValueOrDie();
  // A per-match step budget would be consumed differently by a pooled
  // chain search, so sweeping turns itself off entirely.
  EXPECT_EQ(swept.stats.sweep_chains, 0u);
  EXPECT_EQ(swept.stats.sweep_instances, 0u);

  RunContext off_ctx;
  off_ctx.set_match_step_limit(100000);
  QGenConfig off = s.Config();
  off.run_context = &off_ctx;
  QGenResult base = PerInstanceKungs(off).ValueOrDie();
  ExpectSameArchive(base, swept, "step-limit");
}

TEST(SweepVerifyTest, InactiveSweepNodeChainsAreServed) {
  // Variant template whose range literal sits on the node attached only by
  // the variable edge: with the edge unbound that node is inactive, so the
  // whole chain shares one match set (the literal constrains nothing) and
  // the sweep publishes it to every member from a single matcher search.
  SmallScenario s;
  QueryTemplate tmpl(s.schema);
  QNodeId dir = tmpl.AddNode("director");
  QNodeId u1 = tmpl.AddNode("user");
  QNodeId u2 = tmpl.AddNode("user");
  tmpl.SetOutputNode(dir);
  tmpl.AddRangeLiteral(u2, "yearsOfExp", CompareOp::kGe);  // x0, on u2.
  tmpl.AddEdge(u1, dir, "recommend");
  tmpl.AddVariableEdge(u2, dir, "recommend");  // e0 gates u2's activity.
  VariableDomains domains =
      VariableDomains::Build(s.graph, tmpl).ValueOrDie().Coarsened(5);

  QGenConfig off;
  off.graph = &s.graph;
  off.tmpl = &tmpl;
  off.domains = &domains;
  off.groups = s.groups.get();
  off.epsilon = 0.05;
  QGenResult base = PerInstanceKungs(off).ValueOrDie();

  QGenConfig on = off;
  on.use_sweep_verify = true;
  QGenResult swept = PerInstanceKungs(on).ValueOrDie();

  ExpectSameArchive(base, swept, "inactive-node");
  EXPECT_GT(swept.stats.sweep_chains, 0u);
}

TEST(SweepVerifyTest, CounterAccountingOnVerifyAll) {
  SmallScenario s;
  QGenConfig on = s.Config();
  on.use_sweep_verify = true;
  QGenResult swept = PerInstanceKungs(on).ValueOrDie();

  // The odometer varies x0 fastest from the wildcard, so every x0 chain
  // head triggers a sweep covering the full domain: instances per chain is
  // exactly |dom(x0)|, and nothing ever falls back without a deadline.
  const size_t chain_len = s.domains->size(0);
  ASSERT_GT(chain_len, 1u);
  EXPECT_GT(swept.stats.sweep_chains, 0u);
  EXPECT_EQ(swept.stats.sweep_instances, swept.stats.sweep_chains * chain_len);
  EXPECT_EQ(swept.stats.sweep_fallbacks, 0u);
  // Swept members are served without touching the match-set cache, so every
  // serve shows up as neither hit nor miss; the verified count still covers
  // the whole space.
  EXPECT_EQ(swept.stats.verified, s.domains->InstanceSpaceSize(*s.tmpl));
}

}  // namespace
}  // namespace fairsqg
