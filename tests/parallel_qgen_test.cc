#include "core/parallel_qgen.h"

#include <gtest/gtest.h>

#include "common/run_context.h"
#include "core/bi_qgen.h"
#include "core/enum_qgen.h"
#include "core/enumerate.h"
#include "core/indicators.h"
#include "core/lattice_verify.h"
#include "core/pareto_archive.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

/// True when every member of `covered` is ε-dominated by some member of
/// `covering` (the slack absorbs floating-point noise).
bool EpsilonCovers(const std::vector<EvaluatedPtr>& covering,
                   const std::vector<EvaluatedPtr>& covered, double epsilon) {
  for (const EvaluatedPtr& x : covered) {
    bool ok = false;
    for (const EvaluatedPtr& m : covering) {
      if (EpsilonDominates(m->obj, x->obj, epsilon + 1e-9)) {
        ok = true;
        break;
      }
    }
    if (!ok) return false;
  }
  return true;
}

TEST(ParallelQGenTest, MatchesSequentialEnumQGenCoverage) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  QGenResult seq = EnumQGen::Run(config).ValueOrDie();
  QGenResult par = ParallelQGen::Run(config, 4).ValueOrDie();

  EXPECT_EQ(par.stats.verified, seq.stats.verified);
  EXPECT_EQ(par.stats.feasible, seq.stats.feasible);

  // Both must ε-cover the full feasible space; the member sets may differ
  // (arrival order differs) but the quality guarantee is identical.
  InstanceVerifier verifier(config);
  GenStats stats;
  auto all = VerifyAllInstances(config, &verifier, &stats).ValueOrDie();
  auto feasible = FeasibleOnly(all);
  EXPECT_TRUE(EpsilonCovers(seq.pareto, feasible, config.epsilon));
  EXPECT_TRUE(EpsilonCovers(par.pareto, feasible, config.epsilon));
}

TEST(ParallelQGenTest, ReportsBothVerifyTimeAxes) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  QGenResult r = ParallelQGen::Run(config, 4).ValueOrDie();
  ASSERT_EQ(r.stats.per_worker_verify_seconds.size(), 4u);
  double sum = 0, mx = 0;
  for (double w : r.stats.per_worker_verify_seconds) {
    sum += w;
    mx = std::max(mx, w);
  }
  // CPU axis sums the workers, wall axis is the per-worker max.
  EXPECT_DOUBLE_EQ(r.stats.verify_cpu_seconds, sum);
  EXPECT_DOUBLE_EQ(r.stats.verify_wall_seconds, mx);
  EXPECT_GE(r.stats.verify_cpu_seconds, r.stats.verify_wall_seconds);
  EXPECT_GT(r.stats.enqueued, 0u);
}

TEST(ParallelQGenTest, RespectsVerificationBudget) {
  SmallScenario s;
  RunContext ctx;
  ctx.CancelAfterVerifications(10);
  QGenConfig config = s.Config(0.05);
  config.run_context = &ctx;
  QGenResult r = ParallelQGen::Run(config, 4).ValueOrDie();
  EXPECT_LE(r.stats.verified, 10u);
  EXPECT_EQ(r.stats.generated, 10u);
  EXPECT_TRUE(r.stats.deadline_exceeded);
}

TEST(ParallelQGenTest, DeterministicResultAcrossThreadCounts) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  QGenResult one = ParallelQGen::Run(config, 1).ValueOrDie();
  Objectives b1 = MaxObjectives(one.pareto);
  for (size_t threads : {2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    QGenResult r = ParallelQGen::Run(config, threads).ValueOrDie();
    // Instance coordinates are deterministic, so best objectives agree.
    Objectives br = MaxObjectives(r.pareto);
    EXPECT_DOUBLE_EQ(b1.diversity, br.diversity);
    EXPECT_DOUBLE_EQ(b1.coverage, br.coverage);
    // The whole space is dispatched, one claim per instance, and verified
    // exactly once, whichever worker claims which instance.
    EXPECT_EQ(r.stats.generated, one.stats.generated);
    EXPECT_EQ(r.stats.verified, one.stats.verified);
    EXPECT_EQ(r.stats.feasible, one.stats.feasible);
    EXPECT_EQ(r.stats.enqueued, one.stats.enqueued);
  }
}

TEST(ParallelQGenTest, FingerprintIndependentOfThreadCount) {
  SmallScenario s;
  for (double epsilon : {0.05, 0.01}) {
    QGenConfig config = s.Config(epsilon);
    const uint64_t one =
        ArchiveFingerprint(ParallelQGen::Run(config, 1).ValueOrDie().pareto);
    for (size_t threads : {2, 4}) {
      EXPECT_EQ(ArchiveFingerprint(
                    ParallelQGen::Run(config, threads).ValueOrDie().pareto),
                one)
          << threads << " threads, epsilon " << epsilon;
    }
    // Serial Enum walks the same lattice.
    EXPECT_EQ(ArchiveFingerprint(EnumQGen::Run(config).ValueOrDie().pareto),
              one);
  }
}

TEST(ParallelQGenTest, MoreThreadsThanInstances) {
  SmallScenario s;
  QGenConfig config = s.Config(0.2);
  QGenResult r = ParallelQGen::Run(config, 1000).ValueOrDie();
  EXPECT_GT(r.pareto.size(), 0u);
  EXPECT_EQ(r.stats.verified,
            s.domains->InstanceSpaceSize(*s.tmpl));
}

TEST(ParallelQGenTest, DefaultThreadCount) {
  SmallScenario s;
  QGenConfig config = s.Config(0.2);
  QGenResult r = ParallelQGen::Run(config).ValueOrDie();
  EXPECT_GT(r.pareto.size(), 0u);
}

TEST(ParallelQGenTest, InvalidConfigRejected) {
  QGenConfig empty;
  EXPECT_FALSE(ParallelQGen::Run(empty, 2).ok());
}

// --- Parallel Bi-QGen (the lattice pass on a pool, then the serial search) ---

TEST(ParallelBiQGenTest, ArchiveMutuallyEpsilonCoversSequential) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  QGenResult seq = BiQGen::Run(config).ValueOrDie();
  QGenResult par = BiQGen::RunParallel(config, 4).ValueOrDie();
  ASSERT_GT(seq.pareto.size(), 0u);
  ASSERT_GT(par.pareto.size(), 0u);
  // Both archives ε-cover the full feasible space, so each must ε-cover
  // the other whatever order the search explores in.
  EXPECT_TRUE(EpsilonCovers(par.pareto, seq.pareto, config.epsilon));
  EXPECT_TRUE(EpsilonCovers(seq.pareto, par.pareto, config.epsilon));
}

TEST(ParallelBiQGenTest, EpsilonCoversFullFeasibleSpace) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  QGenResult par = BiQGen::RunParallel(config, 4).ValueOrDie();
  InstanceVerifier verifier(config);
  GenStats stats;
  auto all = VerifyAllInstances(config, &verifier, &stats).ValueOrDie();
  EXPECT_TRUE(EpsilonCovers(par.pareto, FeasibleOnly(all), config.epsilon));
}

/// RunParallel at 1, 2, 3 and 4 threads against Run: the pool runs only
/// the lattice pass, whose evaluations do not depend on it, and the search
/// is Run's, so the archive and every deterministic counter are equal.
void ExpectEqualsRun(const QGenConfig& config) {
  const QGenResult seq = BiQGen::Run(config).ValueOrDie();
  ASSERT_GT(seq.pareto.size(), 0u);
  for (size_t threads : {1, 2, 3, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const QGenResult par = BiQGen::RunParallel(config, threads).ValueOrDie();
    ASSERT_EQ(par.pareto.size(), seq.pareto.size());
    for (size_t i = 0; i < seq.pareto.size(); ++i) {
      EXPECT_EQ(par.pareto[i]->inst, seq.pareto[i]->inst);
      EXPECT_EQ(par.pareto[i]->matches, seq.pareto[i]->matches);
      EXPECT_EQ(par.pareto[i]->obj.diversity, seq.pareto[i]->obj.diversity);
      EXPECT_EQ(par.pareto[i]->obj.coverage, seq.pareto[i]->obj.coverage);
    }
    const GenStats& a = par.stats;
    const GenStats& b = seq.stats;
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.pruned, b.pruned);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.pruned_sandwich, b.pruned_sandwich);
    EXPECT_EQ(a.pruned_subtree, b.pruned_subtree);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.deadline_exceeded, b.deadline_exceeded);
    EXPECT_EQ(a.aborted_matches, b.aborted_matches);
    EXPECT_EQ(a.timed_out_instances, b.timed_out_instances);
    // The pool's own counters: one time per worker, and every instance of
    // the pass dispatched. One thread runs Run; a space without the
    // lattice path leaves the pool idle.
    const bool pooled = threads > 1 && LatticeApplies(config);
    EXPECT_EQ(a.per_worker_verify_seconds.size(), pooled ? threads : 0u);
    EXPECT_EQ(a.enqueued, pooled ? config.domains->InstanceSpaceSize(
                                       *config.tmpl)
                                 : 0u);
  }
}

TEST(ParallelBiQGenTest, EqualsSequentialAtAnyThreadCount) {
  SmallScenario s;
  ASSERT_TRUE(LatticeApplies(s.Config(0.05)));
  ExpectEqualsRun(s.Config(0.05));

  // The fine-ε oracle scenarios: seed 115's template has a cycle, which
  // the pooled pass evaluates over a spanning tree; seed 117's is a tree,
  // where SPrune skips instances.
  for (uint64_t seed : {115, 117}) {
    SCOPED_TRACE(testing::Message() << "dbp seed " << seed);
    Scenario scenario =
        MakeScenario(OracleScenarioOptions("dbp", 0.05, seed, 4)).ValueOrDie();
    QGenConfig config = scenario.MakeConfig(0.01);
    config.diversity.lambda = 0.5;
    ExpectEqualsRun(config);
  }
}

/// Two RunParallel runs at each of 2, 3 and 4 threads are bit-identical
/// whatever the scheduling, the pool's own counters included.
void ExpectDeterministicPerThreadCount(const QGenConfig& config) {
  for (size_t threads : {2, 3, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    QGenResult a = BiQGen::RunParallel(config, threads).ValueOrDie();
    QGenResult b = BiQGen::RunParallel(config, threads).ValueOrDie();
    ASSERT_GT(a.pareto.size(), 0u);
    ASSERT_EQ(a.pareto.size(), b.pareto.size());
    for (size_t i = 0; i < a.pareto.size(); ++i) {
      EXPECT_EQ(a.pareto[i]->inst, b.pareto[i]->inst);
      EXPECT_EQ(a.pareto[i]->obj.diversity, b.pareto[i]->obj.diversity);
      EXPECT_EQ(a.pareto[i]->obj.coverage, b.pareto[i]->obj.coverage);
      EXPECT_EQ(a.pareto[i]->matches, b.pareto[i]->matches);
    }
    EXPECT_EQ(a.stats.generated, b.stats.generated);
    EXPECT_EQ(a.stats.verified, b.stats.verified);
    EXPECT_EQ(a.stats.pruned, b.stats.pruned);
    EXPECT_EQ(a.stats.feasible, b.stats.feasible);
    EXPECT_EQ(a.stats.enqueued, b.stats.enqueued);
    EXPECT_EQ(a.stats.pruned_sandwich, b.stats.pruned_sandwich);
    EXPECT_EQ(a.stats.pruned_subtree, b.stats.pruned_subtree);
    EXPECT_EQ(a.stats.aborted_matches, b.stats.aborted_matches);
    EXPECT_EQ(a.stats.timed_out_instances, b.stats.timed_out_instances);
    EXPECT_EQ(a.stats.deadline_exceeded, b.stats.deadline_exceeded);
    EXPECT_EQ(a.stats.per_worker_verify_seconds.size(),
              b.stats.per_worker_verify_seconds.size());
  }
}

TEST(ParallelBiQGenTest, DeterministicForFixedThreadCount) {
  SmallScenario s;
  ExpectDeterministicPerThreadCount(s.Config(0.05));

  Scenario scenario =
      MakeScenario(OracleScenarioOptions("dbp", 0.05, 117, 4)).ValueOrDie();
  QGenConfig config = scenario.MakeConfig(0.01);
  config.diversity.lambda = 0.5;
  ExpectDeterministicPerThreadCount(config);
}

TEST(ParallelBiQGenTest, SingleThreadFallsBackToSequential) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  QGenResult seq = BiQGen::Run(config).ValueOrDie();
  QGenResult one = BiQGen::RunParallel(config, 1).ValueOrDie();
  ASSERT_EQ(one.pareto.size(), seq.pareto.size());
  for (size_t i = 0; i < seq.pareto.size(); ++i) {
    EXPECT_EQ(one.pareto[i]->inst, seq.pareto[i]->inst);
  }
  EXPECT_EQ(one.stats.verified, seq.stats.verified);
}

TEST(ParallelBiQGenTest, RespectsVerificationBudget) {
  SmallScenario s;
  RunContext ctx;
  ctx.CancelAfterVerifications(7);
  QGenConfig config = s.Config(0.05);
  config.run_context = &ctx;
  QGenResult r = BiQGen::RunParallel(config, 4).ValueOrDie();
  EXPECT_LE(r.stats.verified, 7u);
  EXPECT_TRUE(r.stats.deadline_exceeded);
}

TEST(ParallelBiQGenTest, ReportsParallelStats) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  QGenResult r = BiQGen::RunParallel(config, 4).ValueOrDie();
  ASSERT_EQ(r.stats.per_worker_verify_seconds.size(), 4u);
  EXPECT_GE(r.stats.verify_cpu_seconds, r.stats.verify_wall_seconds);
  // The pool runs the lattice pass, which dispatches every instance; the
  // search consumes only some of them.
  EXPECT_EQ(r.stats.enqueued, s.domains->InstanceSpaceSize(*s.tmpl));
  EXPECT_LT(r.stats.verified, r.stats.enqueued);
}

}  // namespace
}  // namespace fairsqg
