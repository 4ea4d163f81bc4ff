// Fault-injection coverage: with -DFAIRSQG_FAULT_INJECTION=ON, arm the
// compiled-in fault sites and check the stack degrades exactly as the
// design promises — cache faults stay invisible in results, and a stalled
// matcher still honours deadlines.
// On a default build the sites compile to `(false)` and every test here
// skips; the suite exists to be run by the fault-injection CI job.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive_oracle.h"
#include "common/fault_injection.h"
#include "common/run_context.h"
#include "core/enum_qgen.h"
#include "core/match_cache.h"
#include "core/verifier.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::InjectionEnabled()) {
      GTEST_SKIP() << "built without FAIRSQG_FAULT_INJECTION";
    }
    fault::DisarmAll();
  }
  void TearDown() override { fault::DisarmAll(); }

  static void ExpectSameResult(const QGenResult& a, const QGenResult& b,
                               const std::string& label) {
    EXPECT_EQ(a.stats.verified, b.stats.verified) << label;
    EXPECT_EQ(a.stats.feasible, b.stats.feasible) << label;
    ASSERT_EQ(a.pareto.size(), b.pareto.size()) << label;
    for (size_t i = 0; i < a.pareto.size(); ++i) {
      EXPECT_EQ(a.pareto[i]->inst, b.pareto[i]->inst) << label;
      EXPECT_EQ(a.pareto[i]->matches, b.pareto[i]->matches) << label;
      EXPECT_DOUBLE_EQ(a.pareto[i]->obj.diversity, b.pareto[i]->obj.diversity)
          << label;
      EXPECT_DOUBLE_EQ(a.pareto[i]->obj.coverage, b.pareto[i]->obj.coverage)
          << label;
    }
  }
};

const char* const kSites[] = {"matcher.step", "cache.lookup", "cache.insert",
                              "cache.reserve"};

TEST_F(FaultInjectionTest, FaultPointsAreReached) {
  SmallScenario s;
  // Arm every site with a no-op spec: hits are counted, nothing fires.
  for (const char* site : kSites) fault::Arm(site, fault::FaultSpec{});
  // The per-instance odometer matches every instance through the cache;
  // the generators' lattice pass consults none.
  QGenConfig config = s.Config(0.05);
  MatchSetCache::Options options;
  auto cache = MatchSetCache::Create(options).ValueOrDie();
  config.match_cache = cache.get();
  ASSERT_TRUE(PerInstanceKungs(config).ok());
  for (const char* site : kSites) {
    EXPECT_GT(fault::HitCount(site), 0u) << site;
  }
}

TEST_F(FaultInjectionTest, CacheFaultsAreInvisibleInResults) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  // The per-instance odometer verifies every instance on its own, through
  // the cache; the generators that take the LatticeIndex path on this tree
  // template (EnumQGen, Kungs) never consult it.
  QGenResult baseline = PerInstanceKungs(config).ValueOrDie();

  // Every cache fault mode must leave the archive byte-identical to the
  // cacheless baseline: a failed lookup is a miss, a failed insert is a
  // refused admission, a failed reserve is just a missing allocation hint.
  struct Mode {
    const char* site;
    fault::FaultSpec spec;
  };
  fault::FaultSpec fail;
  fail.action = fault::FaultSpec::Action::kFail;
  fault::FaultSpec flaky = fail;
  flaky.trigger_after = 3;   // Let a few through, then start failing...
  flaky.max_fires = 20;      // ...and recover after 20 firings.
  for (const Mode& mode : {Mode{"cache.lookup", fail},
                           Mode{"cache.insert", fail},
                           Mode{"cache.reserve", fail},
                           Mode{"cache.lookup", flaky},
                           Mode{"cache.insert", flaky}}) {
    fault::DisarmAll();
    fault::Arm(mode.site, mode.spec);
    MatchSetCache::Options options;
    auto cache = MatchSetCache::Create(options).ValueOrDie();
    QGenConfig faulty = s.Config(0.05);
    faulty.match_cache = cache.get();
    QGenResult r = PerInstanceKungs(faulty).ValueOrDie();
    ExpectSameResult(baseline, r, mode.site);
  }
}

TEST_F(FaultInjectionTest, LookupFailForcesMisses) {
  SmallScenario s;
  fault::FaultSpec fail;
  fail.action = fault::FaultSpec::Action::kFail;
  fault::Arm("cache.lookup", fail);
  MatchSetCache::Options options;
  auto cache = MatchSetCache::Create(options).ValueOrDie();
  QGenConfig config = s.Config(0.05);
  config.match_cache = cache.get();
  QGenResult r = PerInstanceKungs(config).ValueOrDie();
  EXPECT_EQ(r.stats.cache_hits, 0u);
  EXPECT_GT(r.stats.cache_misses, 0u);
}

TEST_F(FaultInjectionTest, StalledMatcherStillHonoursDeadline) {
  SmallScenario s;
  fault::FaultSpec stall;
  stall.action = fault::FaultSpec::Action::kStall;
  stall.stall_micros = 200;
  fault::Arm("matcher.step", stall);

  RunContext ctx;
  ctx.SetDeadlineAfterMillis(30);
  QGenConfig config = s.Config(0.05);
  config.run_context = &ctx;
  QGenResult r = EnumQGen::Run(config).ValueOrDie();
  // A 200us stall per backtracking step makes full verification take
  // minutes; the deadline must cut the run short long before that and the
  // partial archive must stay internally consistent.
  EXPECT_TRUE(r.stats.deadline_exceeded);
  EXPECT_GT(r.stats.aborted_matches + r.stats.verified, 0u);
  for (size_t i = 0; i < r.pareto.size(); ++i) {
    for (size_t j = 0; j < r.pareto.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(Dominates(r.pareto[i]->obj, r.pareto[j]->obj));
      }
    }
  }
  // Members that survived are fully verified: re-check under no faults.
  fault::DisarmAll();
  QGenConfig clean = s.Config(0.05);
  InstanceVerifier fresh(clean);
  for (const EvaluatedPtr& m : r.pareto) {
    EvaluatedPtr again = fresh.Verify(m->inst);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->matches, m->matches);
  }
}

TEST_F(FaultInjectionTest, InsertFailKeepsCacheEmpty) {
  SmallScenario s;
  fault::FaultSpec fail;
  fail.action = fault::FaultSpec::Action::kFail;
  fault::Arm("cache.insert", fail);
  MatchSetCache::Options options;
  auto cache = MatchSetCache::Create(options).ValueOrDie();
  QGenConfig config = s.Config(0.05);
  config.match_cache = cache.get();
  ASSERT_TRUE(PerInstanceKungs(config).ok());
  EXPECT_GT(fault::HitCount("cache.insert"), 0u);
  MatchSetCache::CacheStats stats = cache->GetStats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// The windowing knobs live in the registry itself, so they are testable
// directly (Hit is the macro's implementation hook) and independently of
// whether the production call sites are compiled in.
TEST(FaultRegistryTest, TriggerAfterAndMaxFiresWindowTheFault) {
  fault::DisarmAll();
  fault::FaultSpec windowed;
  windowed.action = fault::FaultSpec::Action::kFail;
  windowed.trigger_after = 5;
  windowed.max_fires = 2;
  fault::Arm("test.site", windowed);
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) fired.push_back(fault::Hit("test.site"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, false, true, true,
                                      false, false, false, false}));
  EXPECT_EQ(fault::HitCount("test.site"), 10u);
  // Unarmed sites never fire and are not tracked.
  EXPECT_FALSE(fault::Hit("other.site"));
  EXPECT_EQ(fault::HitCount("other.site"), 0u);
  fault::DisarmAll();
  EXPECT_FALSE(fault::Hit("test.site"));
}

}  // namespace
}  // namespace fairsqg
