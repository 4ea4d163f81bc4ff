#include "core/online_qgen.h"

#include <gtest/gtest.h>

#include "core/enumerate.h"
#include "core/indicators.h"
#include "core/match_cache.h"
#include "scenario_fixture.h"
#include "workload/instance_stream.h"

namespace fairsqg {
namespace {

TEST(OnlineQGenTest, SizeNeverExceedsK) {
  SmallScenario s;
  QGenConfig config = s.Config();
  OnlineConfig online;
  online.k = 4;
  online.window = 10;
  online.initial_epsilon = 0.05;
  OnlineQGen gen(config, online);
  InstanceStream stream(*s.tmpl, *s.domains, 99);
  Instantiation inst;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(stream.Next(&inst));
    gen.Process(inst);
    EXPECT_LE(gen.size(), online.k);
  }
  EXPECT_GT(gen.size(), 0u);
}

TEST(OnlineQGenTest, EpsilonOnlyGrows) {
  SmallScenario s;
  QGenConfig config = s.Config();
  OnlineConfig online;
  online.k = 3;
  online.initial_epsilon = 0.02;
  OnlineQGen gen(config, online);
  InstanceStream stream(*s.tmpl, *s.domains, 7);
  Instantiation inst;
  double prev = gen.epsilon();
  EXPECT_DOUBLE_EQ(prev, 0.02);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(stream.Next(&inst));
    gen.Process(inst);
    EXPECT_GE(gen.epsilon(), prev);
    prev = gen.epsilon();
  }
}

TEST(OnlineQGenTest, MembersAreFeasibleAndStreamed) {
  SmallScenario s;
  QGenConfig config = s.Config();
  OnlineConfig online;
  online.k = 5;
  OnlineQGen gen(config, online);
  InstanceStream stream(*s.tmpl, *s.domains, 3);
  Instantiation inst;
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(stream.Next(&inst));
    gen.Process(inst);
  }
  for (const EvaluatedPtr& m : gen.Current()) {
    EXPECT_TRUE(m->feasible);
  }
  EXPECT_EQ(gen.stats().verified, 120u);
}

TEST(OnlineQGenTest, CoversSeenFeasibleInstancesWithCurrentEpsilon) {
  // Correctness claim of Section IV-C: at any time the maintained set is an
  // ε-Pareto set of the *seen* instances for the current (grown) ε.
  SmallScenario s;
  QGenConfig config = s.Config();
  OnlineConfig online;
  online.k = 6;
  online.window = 30;
  OnlineQGen gen(config, online);
  InstanceVerifier reference(config);
  InstanceStream stream(*s.tmpl, *s.domains, 17);
  std::vector<EvaluatedPtr> seen;
  Instantiation inst;
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(stream.Next(&inst));
    gen.Process(inst);
    EvaluatedPtr e = reference.Verify(inst);
    if (e->feasible) seen.push_back(e);
  }
  auto members = gen.Current();
  ASSERT_FALSE(members.empty());
  // The window can hold up to `window` not-yet-covered stragglers whose
  // re-insertion is pending; exclude instances newer than that horizon.
  double eps = gen.epsilon();
  size_t misses = 0;
  for (const EvaluatedPtr& x : seen) {
    bool covered = false;
    for (const EvaluatedPtr& m : members) {
      if (EpsilonDominates(m->obj, x->obj, eps + 1e-9)) {
        covered = true;
        break;
      }
    }
    if (!covered) ++misses;
  }
  // Uncovered stragglers live in the bounded window, plus a small slack
  // for nearest-neighbour replacements whose box merge is approximate.
  EXPECT_LE(misses, online.window + 2 * online.k);
}

TEST(OnlineQGenTest, DelayTimeReportedPositive) {
  SmallScenario s;
  QGenConfig config = s.Config();
  OnlineQGen gen(config, OnlineConfig{});
  InstanceStream stream(*s.tmpl, *s.domains, 5);
  Instantiation inst;
  ASSERT_TRUE(stream.Next(&inst));
  double delay = gen.Process(inst);
  EXPECT_GT(delay, 0.0);
  EXPECT_GT(gen.stats().total_seconds, 0.0);
}

TEST(OnlineQGenTest, SnapshotMatchesCurrent) {
  SmallScenario s;
  QGenConfig config = s.Config();
  OnlineQGen gen(config, OnlineConfig{});
  InstanceStream stream(*s.tmpl, *s.domains, 5);
  Instantiation inst;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(stream.Next(&inst));
    gen.Process(inst);
  }
  QGenResult snap = gen.Snapshot();
  EXPECT_EQ(snap.pareto.size(), gen.size());
  EXPECT_EQ(snap.stats.verified, 40u);
}

// Every element is infeasible (no instance meets the group constraints), so
// Process never reaches the archive; stats() must still carry the
// verifier's time and cache traffic.
TEST(OnlineQGenTest, StatsCurrentAfterInfeasibleElements) {
  SmallScenario s;
  GroupSet unmeetable = s.UnmeetableGroups();
  MatchSetCache cache;
  QGenConfig config = s.Config();
  config.groups = &unmeetable;
  config.match_cache = &cache;
  OnlineQGen gen(config, OnlineConfig{});
  InstanceStream stream(*s.tmpl, *s.domains, 5);
  Instantiation inst;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(stream.Next(&inst));
    gen.Process(inst);
  }
  EXPECT_EQ(gen.size(), 0u);
  for (const GenStats& st : {gen.stats(), gen.Snapshot().stats}) {
    EXPECT_EQ(st.verified, 30u);
    EXPECT_EQ(st.feasible, 0u);
    EXPECT_GT(st.verify_cpu_seconds, 0.0);
    EXPECT_EQ(st.verify_wall_seconds, st.verify_cpu_seconds);
    EXPECT_EQ(st.cache_hits + st.cache_misses, st.verified);
  }
}

TEST(InstanceStreamTest, DedupExhaustsSpace) {
  SmallScenario s;
  InstanceStream stream(*s.tmpl, *s.domains, 11, /*dedup=*/true);
  size_t space = s.domains->InstanceSpaceSize(*s.tmpl);
  std::unordered_set<Instantiation, Instantiation::Hasher> seen;
  Instantiation inst;
  while (stream.Next(&inst)) {
    EXPECT_TRUE(seen.insert(inst).second) << "dedup stream repeated an instance";
  }
  EXPECT_EQ(seen.size(), space);
}

TEST(InstanceStreamTest, WithoutDedupStreamIsEndless) {
  SmallScenario s;
  InstanceStream stream(*s.tmpl, *s.domains, 11);
  Instantiation inst;
  size_t space = s.domains->InstanceSpaceSize(*s.tmpl);
  for (size_t i = 0; i < space + 50; ++i) {
    EXPECT_TRUE(stream.Next(&inst));
  }
  EXPECT_EQ(stream.emitted(), space + 50);
}

}  // namespace
}  // namespace fairsqg
