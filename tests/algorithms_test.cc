#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_context.h"
#include "core/bi_qgen.h"
#include "core/cbm.h"
#include "core/enum_qgen.h"
#include "core/enumerate.h"
#include "core/indicators.h"
#include "core/kungs.h"
#include "core/lattice_verify.h"
#include "core/match_cache.h"
#include "core/rf_qgen.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

/// Ground truth for one scenario: every instance of I(Q), verified.
struct GroundTruth {
  std::vector<EvaluatedPtr> all;
  std::vector<EvaluatedPtr> feasible;

  explicit GroundTruth(const QGenConfig& config) {
    InstanceVerifier verifier(config);
    GenStats stats;
    all = VerifyAllInstances(config, &verifier, &stats).ValueOrDie();
    feasible = FeasibleOnly(all);
  }
};

/// Asserts `solution` is an ε-Pareto-style set of the feasible space:
/// feasible members and full ε-coverage.
void ExpectEpsilonCoverage(const std::vector<EvaluatedPtr>& solution,
                           const std::vector<EvaluatedPtr>& feasible,
                           double epsilon, const char* who) {
  ASSERT_FALSE(solution.empty()) << who;
  for (const EvaluatedPtr& m : solution) {
    EXPECT_TRUE(m->feasible) << who << " returned an infeasible instance";
  }
  for (const EvaluatedPtr& x : feasible) {
    bool covered = false;
    for (const EvaluatedPtr& m : solution) {
      if (EpsilonDominates(m->obj, x->obj, epsilon + 1e-9)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << who << " missed instance with delta="
                         << x->obj.diversity << " f=" << x->obj.coverage;
  }
}

TEST(KungsTest, ReturnsExactParetoSet) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  GroundTruth truth(config);
  QGenResult result = Kungs::Run(config).ValueOrDie();

  // Cross-check against a brute-force nested-loop Pareto computation.
  std::vector<EvaluatedPtr> expected;
  for (const EvaluatedPtr& a : truth.feasible) {
    bool dominated = false;
    for (const EvaluatedPtr& b : truth.feasible) {
      if (Dominates(b->obj, a->obj)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) expected.push_back(a);
  }
  // Compare coordinate sets (Kungs dedupes equal coordinates).
  auto coord_set = [](const std::vector<EvaluatedPtr>& v) {
    std::vector<std::pair<double, double>> out;
    for (const auto& e : v) out.emplace_back(e->obj.diversity, e->obj.coverage);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  EXPECT_EQ(coord_set(result.pareto), coord_set(expected));
  EXPECT_GE(result.pareto.size(), 1u);

  // The exact Pareto set scores a perfect ε-indicator.
  auto ind = EpsilonIndicator(result.pareto, truth.feasible, config.epsilon);
  EXPECT_DOUBLE_EQ(ind.eps_m, 0.0);
  EXPECT_DOUBLE_EQ(ind.indicator, 1.0);
}

TEST(EnumQGenTest, ProducesEpsilonParetoSet) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  GroundTruth truth(config);
  QGenResult result = EnumQGen::Run(config).ValueOrDie();
  ExpectEpsilonCoverage(result.pareto, truth.feasible, config.epsilon, "EnumQGen");
  EXPECT_EQ(result.stats.verified, truth.all.size());
  EXPECT_EQ(result.stats.feasible, truth.feasible.size());
}

TEST(RfQGenTest, ProducesEpsilonParetoSetWithFewerVerifications) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  GroundTruth truth(config);
  QGenResult result = RfQGen::Run(config).ValueOrDie();
  ExpectEpsilonCoverage(result.pareto, truth.feasible, config.epsilon, "RfQGen");
  EXPECT_LE(result.stats.verified, truth.all.size())
      << "RfQGen must not verify more than the full space";
  EXPECT_GT(result.stats.verified, 0u);
}

TEST(RfQGenTest, OptimizationsPreserveResultQuality) {
  SmallScenario s;
  for (bool tmpl_ref : {true, false}) {
    for (bool subtree : {true, false}) {
      QGenConfig config = s.Config(0.05);
      config.use_template_refinement = tmpl_ref;
      config.use_subtree_pruning = subtree;
      GroundTruth truth(config);
      QGenResult result = RfQGen::Run(config).ValueOrDie();
      ExpectEpsilonCoverage(result.pareto, truth.feasible, config.epsilon,
                            "RfQGen(ablated)");
    }
  }
}

// A template with a cycle takes the lattice pass too: the pass evaluates it
// over a spanning tree and certifies every frontier candidate, so every
// archive member carries its instance's exact match set and the archives
// cover the per-instance ground truth.
TEST(CyclicTemplateTest, GeneratorsTakeThePassAndCoverTheGroundTruth) {
  SmallScenario s;
  s.CloseCycle();
  const QGenConfig config = s.Config(0.05);
  ASSERT_TRUE(LatticeApplies(config));
  GroundTruth truth(config);
  using Runner = Result<QGenResult> (*)(const QGenConfig&);
  const std::pair<const char*, Runner> generators[] = {
      {"EnumQGen", &EnumQGen::Run},
      {"RfQGen", &RfQGen::Run},
      {"BiQGen", &BiQGen::Run}};
  for (const auto& [name, run] : generators) {
    SCOPED_TRACE(name);
    QGenResult r = run(config).ValueOrDie();
    ExpectEpsilonCoverage(r.pareto, truth.feasible, config.epsilon, name);
    for (const EvaluatedPtr& m : r.pareto) {
      const auto it = std::find_if(
          truth.all.begin(), truth.all.end(),
          [&](const EvaluatedPtr& t) { return t->inst == m->inst; });
      ASSERT_NE(it, truth.all.end());
      EXPECT_EQ(m->matches, (*it)->matches);
    }
  }
}

TEST(BiQGenTest, ProducesEpsilonParetoSet) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  GroundTruth truth(config);
  QGenResult result = BiQGen::Run(config).ValueOrDie();
  ExpectEpsilonCoverage(result.pareto, truth.feasible, config.epsilon, "BiQGen");
  EXPECT_LE(result.stats.verified, truth.all.size());
}

TEST(BiQGenTest, SandwichPruningPreservesQuality) {
  SmallScenario s;
  for (bool sandwich : {true, false}) {
    QGenConfig config = s.Config(0.05);
    config.use_sandwich_pruning = sandwich;
    GroundTruth truth(config);
    QGenResult result = BiQGen::Run(config).ValueOrDie();
    ExpectEpsilonCoverage(result.pareto, truth.feasible, config.epsilon,
                          "BiQGen(sandwich toggle)");
  }
}

/// Serial BiQGen's exploration order pinned: the sorted archive and the
/// lattice counters of a run.
struct PinnedBiRun {
  size_t generated, verified, pruned, pruned_sandwich, pruned_subtree,
      feasible;
  std::vector<std::string> archive;  // Instantiation::ToString, sorted order.
};

void ExpectPinnedBiRun(const QGenConfig& config, const QueryTemplate& tmpl,
                       const VariableDomains& domains,
                       const PinnedBiRun& want) {
  QGenResult r = BiQGen::Run(config).ValueOrDie();
  std::vector<std::string> archive;
  for (const EvaluatedPtr& q : r.pareto) {
    archive.push_back(q->inst.ToString(tmpl, domains));
  }
  EXPECT_EQ(archive, want.archive);
  EXPECT_EQ(r.stats.generated, want.generated);
  EXPECT_EQ(r.stats.verified, want.verified);
  EXPECT_EQ(r.stats.pruned, want.pruned);
  EXPECT_EQ(r.stats.pruned_sandwich, want.pruned_sandwich);
  EXPECT_EQ(r.stats.pruned_subtree, want.pruned_subtree);
  EXPECT_EQ(r.stats.feasible, want.feasible);
  // Serial runs dispatch nothing to a pool.
  EXPECT_EQ(r.stats.enqueued, 0u);
  EXPECT_EQ(r.stats.stolen, 0u);
  EXPECT_TRUE(r.stats.per_worker_verify_seconds.empty());
}

TEST(BiQGenTest, SerialExplorationOrderIsPinnedOnSmallScenario) {
  SmallScenario s;
  ExpectPinnedBiRun(s.Config(0.05), *s.tmpl, *s.domains,
                    {151, 38, 113, 33, 6, 29,
                     {"[x0=_ x1=_ | e0=0]", "[x0=22 x1=2500 | e0=0]",
                      "[x0=29 x1=_ | e0=0]", "[x0=_ x1=25000 | e0=1]"}});
}

/// The archive oracle's dbp scenario at four domain values and ε = 0.01.
void ExpectPinnedDbpRun(uint64_t seed, const PinnedBiRun& want) {
  Scenario scenario =
      MakeScenario(OracleScenarioOptions("dbp", 0.05, seed, 4)).ValueOrDie();
  QGenConfig config = scenario.MakeConfig(0.01);
  config.diversity.lambda = 0.5;
  ExpectPinnedBiRun(config, *scenario.tmpl, *scenario.domains, want);
}

TEST(BiQGenTest, SerialExplorationOrderIsPinnedOnDbpSeed44) {
  ExpectPinnedDbpRun(44, {98, 42, 56, 0, 0, 19,
                          {"[x0=_ x1=_ | e0=0]", "[x0=5.4 x1=_ | e0=0]",
                           "[x0=_ x1=16 | e0=0]", "[x0=5.4 x1=_ | e0=1]",
                           "[x0=_ x1=16 | e0=1]", "[x0=_ x1=61 | e0=0]"}});
}

TEST(BiQGenTest, SerialExplorationOrderIsPinnedOnDbpSeed115) {
  // A feasible border instance reached by the backward pass first must
  // still hand its refinements to the forward frontier.
  ExpectPinnedDbpRun(115, {105, 45, 60, 0, 0, 19,
                           {"[x0=_ x1=_ | e0=0]", "[x0=1 x1=_ | e0=0]",
                            "[x0=1 x1=16100 | e0=0]", "[x0=2 x1=_ | e0=0]",
                            "[x0=_ x1=4800 | e0=0]", "[x0=2 x1=16100 | e0=0]",
                            "[x0=_ x1=_ | e0=1]"}});
}

TEST(CbmTest, AnchorsAreNonDominatedAndIncludeExtremes) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  GroundTruth truth(config);
  QGenResult result = Cbm::Run(config, 8).ValueOrDie();
  ASSERT_FALSE(result.pareto.empty());
  Objectives best = MaxObjectives(truth.feasible);
  Objectives got = MaxObjectives(result.pareto);
  EXPECT_DOUBLE_EQ(got.diversity, best.diversity);
  EXPECT_DOUBLE_EQ(got.coverage, best.coverage);
  for (const EvaluatedPtr& a : result.pareto) {
    for (const EvaluatedPtr& b : result.pareto) {
      EXPECT_FALSE(Dominates(b->obj, a->obj))
          << "CBM result contains a dominated anchor";
    }
  }
}

// With group constraints no instance meets, CBM returns an empty archive,
// but it still verified every instance: its verify time must be reported
// like any other run's. On this tree template the instances come from one
// lattice pass, which consults no match-set cache.
TEST(CbmTest, InfeasibleSpaceStillReportsVerifierStats) {
  SmallScenario s;
  GroupSet unmeetable = s.UnmeetableGroups();
  MatchSetCache cache;
  QGenConfig config = s.Config(0.05);
  config.groups = &unmeetable;
  config.match_cache = &cache;
  QGenResult result = Cbm::Run(config, 8).ValueOrDie();
  EXPECT_TRUE(result.pareto.empty());
  EXPECT_EQ(result.stats.feasible, 0u);
  ASSERT_GT(result.stats.verified, 0u);
  EXPECT_GT(result.stats.verify_cpu_seconds, 0.0);
  EXPECT_EQ(result.stats.verify_wall_seconds, result.stats.verify_cpu_seconds);
  EXPECT_EQ(result.stats.verified, s.domains->InstanceSpaceSize(*s.tmpl));
  EXPECT_EQ(result.stats.cache_hits + result.stats.cache_misses, 0u);
}

TEST(AlgorithmsTest, SizeBoundHolds) {
  SmallScenario s;
  for (double eps : {0.05, 0.2, 0.5}) {
    QGenConfig config = s.Config(eps);
    InstanceVerifier verifier(config);
    double max_d = verifier.diversity().MaxDiversity();
    double max_f = verifier.coverage().MaxCoverage();
    double bound = std::log1p(max_d) / std::log1p(eps) +
                   std::log1p(max_f) / std::log1p(eps) + 2;
    for (auto run : {&EnumQGen::Run, &RfQGen::Run, &BiQGen::Run}) {
      QGenResult r = run(config).ValueOrDie();
      EXPECT_LE(static_cast<double>(r.pareto.size()), bound) << "eps=" << eps;
    }
  }
}

TEST(AlgorithmsTest, LargerEpsilonNeverEnlargesArchive) {
  SmallScenario s;
  QGenResult fine = RfQGen::Run(s.Config(0.02)).ValueOrDie();
  QGenResult coarse = RfQGen::Run(s.Config(0.8)).ValueOrDie();
  EXPECT_LE(coarse.pareto.size(), fine.pareto.size());
}

TEST(AlgorithmsTest, TraceRecordsMonotoneBestObjectives) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  config.record_trace = true;
  QGenResult result = BiQGen::Run(config).ValueOrDie();
  ASSERT_FALSE(result.trace.empty());
  // Best objectives are monotone up to one (1+ε) box factor: a same-box
  // replacement may lower the best raw value slightly while keeping the
  // box (and hence the ε-guarantee) intact.
  double slack = 1.0 + config.epsilon + 1e-9;
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].verified, result.trace[i - 1].verified);
    EXPECT_GE((1.0 + result.trace[i].best.diversity) * slack,
              1.0 + result.trace[i - 1].best.diversity);
    EXPECT_GE((1.0 + result.trace[i].best.coverage) * slack,
              1.0 + result.trace[i - 1].best.coverage);
  }
}

TEST(AlgorithmsTest, VerificationBudgetRespected) {
  SmallScenario s;
  for (auto run : {&EnumQGen::Run, &RfQGen::Run, &BiQGen::Run}) {
    RunContext ctx;
    ctx.CancelAfterVerifications(5);
    QGenConfig config = s.Config(0.05);
    config.run_context = &ctx;
    QGenResult r = run(config).ValueOrDie();
    EXPECT_LE(r.stats.verified, 5u);
    EXPECT_TRUE(r.stats.deadline_exceeded);
  }
}

TEST(AlgorithmsTest, InvalidConfigRejected) {
  QGenConfig empty;
  EXPECT_FALSE(EnumQGen::Run(empty).ok());
  EXPECT_FALSE(RfQGen::Run(empty).ok());
  EXPECT_FALSE(BiQGen::Run(empty).ok());
  EXPECT_FALSE(Kungs::Run(empty).ok());
  EXPECT_FALSE(Cbm::Run(empty).ok());
}

// Different seeds give different graphs; the ε-Pareto property must hold on
// all of them for all three approximate algorithms.
class AlgorithmSeedTest : public testing::TestWithParam<int> {};

TEST_P(AlgorithmSeedTest, EpsilonParetoPropertyAcrossSeeds) {
  SmallScenario s(static_cast<uint64_t>(GetParam()) * 31 + 7);
  QGenConfig config = s.Config(0.1);
  InstanceVerifier verifier(config);
  EvaluatedPtr root = verifier.Verify(Instantiation::MostRelaxed(*s.tmpl));
  if (!root->feasible) GTEST_SKIP() << "seed yields an infeasible scenario";
  GroundTruth truth(config);
  for (auto [name, run] :
       {std::pair{"Enum", &EnumQGen::Run}, std::pair{"Rf", &RfQGen::Run},
        std::pair{"Bi", &BiQGen::Run}}) {
    QGenResult result = run(config).ValueOrDie();
    ExpectEpsilonCoverage(result.pareto, truth.feasible, config.epsilon, name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmSeedTest, testing::Range(0, 8));

}  // namespace
}  // namespace fairsqg
