// Archive oracle: on many small seeded scenarios, the archives of RfQGen,
// BiQGen and BiQGen::RunParallel at 2 and 4 threads — every pruning and
// verification toggle on — are checked from scratch
// against a per-instance reference (archive_oracle.h). A generator that
// misses a feasible instance's box, or reports a match set or objective
// its instantiation does not have, fails here. RunParallel, which runs
// only the lattice pass on its pool, must also reproduce BiQGen::Run's
// archive member for member. EnumQGen and ParallelQGen
// at 1, 2 and 4 threads, which verify the lattice from one LatticeIndex
// pass, must reproduce the reference archive member for member. RfQGen,
// which reads its evaluations from that pass, must reproduce a replay of
// Fig. 3 over the per-instance evaluations member for member and visit as
// many instances; Kungs and CBM must reproduce their selections over the
// per-instance evaluations.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "archive_oracle.h"
#include "core/bi_qgen.h"
#include "core/cbm.h"
#include "core/enum_qgen.h"
#include "core/kungs.h"
#include "core/parallel_qgen.h"
#include "core/rf_qgen.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

/// dbp seeds per shard; the Dbp shards together cover 240 seeds, each at
/// two domain sizes.
constexpr int kDbpShards = 24;
constexpr uint64_t kDbpSeedsPerShard = 10;

/// Fine-ε dbp shards: seeds [kFineFirstSeed, kFineFirstSeed + 24), 12 per
/// shard, at four domain values and ε = 0.01. A small ε makes the archive
/// keep near-ties that a coarser box would merge, so a lost lattice branch
/// shows (seed 115: serial BiQGen once dropped the refinements of a border
/// instance its backward pass reached first).
constexpr int kFineShards = 2;
constexpr uint64_t kFineSeedsPerShard = 12;
constexpr uint64_t kFineFirstSeed = 104;

/// Runs every generator under test on one seeded scenario
/// (OracleScenarioOptions, λ = 0.5) and checks each archive against the
/// reference. Returns false when the seed yields no scenario (no template
/// with a feasible root was drawn).
bool CheckScenario(const std::string& dataset, double scale, uint64_t seed,
                   size_t max_domain, double epsilon = 0.05) {
  Result<Scenario> scenario =
      MakeScenario(OracleScenarioOptions(dataset, scale, seed, max_domain));
  if (!scenario.ok()) return false;
  QGenConfig config = scenario->MakeConfig(epsilon);
  config.diversity.lambda = 0.5;
  config.use_template_refinement = true;
  config.use_sandwich_pruning = true;
  config.use_subtree_pruning = true;
  config.use_candidate_index = true;
  const std::vector<EvaluatedPtr> evaluations = ReferenceEvaluations(config);
  const std::vector<EvaluatedPtr> reference =
      ArchiveOf(evaluations, config.epsilon);
  const std::string where = " on " + dataset + " scale " +
                            std::to_string(scale) + " seed " +
                            std::to_string(seed) + " domains " +
                            std::to_string(max_domain) + " epsilon " +
                            std::to_string(epsilon);

  using Generator = std::function<Result<QGenResult>(const QGenConfig&)>;
  const std::pair<const char*, Generator> generators[] = {
      {"RfQGen", RfQGen::Run},
      {"BiQGen", BiQGen::Run},
      {"BiQGen::RunParallel(2)",
       [](const QGenConfig& c) { return BiQGen::RunParallel(c, 2); }},
      {"BiQGen::RunParallel(4)",
       [](const QGenConfig& c) { return BiQGen::RunParallel(c, 4); }},
  };
  // The lattice generators consult no toggle under test: one run each.
  const std::pair<const char*, Generator> exact[] = {
      {"EnumQGen", EnumQGen::Run},
      {"ParallelQGen(1)",
       [](const QGenConfig& c) { return ParallelQGen::Run(c, 1); }},
      {"ParallelQGen(2)",
       [](const QGenConfig& c) { return ParallelQGen::Run(c, 2); }},
      {"ParallelQGen(4)",
       [](const QGenConfig& c) { return ParallelQGen::Run(c, 4); }},
  };
  for (const auto& [name, run] : exact) {
    Result<QGenResult> result = run(config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    EXPECT_EQ(CompareArchives(*config.tmpl, *config.domains, result->pareto,
                              reference),
              "")
        << name << where;
  }
  // Kungs and CBM select from the lattice's evaluations: their archives
  // equal the same selections over the per-instance evaluations.
  const std::vector<EvaluatedPtr> feasible = FeasibleOnly(evaluations);
  EXPECT_EQ(CompareArchives(*config.tmpl, *config.domains,
                            Kungs::Run(config).ValueOrDie().pareto,
                            ExactParetoSet(feasible)),
            "")
      << "Kungs" << where;
  EXPECT_EQ(CompareArchives(*config.tmpl, *config.domains,
                            Cbm::Run(config).ValueOrDie().pareto,
                            Cbm::Select(feasible, 10)),
            "")
      << "Cbm" << where;

  size_t replay_verified = 0;
  const std::vector<EvaluatedPtr> replay =
      ReplayRfQGen(config, evaluations, &replay_verified);
  std::vector<EvaluatedPtr> bi_archive;  // BiQGen::Run's, for RunParallel.
  for (const auto& [name, run] : generators) {
    Result<QGenResult> result = run(config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    EXPECT_EQ(CheckArchive(config, result->pareto, reference), "")
        << name << where;
    if (std::string_view(name) == "BiQGen") bi_archive = result->pareto;
    if (std::string_view(name).starts_with("BiQGen::RunParallel")) {
      EXPECT_EQ(CompareArchives(*config.tmpl, *config.domains,
                                result->pareto, bi_archive),
                "")
          << name << " against BiQGen::Run" << where;
    }
    if (std::string_view(name) == "RfQGen") {
      EXPECT_EQ(CompareArchives(*config.tmpl, *config.domains,
                                result->pareto, replay),
                "")
          << "RfQGen against the Fig. 3 replay" << where;
      EXPECT_EQ(result->stats.verified, replay_verified)
          << "RfQGen" << where;
    }
  }
  return true;
}

class ArchiveOracleTest : public testing::TestWithParam<int> {};

TEST_P(ArchiveOracleTest, DbpScenariosPassOracle) {
  const uint64_t first = static_cast<uint64_t>(GetParam()) * kDbpSeedsPerShard;
  uint64_t checked = 0;
  for (uint64_t seed = first; seed < first + kDbpSeedsPerShard; ++seed) {
    // Coarser domains leave more graph values strictly between two domain
    // values.
    for (size_t max_domain : {8, 4}) {
      checked += CheckScenario("dbp", 0.05, seed, max_domain);
    }
  }
  EXPECT_EQ(checked, 2 * kDbpSeedsPerShard);
}

INSTANTIATE_TEST_SUITE_P(Dbp, ArchiveOracleTest, testing::Range(0, kDbpShards));

class ArchiveOracleFineEpsilonTest : public testing::TestWithParam<int> {};

TEST_P(ArchiveOracleFineEpsilonTest, DbpScenariosPassOracle) {
  const uint64_t first =
      kFineFirstSeed + static_cast<uint64_t>(GetParam()) * kFineSeedsPerShard;
  uint64_t checked = 0;
  for (uint64_t seed = first; seed < first + kFineSeedsPerShard; ++seed) {
    checked += CheckScenario("dbp", 0.05, seed, 4, 0.01);
  }
  EXPECT_EQ(checked, kFineSeedsPerShard);
}

INSTANTIATE_TEST_SUITE_P(Dbp, ArchiveOracleFineEpsilonTest,
                         testing::Range(0, kFineShards));

class ArchiveOracleDatasetTest : public testing::TestWithParam<const char*> {};

TEST_P(ArchiveOracleDatasetTest, ScenariosPassOracle) {
  uint64_t checked = 0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    checked += CheckScenario(GetParam(), 0.1, seed, 8);
  }
  EXPECT_EQ(checked, 6u);
}

INSTANTIATE_TEST_SUITE_P(Datasets, ArchiveOracleDatasetTest,
                         testing::Values("lki", "cite"));

TEST(ArchiveFingerprintTest, EnumMatchesPerInstanceReference) {
  uint64_t checked = 0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Result<Scenario> scenario =
        MakeScenario(OracleScenarioOptions("dbp", 0.05, seed, 8));
    if (!scenario.ok()) continue;
    QGenConfig config = scenario->MakeConfig(0.05);
    config.diversity.lambda = 0.5;
    const std::vector<EvaluatedPtr> reference = ReferenceArchive(config);
    const std::vector<EvaluatedPtr> archive =
        EnumQGen::Run(config).ValueOrDie().pareto;
    EXPECT_EQ(ArchiveFingerprint(archive), ArchiveFingerprint(reference))
        << "seed " << seed;
    // The fingerprint sees match sets, not only instantiations.
    if (!reference.empty() && !reference[0]->matches.empty()) {
      auto changed = std::make_shared<EvaluatedInstance>(*reference[0]);
      changed->matches.pop_back();
      std::vector<EvaluatedPtr> altered = reference;
      altered[0] = changed;
      EXPECT_NE(ArchiveFingerprint(altered), ArchiveFingerprint(reference));
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace fairsqg
