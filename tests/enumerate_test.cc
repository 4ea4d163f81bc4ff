#include "core/enumerate.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/lattice_verify.h"
#include "core/verifier.h"
#include "query/refinement.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

TEST(EnumeratorTest, YieldsExactlyTheInstanceSpace) {
  SmallScenario s;
  InstantiationEnumerator it(*s.tmpl, *s.domains);
  size_t space = it.SpaceSize();
  std::unordered_set<Instantiation, Instantiation::Hasher> seen;
  Instantiation inst;
  bool saw_root = false;
  bool saw_bottom = false;
  Instantiation root = Instantiation::MostRelaxed(*s.tmpl);
  Instantiation bottom = Instantiation::MostRefined(*s.tmpl, *s.domains);
  while (it.Next(&inst)) {
    EXPECT_TRUE(seen.insert(inst).second) << "enumerator repeated an instance";
    saw_root |= (inst == root);
    saw_bottom |= (inst == bottom);
  }
  EXPECT_EQ(seen.size(), space);
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_bottom);
  // Exhausted enumerators stay exhausted.
  EXPECT_FALSE(it.Next(&inst));
  // Reset restarts from the most relaxed instantiation.
  it.Reset();
  ASSERT_TRUE(it.Next(&inst));
  EXPECT_EQ(inst, root);
}

TEST(EnumeratorTest, FirstInstantiationIsMostRelaxed) {
  SmallScenario s;
  InstantiationEnumerator it(*s.tmpl, *s.domains);
  Instantiation inst;
  ASSERT_TRUE(it.Next(&inst));
  EXPECT_EQ(inst, Instantiation::MostRelaxed(*s.tmpl));
}

TEST(EnumeratorTest, EveryInstanceRefinesTheRoot) {
  SmallScenario s;
  InstantiationEnumerator it(*s.tmpl, *s.domains);
  Instantiation root = Instantiation::MostRelaxed(*s.tmpl);
  Instantiation bottom = Instantiation::MostRefined(*s.tmpl, *s.domains);
  Instantiation inst;
  while (it.Next(&inst)) {
    EXPECT_TRUE(inst.Refines(root));
    EXPECT_TRUE(bottom.Refines(inst));
  }
}

TEST(ExactParetoSetTest, HandlesTiesAndDuplicates) {
  auto mk = [](double d, double f) {
    auto e = std::make_shared<EvaluatedInstance>();
    e->obj = {d, f};
    e->feasible = true;
    return e;
  };
  // (5,1), (5,3): equal diversity, second dominates. (3,3) dominated by
  // (5,3). (1,9) incomparable. Duplicate (5,3) deduplicated.
  auto front = ExactParetoSet({mk(5, 1), mk(5, 3), mk(3, 3), mk(1, 9), mk(5, 3)});
  ASSERT_EQ(front.size(), 2u);
  EXPECT_DOUBLE_EQ(front[0]->obj.diversity, 5);
  EXPECT_DOUBLE_EQ(front[0]->obj.coverage, 3);
  EXPECT_DOUBLE_EQ(front[1]->obj.diversity, 1);
  EXPECT_DOUBLE_EQ(front[1]->obj.coverage, 9);
}

TEST(ExactParetoSetTest, EmptyAndSingleton) {
  EXPECT_TRUE(ExactParetoSet({}).empty());
  auto e = std::make_shared<EvaluatedInstance>();
  e->obj = {1, 1};
  EXPECT_EQ(ExactParetoSet({e}).size(), 1u);
}

// Randomized: along random refinement and relaxation walks, the diversity
// parts the lattice pass records (VerifyPartial from the refinements'
// sets) are bit-identical to a full verification of the same instance — δ
// depends only on the match set. Odd seeds close a cycle in the template,
// which the pass evaluates over a spanning tree.
class IncrementalPartsTest : public testing::TestWithParam<int> {};

void ExpectSameScores(const EvaluatedInstance& inc, const EvaluatedInstance& full,
                      const DiversityEvaluator& diversity) {
  ASSERT_EQ(inc.matches, full.matches);
  DiversityEvaluator::Parts parts = diversity.ComputeParts(full.matches);
  EXPECT_EQ(inc.relevance_sum, parts.relevance_sum);
  EXPECT_EQ(inc.pair_sum, parts.pair_sum);
  EXPECT_EQ(full.relevance_sum, parts.relevance_sum);
  EXPECT_EQ(full.pair_sum, parts.pair_sum);
  EXPECT_EQ(inc.obj.diversity, full.obj.diversity);
  EXPECT_EQ(inc.obj.coverage, full.obj.coverage);
}

TEST_P(IncrementalPartsTest, RefineAndRelaxPartsMatchFull) {
  SmallScenario s(static_cast<uint64_t>(GetParam()) + 42);
  if (GetParam() % 2 == 1) s.CloseCycle();
  const QGenConfig config = s.Config();
  ASSERT_TRUE(LatticeApplies(config));
  InstanceVerifier verifier(config);
  InstanceVerifier full_verifier(config);
  const DiversityEvaluator& diversity = verifier.diversity();
  InstanceVerifier* const verifiers[] = {&verifier};
  GenStats stats;
  const std::vector<EvaluatedPtr> lattice =
      EvaluateLattice(config, /*pool=*/nullptr, verifiers, &stats);
  auto settled = [&](const Instantiation& inst) {
    return lattice[OdometerRank(*s.tmpl, *s.domains, inst)];
  };
  Rng rng(static_cast<uint64_t>(GetParam()) * 53 + 1);

  // Down from the root, one random refinement at a time.
  Instantiation inst = Instantiation::MostRelaxed(*s.tmpl);
  for (;;) {
    EvaluatedPtr e = settled(inst);
    ASSERT_NE(e, nullptr);
    ExpectSameScores(*e, *full_verifier.Verify(inst), diversity);
    auto children = LatticeNeighbors::RefineChildren(
        *s.tmpl, *s.domains, inst, RefinementHints::None(*s.tmpl));
    if (children.empty()) break;
    inst = children[rng.NextBounded(children.size())].inst;
  }

  // Up from the bottom, one random relaxation at a time.
  inst = Instantiation::MostRefined(*s.tmpl, *s.domains);
  for (;;) {
    EvaluatedPtr e = settled(inst);
    ASSERT_NE(e, nullptr);
    ExpectSameScores(*e, *full_verifier.Verify(inst), diversity);
    auto children = LatticeNeighbors::RelaxChildren(*s.tmpl, inst);
    if (children.empty()) break;
    inst = children[rng.NextBounded(children.size())].inst;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPartsTest, testing::Range(0, 10));

}  // namespace
}  // namespace fairsqg
