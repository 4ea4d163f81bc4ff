#include "core/verifier.h"

#include <algorithm>
#include <iterator>

#include <gtest/gtest.h>

#include "core/enumerate.h"
#include "query/refinement.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

TEST(VerifierTest, RootInstanceIsFeasible) {
  SmallScenario s;
  QGenConfig config = s.Config();
  InstanceVerifier verifier(config);
  EvaluatedPtr root = verifier.Verify(Instantiation::MostRelaxed(*s.tmpl));
  EXPECT_TRUE(root->feasible) << "fixture must have a feasible root";
  EXPECT_GT(root->matches.size(), 0u);
  EXPECT_GT(root->obj.diversity, 0.0);
}

TEST(VerifierTest, VerifySequenceNumbersIncrease) {
  SmallScenario s;
  QGenConfig config = s.Config();
  InstanceVerifier verifier(config);
  EvaluatedPtr a = verifier.Verify(Instantiation::MostRelaxed(*s.tmpl));
  EvaluatedPtr b = verifier.Verify(Instantiation::MostRefined(*s.tmpl, *s.domains));
  EXPECT_LT(a->verify_seq, b->verify_seq);
  EXPECT_EQ(verifier.num_verified(), 2u);
}

// VerifyPartial, the lattice walk's entry point, bounded by a verified
// neighbour in either direction of Lemma 2: a refinement's matches lie
// within the neighbour's, and a relaxation keeps every neighbour match.
TEST(VerifierTest, RefinedVerificationMatchesFull) {
  SmallScenario s;
  QGenConfig config = s.Config();
  InstanceVerifier verifier(config);

  Instantiation root = Instantiation::MostRelaxed(*s.tmpl);
  EvaluatedPtr root_eval = verifier.Verify(root);

  auto children = LatticeNeighbors::RefineChildren(
      *s.tmpl, *s.domains, root, RefinementHints::None(*s.tmpl));
  ASSERT_FALSE(children.empty());
  for (const LatticeStep& step : children) {
    NodeSet rejected;
    EvaluatedPtr partial =
        verifier.VerifyPartial(step.inst, {}, root_eval->matches, &rejected);
    EvaluatedPtr full = verifier.Verify(step.inst);
    EXPECT_EQ(partial->matches, full->matches);
    EXPECT_EQ(partial->obj.diversity, full->obj.diversity);  // Same set.
    EXPECT_DOUBLE_EQ(partial->obj.coverage, full->obj.coverage);
    EXPECT_EQ(partial->feasible, full->feasible);
    NodeSet failed;
    std::set_difference(root_eval->matches.begin(), root_eval->matches.end(),
                        full->matches.begin(), full->matches.end(),
                        std::back_inserter(failed));
    EXPECT_EQ(rejected, failed);
  }
}

TEST(VerifierTest, RefinedChainTwoLevels) {
  SmallScenario s;
  QGenConfig config = s.Config();
  InstanceVerifier verifier(config);

  Instantiation root = Instantiation::MostRelaxed(*s.tmpl);
  EvaluatedPtr e0 = verifier.Verify(root);

  Instantiation mid = root;
  mid.set_range_binding(0, 1);
  NodeSet rejected;
  EvaluatedPtr e1 = verifier.VerifyPartial(mid, {}, e0->matches, &rejected);

  Instantiation leaf = mid;
  leaf.set_edge_binding(0, 1);
  EvaluatedPtr e2 = verifier.VerifyPartial(leaf, {}, e1->matches, &rejected);
  EvaluatedPtr full = verifier.Verify(leaf);
  EXPECT_EQ(e2->matches, full->matches);
}

TEST(VerifierTest, RelaxedVerificationMatchesFull) {
  SmallScenario s;
  QGenConfig config = s.Config();
  InstanceVerifier verifier(config);

  Instantiation bottom = Instantiation::MostRefined(*s.tmpl, *s.domains);
  EvaluatedPtr bottom_eval = verifier.Verify(bottom);
  // Every output candidate the bottom's matches leave open.
  const NodeSet& directors =
      s.graph.NodesWithLabel(s.tmpl->node_label(s.tmpl->output_node()));
  NodeSet open;
  std::set_difference(directors.begin(), directors.end(),
                      bottom_eval->matches.begin(), bottom_eval->matches.end(),
                      std::back_inserter(open));

  auto children = LatticeNeighbors::RelaxChildren(*s.tmpl, bottom);
  ASSERT_FALSE(children.empty());
  for (const LatticeStep& step : children) {
    NodeSet rejected;
    EvaluatedPtr partial = verifier.VerifyPartial(
        step.inst, bottom_eval->matches, open, &rejected);
    EvaluatedPtr full = verifier.Verify(step.inst);
    EXPECT_EQ(partial->matches, full->matches);
    EXPECT_EQ(partial->obj.diversity, full->obj.diversity);  // Same set.
    EXPECT_DOUBLE_EQ(partial->obj.coverage, full->obj.coverage);
  }
}

TEST(VerifierTest, Lemma2MonotonicityAcrossLattice) {
  // Sweep the full space and check Lemma 2 on every comparable pair:
  // q' refines q  =>  q'(G) ⊆ q(G), δ(q') <= δ(q), and f(q') >= f(q)
  // when both are feasible.
  SmallScenario s;
  QGenConfig config = s.Config();
  InstanceVerifier verifier(config);
  GenStats stats;
  auto all = VerifyAllInstances(config, &verifier, &stats).ValueOrDie();
  ASSERT_GT(all.size(), 10u);
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = 0; j < all.size(); ++j) {
      if (i == j) continue;
      const EvaluatedPtr& a = all[i];
      const EvaluatedPtr& b = all[j];
      if (!b->inst.Refines(a->inst)) continue;
      EXPECT_LE(b->obj.diversity, a->obj.diversity + 1e-9);
      EXPECT_TRUE(std::includes(a->matches.begin(), a->matches.end(),
                                b->matches.begin(), b->matches.end()));
      if (a->feasible && b->feasible) {
        EXPECT_GE(b->obj.coverage, a->obj.coverage - 1e-9);
      }
      if (!a->feasible) {
        EXPECT_FALSE(b->feasible);
      }
    }
  }
}

}  // namespace
}  // namespace fairsqg
