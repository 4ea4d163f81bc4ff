#include "core/verifier.h"

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

TEST(VerifierTest, RefinedVerificationMatchesFull) {
  SmallScenario s;
  QGenConfig config = s.Config();
  InstanceVerifier verifier(config);

  Instantiation root = Instantiation::MostRelaxed(*s.tmpl);
  auto root_cands = std::make_shared<CandidateSpace>();
  EvaluatedPtr root_eval = verifier.Verify(root, nullptr, root_cands.get());
  const VerifyContext root_ctx{root_eval, root_cands};

  // Walk every one-step refinement and compare incremental vs full.
  auto children = LatticeNeighbors::RefineChildren(
      *s.tmpl, *s.domains, root, RefinementHints::None(*s.tmpl));
  ASSERT_FALSE(children.empty());
  for (const LatticeStep& step : children) {
    EvaluatedPtr inc = verifier.Verify(step.inst, &root_ctx);
    EvaluatedPtr full = verifier.Verify(step.inst);
    EXPECT_EQ(inc->matches, full->matches);
    EXPECT_EQ(inc->obj.diversity, full->obj.diversity);  // Same set, same δ.
    EXPECT_DOUBLE_EQ(inc->obj.coverage, full->obj.coverage);
    EXPECT_EQ(inc->feasible, full->feasible);
  }
}

TEST(VerifierTest, RefinedChainTwoLevels) {
  SmallScenario s;
  QGenConfig config = s.Config();
  InstanceVerifier verifier(config);

  Instantiation root = Instantiation::MostRelaxed(*s.tmpl);
  auto c0 = std::make_shared<CandidateSpace>();
  EvaluatedPtr e0 = verifier.Verify(root, nullptr, c0.get());

  Instantiation mid = root;
  mid.set_range_binding(0, 1);
  auto c1 = std::make_shared<CandidateSpace>();
  const VerifyContext ctx0{e0, c0};
  EvaluatedPtr e1 = verifier.Verify(mid, &ctx0, c1.get());

  Instantiation leaf = mid;
  leaf.set_edge_binding(0, 1);
  const VerifyContext ctx1{e1, c1};
  EvaluatedPtr e2 = verifier.Verify(leaf, &ctx1);
  EvaluatedPtr full = verifier.Verify(leaf);
  EXPECT_EQ(e2->matches, full->matches);
}

TEST(VerifierTest, RelaxedVerificationMatchesFull) {
  SmallScenario s;
  QGenConfig config = s.Config();
  InstanceVerifier verifier(config);

  Instantiation bottom = Instantiation::MostRefined(*s.tmpl, *s.domains);
  EvaluatedPtr bottom_eval = verifier.Verify(bottom);
  const VerifyContext bottom_ctx{bottom_eval, nullptr};

  auto children = LatticeNeighbors::RelaxChildren(*s.tmpl, *s.domains, bottom);
  ASSERT_FALSE(children.empty());
  for (const LatticeStep& step : children) {
    EvaluatedPtr inc = verifier.Verify(step.inst, &bottom_ctx);
    EvaluatedPtr full = verifier.Verify(step.inst);
    EXPECT_EQ(inc->matches, full->matches);
    EXPECT_EQ(inc->obj.diversity, full->obj.diversity);  // Same set, same δ.
    EXPECT_DOUBLE_EQ(inc->obj.coverage, full->obj.coverage);
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

TEST(VerifierTest, IncrementalDisabledFallsBackToFull) {
  SmallScenario s;
  QGenConfig config = s.Config();
  config.use_incremental_verify = false;
  InstanceVerifier verifier(config);
  Instantiation root = Instantiation::MostRelaxed(*s.tmpl);
  auto cands = std::make_shared<CandidateSpace>();
  EvaluatedPtr root_eval = verifier.Verify(root, nullptr, cands.get());
  Instantiation child = root;
  child.set_range_binding(0, 0);
  const VerifyContext ctx{root_eval, cands};
  EvaluatedPtr inc = verifier.Verify(child, &ctx);
  EvaluatedPtr full = verifier.Verify(child);
  EXPECT_EQ(inc->matches, full->matches);
}

}  // namespace
}  // namespace fairsqg
