#include "matching/subgraph_matcher.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "matching/brute_force.h"

namespace fairsqg {
namespace {

struct TalentFixture {
  std::shared_ptr<Schema> schema = std::make_shared<Schema>();
  Graph graph;
  QueryTemplate tmpl;
  VariableDomains domains;

  TalentFixture() : graph(MakeGraph()), tmpl(schema), domains(MakeTemplate()) {}

  // Users 0..3 (exp 12, 8, 15, 3), directors 4, 5, org 6.
  // 0 -rec-> 4, 1 -rec-> 4, 2 -rec-> 5, 0 -worksAt-> 6, 2 -worksAt-> 6.
  Graph MakeGraph() {
    GraphBuilder b(schema);
    int exps[] = {12, 8, 15, 3};
    for (int e : exps) {
      NodeId v = b.AddNode("user");
      b.SetAttr(v, "yearsOfExp", AttrValue(int64_t{e}));
    }
    b.AddNode("director");
    b.AddNode("director");
    NodeId org = b.AddNode("org");
    b.SetAttr(org, "employees", AttrValue(int64_t{1000}));
    b.AddEdge(0, 4, "recommend");
    b.AddEdge(1, 4, "recommend");
    b.AddEdge(2, 5, "recommend");
    b.AddEdge(0, 6, "worksAt");
    b.AddEdge(2, 6, "worksAt");
    return std::move(b).Build().ValueOrDie();
  }

  // u0(user, exp >= x0) -recommend-> u1(director, output).
  VariableDomains MakeTemplate() {
    QNodeId u0 = tmpl.AddNode("user");
    QNodeId u1 = tmpl.AddNode("director");
    tmpl.SetOutputNode(u1);
    tmpl.AddRangeLiteral(u0, "yearsOfExp", CompareOp::kGe);
    tmpl.AddEdge(u0, u1, "recommend");
    return VariableDomains::Build(graph, tmpl).ValueOrDie();
  }

  QueryInstance Materialize(int32_t x0) {
    return QueryInstance::Materialize(tmpl, domains, Instantiation({x0}, {}));
  }
};

TEST(SubgraphMatcherTest, WildcardMatchesAllRecommendedDirectors) {
  TalentFixture f;
  SubgraphMatcher m(f.graph);
  QueryInstance q = f.Materialize(kWildcardBinding);
  EXPECT_EQ(m.MatchOutput(q), NodeSet({4, 5}));
}

TEST(SubgraphMatcherTest, PredicateFiltersRecommenders) {
  TalentFixture f;
  SubgraphMatcher m(f.graph);
  // Domain ascending {3, 8, 12, 15}; index 2 -> exp >= 12: users 0 and 2.
  QueryInstance q = f.Materialize(2);
  EXPECT_EQ(m.MatchOutput(q), NodeSet({4, 5}));
  // Index 3 -> exp >= 15: only user 2 -> only director 5.
  QueryInstance q2 = f.Materialize(3);
  EXPECT_EQ(m.MatchOutput(q2), NodeSet({5}));
}

TEST(SubgraphMatcherTest, DirectionMatters) {
  TalentFixture f;
  // Reverse the edge: director -recommend-> user never occurs in the data.
  QueryTemplate t(f.schema);
  QNodeId u0 = t.AddNode("user");
  QNodeId u1 = t.AddNode("director");
  t.SetOutputNode(u1);
  t.AddEdge(u1, u0, "recommend");
  VariableDomains d = VariableDomains::Build(f.graph, t).ValueOrDie();
  QueryInstance q = QueryInstance::Materialize(t, d, Instantiation::MostRelaxed(t));
  SubgraphMatcher m(f.graph);
  EXPECT_TRUE(m.MatchOutput(q).empty());
}

TEST(SubgraphMatcherTest, EdgeLabelMatters) {
  TalentFixture f;
  QueryTemplate t(f.schema);
  QNodeId u0 = t.AddNode("user");
  QNodeId u1 = t.AddNode("director");
  t.SetOutputNode(u1);
  t.AddEdge(u0, u1, "worksAt");  // No user worksAt a director.
  VariableDomains d = VariableDomains::Build(f.graph, t).ValueOrDie();
  QueryInstance q = QueryInstance::Materialize(t, d, Instantiation::MostRelaxed(t));
  SubgraphMatcher m(f.graph);
  EXPECT_TRUE(m.MatchOutput(q).empty());
}

TEST(SubgraphMatcherTest, InjectivityRequiresDistinctRecommenders) {
  TalentFixture f;
  // Two distinct users recommending the same director: only director 4.
  QueryTemplate t(f.schema);
  QNodeId a = t.AddNode("user");
  QNodeId b = t.AddNode("user");
  QNodeId dir = t.AddNode("director");
  t.SetOutputNode(dir);
  t.AddEdge(a, dir, "recommend");
  t.AddEdge(b, dir, "recommend");
  VariableDomains d = VariableDomains::Build(f.graph, t).ValueOrDie();
  QueryInstance q = QueryInstance::Materialize(t, d, Instantiation::MostRelaxed(t));
  SubgraphMatcher m(f.graph);
  EXPECT_EQ(m.MatchOutput(q), NodeSet({4}));
}

TEST(SubgraphMatcherTest, SingleNodeQueryMatchesByPredicate) {
  TalentFixture f;
  QueryTemplate t(f.schema);
  QNodeId u = t.AddNode("user");
  t.AddLiteral(u, "yearsOfExp", CompareOp::kGt, AttrValue(int64_t{10}));
  VariableDomains d = VariableDomains::Build(f.graph, t).ValueOrDie();
  QueryInstance q = QueryInstance::Materialize(t, d, Instantiation::MostRelaxed(t));
  SubgraphMatcher m(f.graph);
  EXPECT_EQ(m.MatchOutput(q), NodeSet({0, 2}));
}

TEST(SubgraphMatcherTest, OutputRestrictLimitsResults) {
  TalentFixture f;
  SubgraphMatcher m(f.graph);
  QueryInstance q = f.Materialize(kWildcardBinding);
  CandidateSpace cands = CandidateSpace::Build(f.graph, q);
  NodeSet restrict_to = {5};
  EXPECT_EQ(m.MatchOutput(q, cands, &restrict_to), NodeSet({5}));
  NodeSet empty;
  EXPECT_TRUE(m.MatchOutput(q, cands, &empty).empty());
}

TEST(SubgraphMatcherTest, StatsAccumulate) {
  TalentFixture f;
  SubgraphMatcher m(f.graph);
  m.MatchOutput(f.Materialize(0));
  EXPECT_EQ(m.stats().instances_matched, 1u);
  EXPECT_GT(m.stats().output_candidates_tested, 0u);
  m.mutable_stats().Reset();
  EXPECT_EQ(m.stats().instances_matched, 0u);
}

// ---------------------------------------------------------------------------
// Randomized cross-validation against the brute-force reference matcher.
// ---------------------------------------------------------------------------

class MatcherRandomTest : public testing::TestWithParam<int> {};

TEST_P(MatcherRandomTest, AgreesWithBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  auto schema = std::make_shared<Schema>();

  // Random labelled graph with 1-2 numeric attrs per node.
  GraphBuilder b(schema);
  const int n = 14;
  const char* labels[] = {"a", "b", "c"};
  const char* elabels[] = {"e", "f"};
  for (int i = 0; i < n; ++i) {
    NodeId v = b.AddNode(labels[rng.NextBounded(3)]);
    b.SetAttr(v, "p", AttrValue(rng.NextInRange(0, 5)));
    if (rng.NextBernoulli(0.7)) {
      b.SetAttr(v, "q", AttrValue(rng.NextInRange(0, 3)));
    }
  }
  for (int i = 0; i < 30; ++i) {
    NodeId from = static_cast<NodeId>(rng.NextBounded(n));
    NodeId to = static_cast<NodeId>(rng.NextBounded(n));
    if (from != to) b.AddEdge(from, to, elabels[rng.NextBounded(2)]);
  }
  Graph g = std::move(b).Build().ValueOrDie();

  // Random connected template of 3-4 nodes with literals and optional edges.
  QueryTemplate t(schema);
  int qn = 3 + static_cast<int>(rng.NextBounded(2));
  for (int i = 0; i < qn; ++i) t.AddNode(labels[rng.NextBounded(3)]);
  t.SetOutputNode(static_cast<QNodeId>(rng.NextBounded(qn)));
  for (int i = 1; i < qn; ++i) {
    // Tree backbone keeps the template connected.
    QNodeId other = static_cast<QNodeId>(rng.NextBounded(i));
    if (rng.NextBernoulli(0.5)) {
      t.AddEdge(static_cast<QNodeId>(i), other, elabels[rng.NextBounded(2)]);
    } else {
      t.AddEdge(other, static_cast<QNodeId>(i), elabels[rng.NextBounded(2)]);
    }
  }
  if (rng.NextBernoulli(0.6)) {
    QNodeId x = static_cast<QNodeId>(rng.NextBounded(qn));
    QNodeId y = static_cast<QNodeId>(rng.NextBounded(qn));
    const char* el = elabels[rng.NextBounded(2)];
    LabelId el_id = schema->EdgeLabelId(el);
    bool duplicate = false;
    for (const QueryEdge& e : t.edges()) {
      if (e.from == x && e.to == y && e.label == el_id) duplicate = true;
    }
    if (x != y && !duplicate) t.AddVariableEdge(x, y, el);
  }
  RangeVarId var =
      t.AddRangeLiteral(static_cast<QNodeId>(rng.NextBounded(qn)), "p",
                        rng.NextBernoulli(0.5) ? CompareOp::kGe : CompareOp::kLe);
  ASSERT_TRUE(t.Validate().ok());
  VariableDomains d = VariableDomains::Build(g, t).ValueOrDie();

  SubgraphMatcher m(g);
  // Exercise several instantiations per topology.
  int max_idx = static_cast<int>(d.size(var));
  for (int32_t binding = -1; binding < max_idx; ++binding) {
    for (uint8_t eb = 0; eb < (t.num_edge_vars() > 0 ? 2 : 1); ++eb) {
      std::vector<uint8_t> edge_bindings(t.num_edge_vars(), eb);
      QueryInstance q = QueryInstance::Materialize(
          t, d, Instantiation({binding}, std::move(edge_bindings)));
      NodeSet fast = m.MatchOutput(q);
      NodeSet slow = BruteForceMatchOutput(g, q);
      ASSERT_EQ(fast, slow) << "seed=" << GetParam() << " binding=" << binding
                            << " edges=" << static_cast<int>(eb) << "\n"
                            << q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherRandomTest, testing::Range(0, 25));

}  // namespace
}  // namespace fairsqg
