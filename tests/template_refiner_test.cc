#include "core/template_refiner.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "matching/subgraph_matcher.h"

namespace fairsqg {
namespace {

// Two "clusters": matches live in cluster A; cluster B holds users with
// exotic attribute values that template refinement must rule out.
struct Fixture {
  std::shared_ptr<Schema> schema = std::make_shared<Schema>();
  Graph graph;
  QueryTemplate tmpl;
  VariableDomains domains;

  Fixture() : graph(MakeGraph()), tmpl(schema), domains(MakeTemplate()) {}

  Graph MakeGraph() {
    GraphBuilder b(schema);
    // Cluster A: users 0-2 (exp 5, 10, 12) recommending director 3.
    for (int exp : {5, 10, 12}) {
      NodeId u = b.AddNode("user");
      b.SetAttr(u, "yearsOfExp", AttrValue(int64_t{exp}));
    }
    NodeId dir_a = b.AddNode("director");
    for (NodeId u = 0; u < 3; ++u) b.AddEdge(u, dir_a, "recommend");
    // Cluster B: far-away users with exp 40, 50 recommending director 6,
    // who lacks the required 'domain' attribute (never matches).
    for (int exp : {40, 50}) {
      NodeId u = b.AddNode("user");
      b.SetAttr(u, "yearsOfExp", AttrValue(int64_t{exp}));
    }
    NodeId dir_b = b.AddNode("director");
    b.AddEdge(4, dir_b, "recommend");
    b.AddEdge(5, dir_b, "recommend");
    b.SetAttr(dir_a, "domain", AttrValue(std::string("IT")));
    // Only cluster B has a coReview edge (between its two users).
    b.AddEdge(4, 5, "coReview");
    return std::move(b).Build().ValueOrDie();
  }

  VariableDomains MakeTemplate() {
    QNodeId d = tmpl.AddNode("director");
    QNodeId u = tmpl.AddNode("user");
    QNodeId u2 = tmpl.AddNode("user");
    tmpl.SetOutputNode(d);
    tmpl.AddLiteral(d, "domain", CompareOp::kEq, AttrValue(std::string("IT")));
    tmpl.AddRangeLiteral(u, "yearsOfExp", CompareOp::kGe);  // x0
    tmpl.AddEdge(u, d, "recommend");
    tmpl.AddVariableEdge(u2, u, "coReview");                // e0
    return VariableDomains::Build(graph, tmpl).ValueOrDie();
  }
};

TEST(TemplateRefinerTest, RestrictsDomainToNeighborhoodValues) {
  Fixture f;
  // Matches of the most relaxed instance: only director 3 (cluster A).
  SubgraphMatcher matcher(f.graph);
  QueryInstance root = QueryInstance::Materialize(
      f.tmpl, f.domains, Instantiation::MostRelaxed(f.tmpl));
  NodeSet matches = matcher.MatchOutput(root);
  ASSERT_EQ(matches, NodeSet({3}));

  RefinementHints hints =
      ComputeRefinementHints(f.graph, f.tmpl, f.domains, matches);
  ASSERT_TRUE(hints.restrict_range[0]);
  // Full domain is {5, 10, 12, 40, 50}; G_q^d only contains cluster A, so
  // 40 and 50 (indexes 3, 4) must be excluded.
  ASSERT_EQ(f.domains.size(0), 5u);
  EXPECT_EQ(hints.allowed_range_indexes[0],
            (std::vector<int32_t>{0, 1, 2}));
}

TEST(TemplateRefinerTest, PinsEdgeVariableWithoutMatchingEdge) {
  Fixture f;
  SubgraphMatcher matcher(f.graph);
  QueryInstance root = QueryInstance::Materialize(
      f.tmpl, f.domains, Instantiation::MostRelaxed(f.tmpl));
  NodeSet matches = matcher.MatchOutput(root);
  RefinementHints hints =
      ComputeRefinementHints(f.graph, f.tmpl, f.domains, matches);
  // The only coReview edge lives in cluster B, outside G_q^d.
  EXPECT_TRUE(hints.edge_fixed_zero[0]);
}

TEST(TemplateRefinerTest, KeepsEdgeVariableWhenEdgeExistsNearby) {
  Fixture f;
  // Seed the neighborhood from cluster B instead: coReview exists there.
  RefinementHints hints =
      ComputeRefinementHints(f.graph, f.tmpl, f.domains, {6});
  EXPECT_FALSE(hints.edge_fixed_zero[0]);
  // And the allowed values flip to cluster B's {40, 50} (indexes 3, 4).
  EXPECT_EQ(hints.allowed_range_indexes[0], (std::vector<int32_t>{3, 4}));
}

TEST(TemplateRefinerTest, EmptyMatchesBlockEverything) {
  Fixture f;
  RefinementHints hints = ComputeRefinementHints(f.graph, f.tmpl, f.domains, {});
  EXPECT_TRUE(hints.restrict_range[0]);
  EXPECT_TRUE(hints.allowed_range_indexes[0].empty());
  EXPECT_TRUE(hints.edge_fixed_zero[0]);
}

TEST(TemplateRefinerTest, SkippedValuesCannotChangeMatchSets) {
  // The soundness property behind the hints: for every domain index the
  // hints exclude, binding it yields the same match set as binding the
  // next allowed index (or the refinement is vacuous).
  Fixture f;
  SubgraphMatcher matcher(f.graph);
  QueryInstance root = QueryInstance::Materialize(
      f.tmpl, f.domains, Instantiation::MostRelaxed(f.tmpl));
  NodeSet matches = matcher.MatchOutput(root);
  RefinementHints hints =
      ComputeRefinementHints(f.graph, f.tmpl, f.domains, matches);
  const auto& allowed = hints.allowed_range_indexes[0];
  for (int32_t idx = 0; idx < static_cast<int32_t>(f.domains.size(0)); ++idx) {
    if (std::find(allowed.begin(), allowed.end(), idx) != allowed.end()) continue;
    // Skipped index: match set equals that of the next allowed index above
    // (or empty when none remains).
    Instantiation skipped({idx}, {0});
    NodeSet skipped_matches = matcher.MatchOutput(
        QueryInstance::Materialize(f.tmpl, f.domains, skipped));
    auto it = std::upper_bound(allowed.begin(), allowed.end(), idx);
    if (it == allowed.end()) {
      EXPECT_TRUE(skipped_matches.empty());
    } else {
      Instantiation next({*it}, {0});
      NodeSet next_matches = matcher.MatchOutput(
          QueryInstance::Materialize(f.tmpl, f.domains, next));
      EXPECT_EQ(skipped_matches, next_matches) << "index " << idx;
    }
  }
}

TEST(TemplateRefinerTest, NeighborhoodValueBetweenDomainValuesKeepsLowerIndex) {
  // On a coarsened domain a G_q^d value may fall strictly between two
  // domain values. Users with yearsOfExp 10 and 12 recommend IT directors
  // 5 and 6; far-away users (5, 20, 50) recommend director 7, who lacks
  // the 'domain' attribute. The full domain {5, 10, 12, 20, 50} coarsens
  // to {5, 12, 50}, and G_q^d holds only 10 and 12: 5 itself does not
  // occur there, yet binding ">= 5" admits director 5 and ">= 12" does
  // not, so index 0 must stay.
  auto schema = std::make_shared<Schema>();
  GraphBuilder b(schema);
  for (int exp : {10, 12, 5, 20, 50}) {
    NodeId u = b.AddNode("user");
    b.SetAttr(u, "yearsOfExp", AttrValue(int64_t{exp}));
  }
  for (int i = 0; i < 3; ++i) b.AddNode("director");
  b.AddEdge(0, 5, "recommend");
  b.AddEdge(1, 6, "recommend");
  for (NodeId u : {2, 3, 4}) b.AddEdge(u, 7, "recommend");
  b.SetAttr(5, "domain", AttrValue(std::string("IT")));
  b.SetAttr(6, "domain", AttrValue(std::string("IT")));
  Graph graph = std::move(b).Build().ValueOrDie();

  QueryTemplate tmpl(schema);
  QNodeId d = tmpl.AddNode("director");
  QNodeId u = tmpl.AddNode("user");
  tmpl.SetOutputNode(d);
  tmpl.AddLiteral(d, "domain", CompareOp::kEq, AttrValue(std::string("IT")));
  tmpl.AddRangeLiteral(u, "yearsOfExp", CompareOp::kGe);  // x0
  tmpl.AddEdge(u, d, "recommend");
  VariableDomains domains =
      VariableDomains::Build(graph, tmpl).ValueOrDie().Coarsened(3);
  ASSERT_EQ(domains.size(0), 3u);
  ASSERT_EQ(domains.value(0, 0), AttrValue(int64_t{5}));
  ASSERT_EQ(domains.value(0, 1), AttrValue(int64_t{12}));

  SubgraphMatcher matcher(graph);
  auto match = [&](int32_t idx) {
    return matcher.MatchOutput(
        QueryInstance::Materialize(tmpl, domains, Instantiation({idx}, {})));
  };
  NodeSet root = match(kWildcardBinding);
  ASSERT_EQ(root, NodeSet({5, 6}));
  RefinementHints hints = ComputeRefinementHints(graph, tmpl, domains, root);
  EXPECT_EQ(hints.allowed_range_indexes[0], (std::vector<int32_t>{0, 1}));

  // Every skipped index has the match set of the next kept one.
  const auto& allowed = hints.allowed_range_indexes[0];
  for (int32_t idx = 0; idx < static_cast<int32_t>(domains.size(0)); ++idx) {
    if (std::find(allowed.begin(), allowed.end(), idx) != allowed.end()) {
      continue;
    }
    auto it = std::upper_bound(allowed.begin(), allowed.end(), idx);
    EXPECT_EQ(match(idx), it == allowed.end() ? NodeSet{} : match(*it))
        << "index " << idx;
  }
}

}  // namespace
}  // namespace fairsqg
