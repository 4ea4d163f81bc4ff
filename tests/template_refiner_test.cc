#include "core/template_refiner.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/enumerate.h"
#include "graph/graph_builder.h"
#include "graph/neighborhood.h"
#include "matching/subgraph_matcher.h"
#include "workload/scenario.h"

namespace fairsqg {
namespace {

/// The reference body: materializes the whole G_q^d membership mask, then
/// scans every node of each literal's label (range variables) and every
/// out-edge of each edge variable's source label (edge variables).
RefinementHints ReferenceHints(const Graph& g, const QueryTemplate& tmpl,
                               const VariableDomains& domains,
                               const NodeSet& matches) {
  RefinementHints hints = RefinementHints::None(tmpl);
  std::vector<bool> mask = DHopMask(g, matches, tmpl.Diameter());
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    const LiteralTemplate& l = tmpl.literals()[tmpl.literal_of_var(x)];
    const std::vector<AttrValue>& values = domains.values(x);
    std::vector<bool> keep(values.size(), false);
    for (NodeId v : g.NodesWithLabel(tmpl.node_label(l.node))) {
      if (!mask[v]) continue;
      const AttrValue* value = g.GetAttr(v, l.attr);
      if (value == nullptr) continue;
      const size_t satisfied = static_cast<size_t>(
          std::partition_point(values.begin(), values.end(),
                               [&](const AttrValue& bound) {
                                 return value->Compare(l.op, bound);
                               }) -
          values.begin());
      if (satisfied > 0) keep[satisfied - 1] = true;
    }
    hints.restrict_range[x] = true;
    for (size_t i = 0; i < values.size(); ++i) {
      if (keep[i]) {
        hints.allowed_range_indexes[x].push_back(static_cast<int32_t>(i));
      }
    }
  }
  for (EdgeVarId x = 0; x < tmpl.num_edge_vars(); ++x) {
    const QueryEdge& e = tmpl.edge(tmpl.edge_of_var(x));
    bool exists = false;
    for (NodeId v : g.NodesWithLabel(tmpl.node_label(e.from))) {
      if (!mask[v]) continue;
      for (const AdjEntry& adj : g.OutEdges(v)) {
        if (adj.edge_label == e.label && mask[adj.neighbor] &&
            g.node_label(adj.neighbor) == tmpl.node_label(e.to)) {
          exists = true;
        }
      }
    }
    hints.edge_fixed_zero[x] = !exists;
  }
  return hints;
}

/// "" when `got` equals the reference hints for `matches`, else a
/// description of the first difference.
std::string DiffFromReference(const Graph& g, const QueryTemplate& tmpl,
                              const VariableDomains& domains,
                              const NodeSet& matches,
                              const RefinementHints& got) {
  const RefinementHints want = ReferenceHints(g, tmpl, domains, matches);
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    if (got.restrict_range[x] != want.restrict_range[x] ||
        got.allowed_range_indexes[x] != want.allowed_range_indexes[x]) {
      return "range variable " + std::to_string(x);
    }
  }
  for (EdgeVarId x = 0; x < tmpl.num_edge_vars(); ++x) {
    if (got.edge_fixed_zero[x] != want.edge_fixed_zero[x]) {
      return "edge variable " + std::to_string(x);
    }
  }
  return "";
}

std::string DiffFromReference(const Graph& g, const QueryTemplate& tmpl,
                              const VariableDomains& domains,
                              const NodeSet& matches) {
  return DiffFromReference(
      g, tmpl, domains, matches,
      ComputeRefinementHints(g, tmpl, domains, matches));
}

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

TEST(TemplateRefinerTest, EdgeCasesMatchReference) {
  Fixture f;
  // Empty q(G), a seed id >= |V| (ignored), duplicate seeds, every single
  // node, and the whole graph as seeds.
  std::vector<NodeSet> seed_sets = {{}, {3, 1000}, {1000}, {3, 3}, {}};
  for (NodeId v = 0; v < f.graph.num_nodes(); ++v) seed_sets.push_back({v});
  for (NodeId v = 0; v < f.graph.num_nodes(); ++v) seed_sets.back().push_back(v);
  for (const NodeSet& seeds : seed_sets) {
    EXPECT_EQ(DiffFromReference(f.graph, f.tmpl, f.domains, seeds), "")
        << "seeds of size " << seeds.size();
  }
}

TEST(TemplateRefinerTest, OneNodeTemplateSeesOnlyTheSeeds) {
  // Diameter 0: G_q^d is q(G) itself.
  Fixture f;
  QueryTemplate tmpl(f.schema);
  QNodeId u = tmpl.AddNode("user");
  tmpl.SetOutputNode(u);
  tmpl.AddRangeLiteral(u, "yearsOfExp", CompareOp::kGe);  // x0
  ASSERT_EQ(tmpl.Diameter(), 0);
  VariableDomains domains = VariableDomains::Build(f.graph, tmpl).ValueOrDie();
  ASSERT_EQ(domains.size(0), 5u);  // {5, 10, 12, 40, 50}
  RefinementHints hints =
      ComputeRefinementHints(f.graph, tmpl, domains, {1, 4});
  EXPECT_EQ(hints.allowed_range_indexes[0], (std::vector<int32_t>{1, 3}));
  for (NodeId v = 0; v < f.graph.num_nodes(); ++v) {
    EXPECT_EQ(DiffFromReference(f.graph, tmpl, domains, {v}), "") << v;
  }
}

TEST(TemplateRefinerTest, EdgeVariableOnAbsentLabelTripleStaysPinned) {
  // No "recommend" edge runs from a director to a user (only the reverse
  // direction occurs), so the edge variable's ceiling is 0: it is pinned
  // whatever the seeds, even when every node is reached.
  Fixture f;
  QueryTemplate tmpl(f.schema);
  QNodeId d = tmpl.AddNode("director");
  QNodeId u = tmpl.AddNode("user");
  tmpl.SetOutputNode(d);
  tmpl.AddRangeLiteral(u, "yearsOfExp", CompareOp::kLe);  // x0
  tmpl.AddEdge(u, d, "recommend");
  tmpl.AddVariableEdge(d, u, "recommend");                // e0
  VariableDomains domains = VariableDomains::Build(f.graph, tmpl).ValueOrDie();
  NodeSet all(f.graph.num_nodes());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  for (const NodeSet& seeds : {NodeSet{3}, NodeSet{6}, all}) {
    RefinementHints hints = ComputeRefinementHints(f.graph, tmpl, domains, seeds);
    EXPECT_TRUE(hints.edge_fixed_zero[0]);
    EXPECT_EQ(DiffFromReference(f.graph, tmpl, domains, seeds, hints), "");
  }
}

TEST(TemplateRefinerTest, ManyCallsOnOneThreadReuseScratch) {
  // Alternates between two graphs of different sizes and seed sets of
  // different reach, so each call runs over visited stamps left behind by
  // the previous ones (and the scratch grows mid-sequence).
  Fixture small;
  Result<Scenario> large = [] {
    ScenarioOptions options;
    options.dataset = "dbp";
    options.scale = 0.05;
    options.seed = 3;
    options.coverage_fraction = 0.55;
    return MakeScenario(options);
  }();
  ASSERT_TRUE(large.ok()) << large.status().ToString();
  const Graph& g = large->dataset.graph;
  for (int call = 0; call < 600; ++call) {
    const NodeId v = static_cast<NodeId>(call * 7919 % g.num_nodes());
    ASSERT_EQ(DiffFromReference(g, *large->tmpl, *large->domains, {v}), "")
        << "call " << call;
    const NodeSet seeds =
        call % 3 == 0 ? NodeSet{} : NodeSet{static_cast<NodeId>(call % 7)};
    ASSERT_EQ(
        DiffFromReference(small.graph, small.tmpl, small.domains, seeds), "")
        << "call " << call;
  }
}

/// Every feasible instance of a scenario's full lattice: its match set.
std::vector<NodeSet> FeasibleMatchSets(const Scenario& scenario) {
  QGenConfig config = scenario.MakeConfig(0.05);
  InstanceVerifier verifier(config);
  GenStats stats;
  std::vector<NodeSet> out;
  for (const EvaluatedPtr& e : FeasibleOnly(
           VerifyAllInstances(config, &verifier, &stats).ValueOrDie())) {
    out.push_back(e->matches);
  }
  return out;
}

class TemplateRefinerDifferentialTest
    : public testing::TestWithParam<const char*> {};

TEST_P(TemplateRefinerDifferentialTest, LatticeHintsMatchReference) {
  // Hints of every feasible instance equal the reference body's, computed
  // from one thread and, interleaved, from several (each with its own
  // scratch).
  constexpr size_t kThreads = 3;
  size_t compared = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    ScenarioOptions options;
    options.dataset = GetParam();
    options.scale = std::string(GetParam()) == "dbp" ? 0.05 : 0.1;
    options.seed = seed;
    options.template_seed = seed * 97 + 1;
    options.num_edges = 3;
    options.num_range_vars = 2;
    options.num_edge_vars = 1;
    options.coverage_fraction = 0.55;
    Result<Scenario> scenario = MakeScenario(options);
    if (!scenario.ok()) continue;
    const Graph& g = scenario->dataset.graph;
    const QueryTemplate& tmpl = *scenario->tmpl;
    const VariableDomains& domains = *scenario->domains;
    const std::vector<NodeSet> match_sets = FeasibleMatchSets(*scenario);
    for (const NodeSet& matches : match_sets) {
      EXPECT_EQ(DiffFromReference(g, tmpl, domains, matches), "")
          << GetParam() << " seed " << seed << " |q(G)| " << matches.size();
    }
    std::vector<std::string> diffs(match_sets.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < match_sets.size(); i += kThreads) {
          diffs[i] = DiffFromReference(g, tmpl, domains, match_sets[i]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (size_t i = 0; i < diffs.size(); ++i) {
      EXPECT_EQ(diffs[i], "") << GetParam() << " seed " << seed
                              << " instance " << i << " (threaded)";
    }
    compared += match_sets.size();
  }
  EXPECT_GT(compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(Datasets, TemplateRefinerDifferentialTest,
                         testing::Values("dbp", "lki", "cite"));

}  // namespace
}  // namespace fairsqg
