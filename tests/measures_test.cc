#include "core/measures.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "core/enumerate.h"
#include "graph/graph_builder.h"
#include "matching/subgraph_matcher.h"
#include "query/instance.h"
#include "scenario_fixture.h"
#include "workload/datasets.h"

namespace fairsqg {
namespace {

// Four movies: two identical action movies, one different romance, one with
// a missing genre; degrees 3, 2, 1, 0 via "directed" edges from a director.
struct Fixture {
  Graph graph = MakeGraph();
  LabelId movie;

  static Graph MakeGraph() {
    GraphBuilder b;
    NodeId m0 = b.AddNode("movie");
    b.SetAttr(m0, "genre", AttrValue(std::string("action")));
    b.SetAttr(m0, "rating", AttrValue(6.0));
    NodeId m1 = b.AddNode("movie");
    b.SetAttr(m1, "genre", AttrValue(std::string("action")));
    b.SetAttr(m1, "rating", AttrValue(6.0));
    NodeId m2 = b.AddNode("movie");
    b.SetAttr(m2, "genre", AttrValue(std::string("romance")));
    b.SetAttr(m2, "rating", AttrValue(9.0));
    NodeId m3 = b.AddNode("movie");
    b.SetAttr(m3, "rating", AttrValue(3.0));
    NodeId d0 = b.AddNode("director");
    NodeId d1 = b.AddNode("director");
    NodeId d2 = b.AddNode("director");
    b.AddEdge(d0, m0, "directed");
    b.AddEdge(d1, m0, "directed");
    b.AddEdge(d2, m0, "directed");
    b.AddEdge(d0, m1, "directed");
    b.AddEdge(d1, m1, "directed");
    b.AddEdge(d0, m2, "directed");
    return std::move(b).Build().ValueOrDie();
  }

  Fixture() { movie = graph.schema().NodeLabelId("movie"); }
};

TEST(DiversityTest, IdenticalNodesHaveZeroDistance) {
  Fixture f;
  DiversityEvaluator eval(f.graph, f.movie, DiversityConfig{});
  EXPECT_DOUBLE_EQ(eval.Distance(0, 1), 0.0);
}

TEST(DiversityTest, DistanceSymmetricAndBounded) {
  Fixture f;
  DiversityEvaluator eval(f.graph, f.movie, DiversityConfig{});
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      double d = eval.Distance(a, b);
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 1.0);
      EXPECT_DOUBLE_EQ(d, eval.Distance(b, a));
    }
  }
  EXPECT_DOUBLE_EQ(eval.Distance(2, 2), 0.0);
}

TEST(DiversityTest, MissingAttributeCountsAsDifferent) {
  Fixture f;
  DiversityEvaluator eval(f.graph, f.movie, DiversityConfig{});
  // m3 lacks genre; m0 has it -> genre contributes 1; rating |6-3|/6 = 0.5.
  // Average over 2 attrs: 0.75.
  EXPECT_NEAR(eval.Distance(0, 3), 0.75, 1e-9);
}

TEST(DiversityTest, NumericDistanceNormalizedByRange) {
  Fixture f;
  DiversityEvaluator eval(f.graph, f.movie, DiversityConfig{});
  // genre differs by the normalized edit distance of the two strings;
  // rating |6-9|/range(6) = 0.5; the distance averages over both attrs.
  double genre_d = NormalizedEditDistance("action", "romance");
  EXPECT_NEAR(eval.Distance(0, 2), (genre_d + 0.5) / 2.0, 1e-9);
}

TEST(DiversityTest, RelevanceIsNormalizedDegree) {
  Fixture f;
  DiversityEvaluator eval(f.graph, f.movie, DiversityConfig{});
  EXPECT_DOUBLE_EQ(eval.Relevance(0), 1.0);        // degree 3 of max 3.
  EXPECT_NEAR(eval.Relevance(1), 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(eval.Relevance(3), 0.0);
}

TEST(DiversityTest, LambdaZeroIsPureRelevance) {
  Fixture f;
  DiversityConfig cfg;
  cfg.lambda = 0.0;
  DiversityEvaluator eval(f.graph, f.movie, cfg);
  double expected = eval.Relevance(0) + eval.Relevance(2);
  EXPECT_NEAR(eval.Diversity({0, 2}), expected, 1e-9);
}

TEST(DiversityTest, LambdaOneIsPureDissimilarity) {
  Fixture f;
  DiversityConfig cfg;
  cfg.lambda = 1.0;
  DiversityEvaluator eval(f.graph, f.movie, cfg);
  // |V_movie| = 4 -> scale 2*1/(4-1) = 2/3.
  double expected = (2.0 / 3.0) * eval.Distance(0, 2);
  EXPECT_NEAR(eval.Diversity({0, 2}), expected, 1e-9);
}

TEST(DiversityTest, EmptyAndSingletonSets) {
  Fixture f;
  DiversityEvaluator eval(f.graph, f.movie, DiversityConfig{});
  EXPECT_DOUBLE_EQ(eval.Diversity({}), 0.0);
  EXPECT_GE(eval.Diversity({0}), 0.0);
}

TEST(DiversityTest, MonotoneUnderSupersets) {
  // Lemma 2's diversity direction: adding matches never lowers δ.
  Fixture f;
  DiversityEvaluator eval(f.graph, f.movie, DiversityConfig{});
  double d2 = eval.Diversity({0, 2});
  double d3 = eval.Diversity({0, 2, 3});
  double d4 = eval.Diversity({0, 1, 2, 3});
  EXPECT_LE(d2, d3);
  EXPECT_LE(d3, d4);
  EXPECT_LE(d4, eval.MaxDiversity());
}

TEST(DiversityTest, CustomRelevanceFn) {
  Fixture f;
  DiversityConfig cfg;
  cfg.lambda = 0.0;
  cfg.relevance = [](const Graph&, NodeId) { return 0.25; };
  DiversityEvaluator eval(f.graph, f.movie, cfg);
  EXPECT_NEAR(eval.Diversity({0, 1, 2, 3}), 1.0, 1e-9);
}

// A randomized movie graph for the differential tests: ~60
// movies with mixed numeric/categorical/missing attributes and skewed
// degrees, so the attribute cells exercise every AttrDistance branch.
Graph MakeRandomMovieGraph(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b;
  const char* genres[] = {"action", "romance", "thriller", "noir", "scifi"};
  std::vector<NodeId> movies;
  for (int i = 0; i < 60; ++i) {
    NodeId m = b.AddNode("movie");
    if (rng.NextBernoulli(0.85)) {
      b.SetAttr(m, "genre",
                AttrValue(std::string(genres[rng.NextBounded(5)])));
    }
    if (rng.NextBernoulli(0.9)) {
      b.SetAttr(m, "rating", AttrValue(1.0 + 9.0 * rng.NextDouble()));
    }
    movies.push_back(m);
  }
  for (int i = 0; i < 25; ++i) {
    NodeId d = b.AddNode("director");
    size_t fan = 1 + rng.NextZipf(8, 1.2);
    for (size_t j = 0; j < fan; ++j) {
      b.AddEdge(d, movies[rng.NextBounded(movies.size())], "directed");
    }
  }
  return std::move(b).Build().ValueOrDie();
}

// The definition of δ's decomposition, pair by pair: the O(n²) oracle the
// per-attribute ComputeParts must reproduce.
DiversityEvaluator::Parts PairwiseParts(const DiversityEvaluator& eval,
                                        const NodeSet& set) {
  DiversityEvaluator::Parts parts;
  for (size_t i = 0; i < set.size(); ++i) {
    parts.relevance_sum += eval.Relevance(set[i]);
    // Not computed at λ = 0, where the index has no attribute columns.
    if (eval.lambda() <= 0) continue;
    for (size_t j = i + 1; j < set.size(); ++j) {
      parts.pair_sum += eval.Distance(set[i], set[j]);
    }
  }
  return parts;
}

void ExpectClose(double actual, double expected, const char* what) {
  EXPECT_NEAR(actual, expected, 1e-9 * std::abs(expected) + 1e-12) << what;
}

// ComputeParts and δ agree with the pairwise oracle to 1e-9 relative.
void ExpectMatchesPairwise(const DiversityEvaluator& eval, const NodeSet& set) {
  SCOPED_TRACE("|set| = " + std::to_string(set.size()));
  DiversityEvaluator::Parts fast = eval.ComputeParts(set);
  DiversityEvaluator::Parts slow = PairwiseParts(eval, set);
  ExpectClose(fast.relevance_sum, slow.relevance_sum, "relevance_sum");
  ExpectClose(fast.pair_sum, slow.pair_sum, "pair_sum");
  ExpectClose(eval.Diversity(set), eval.Combine(slow), "delta");
}

TEST(DiversityTest, NestedSetsMatchPairwise) {
  // Random nested chains of match sets — the shapes refinement and
  // relaxation produce — including empty and single-node sets.
  Graph g = MakeRandomMovieGraph(20260807);
  LabelId movie = g.schema().NodeLabelId("movie");
  DiversityEvaluator eval(g, movie, DiversityConfig{});
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    NodeSet parent;
    double keep = rng.NextDouble();
    for (NodeId v = 0; v < 60; ++v) {
      if (rng.NextBernoulli(keep)) parent.push_back(v);
    }
    if (trial % 10 == 0) parent.clear();
    if (trial % 10 == 1) parent.resize(std::min<size_t>(parent.size(), 1));
    NodeSet child;
    for (NodeId v : parent) {
      if (rng.NextBernoulli(0.6)) child.push_back(v);
    }
    if (trial % 7 == 0) child.clear();
    ExpectMatchesPairwise(eval, parent);
    ExpectMatchesPairwise(eval, child);
  }
}

// Random subsets of each dataset's output label, plus the full label, at
// several balances of relevance and dissimilarity.
class DiversityDifferentialTest
    : public testing::TestWithParam<const char*> {};

TEST_P(DiversityDifferentialTest, RandomSetsMatchPairwise) {
  Dataset data = MakeDataset(GetParam(), /*scale=*/0.1, /*seed=*/7).ValueOrDie();
  const NodeSet& label = data.graph.NodesWithLabel(data.output_label);
  ASSERT_GT(label.size(), 40u);
  auto index = DiversityEvaluator::BuildIndex(data.graph, data.output_label,
                                              DiversityConfig{});
  ASSERT_FALSE(index->attrs.empty());
  Rng rng(11);
  for (double lambda : {0.5, 0.2, 1.0}) {
    SCOPED_TRACE("lambda = " + std::to_string(lambda));
    DiversityConfig cfg;
    cfg.lambda = lambda;
    DiversityEvaluator eval(index, cfg);
    ExpectMatchesPairwise(eval, label);
    for (int trial = 0; trial < 20; ++trial) {
      double keep = trial < 4 ? 0.02 : rng.NextDouble();
      NodeSet set;
      for (NodeId v : label) {
        if (rng.NextBernoulli(keep)) set.push_back(v);
      }
      ExpectMatchesPairwise(eval, set);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, DiversityDifferentialTest,
                         testing::Values("dbp", "lki", "cite"));

// Six "item" nodes with every kind of attribute value: `score` is numeric
// on some nodes, a string on others and missing on one; `flat` has zero
// range; `tag` repeats values. Degrees 0..5 give distinct relevances.
Graph MakeMixedGraph() {
  GraphBuilder b;
  std::vector<NodeId> items;
  for (int i = 0; i < 6; ++i) items.push_back(b.AddNode("item"));
  b.SetAttr(items[0], "score", AttrValue(2.0));
  b.SetAttr(items[1], "score", AttrValue(int64_t{8}));
  b.SetAttr(items[2], "score", AttrValue(std::string("high")));
  b.SetAttr(items[3], "score", AttrValue(std::string("low")));
  b.SetAttr(items[4], "score", AttrValue(2.0));  // Duplicate value.
  for (int i = 0; i < 6; ++i) b.SetAttr(items[i], "flat", AttrValue(7.0));
  const char* tags[] = {"red", "red", "blue", "red", "green", "blue"};
  for (int i = 0; i < 6; ++i) {
    b.SetAttr(items[i], "tag", AttrValue(std::string(tags[i])));
  }
  for (int i = 0; i < 6; ++i) {
    for (int d = 0; d < i; ++d) {
      NodeId hub = b.AddNode("hub");
      b.AddEdge(hub, items[i], "links");
    }
  }
  return std::move(b).Build().ValueOrDie();
}

TEST(DiversityTest, MixedMissingAndConstantAttributesMatchPairwise) {
  Graph g = MakeMixedGraph();
  LabelId item = g.schema().NodeLabelId("item");
  const NodeSet& all = g.NodesWithLabel(item);
  for (double lambda : {0.0, 0.5, 1.0}) {
    DiversityConfig cfg;
    cfg.lambda = lambda;
    DiversityEvaluator eval(g, item, cfg);
    // Every subset of the six items.
    for (uint32_t mask = 0; mask < (1u << all.size()); ++mask) {
      NodeSet set;
      for (size_t i = 0; i < all.size(); ++i) {
        if (mask & (1u << i)) set.push_back(all[i]);
      }
      ExpectMatchesPairwise(eval, set);
    }
  }
}

TEST(DiversityTest, MixedAttributePairSumByHand) {
  Graph g = MakeMixedGraph();
  LabelId item = g.schema().NodeLabelId("item");
  DiversityConfig cfg;
  cfg.lambda = 1.0;
  DiversityEvaluator eval(g, item, cfg);
  const NodeSet& all = g.NodesWithLabel(item);
  // score (range 6): numeric {2, 8, 2} -> gaps 0 + 6·1·2 = 12 -> 2;
  // strings {high, low} -> d(high, low); 3 numeric × 2 strings = 6
  // mismatched pairs; 1 missing × 5 present = 5 -> 13 + d(high, low).
  double score = 13.0 + NormalizedEditDistance("high", "low");
  // flat: zero range -> 0.
  // tag {red ×3, blue ×2, green}: 3·2·d(r,b) + 3·d(r,g) + 2·d(b,g).
  double tag = 6.0 * NormalizedEditDistance("red", "blue") +
               3.0 * NormalizedEditDistance("red", "green") +
               2.0 * NormalizedEditDistance("blue", "green");
  DiversityEvaluator::Parts parts = eval.ComputeParts(all);
  EXPECT_NEAR(parts.pair_sum, (score + tag) / 3.0, 1e-12);
  // Relevance is degree / max degree: (0 + 1 + ... + 5) / 5 = 3.
  EXPECT_NEAR(parts.relevance_sum, 3.0, 1e-12);
}

TEST(DiversityTest, NanValueDiffersFromNumbersAndStrings) {
  // A graph file may hold "nan": a present value that is neither a number
  // nor a string. It matches only another NaN.
  GraphBuilder b;
  std::vector<NodeId> items;
  for (int i = 0; i < 5; ++i) items.push_back(b.AddNode("item"));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  b.SetAttr(items[0], "score", AttrValue(nan));
  b.SetAttr(items[1], "score", AttrValue(nan));
  b.SetAttr(items[2], "score", AttrValue(1.0));
  b.SetAttr(items[3], "score", AttrValue(3.0));
  b.SetAttr(items[4], "score", AttrValue(std::string("x")));
  Graph g = std::move(b).Build().ValueOrDie();
  LabelId item = g.schema().NodeLabelId("item");
  DiversityConfig cfg;
  cfg.lambda = 1.0;
  DiversityEvaluator eval(g, item, cfg);
  EXPECT_DOUBLE_EQ(eval.Distance(items[0], items[1]), 0.0);
  EXPECT_DOUBLE_EQ(eval.Distance(items[0], items[2]), 1.0);
  EXPECT_DOUBLE_EQ(eval.Distance(items[0], items[4]), 1.0);
  // Pairs: NaN-NaN 0, 2 NaN × 3 others 6, 1-3 one range, numbers × "x" 2.
  EXPECT_DOUBLE_EQ(eval.ComputeParts(items).pair_sum, 9.0);
  for (uint32_t mask = 0; mask < (1u << items.size()); ++mask) {
    NodeSet set;
    for (size_t i = 0; i < items.size(); ++i) {
      if (mask & (1u << i)) set.push_back(items[i]);
    }
    ExpectMatchesPairwise(eval, set);
  }
}

TEST(DiversityTest, SingletonHasNoPairs) {
  Graph g = MakeMixedGraph();
  LabelId item = g.schema().NodeLabelId("item");
  DiversityEvaluator eval(g, item, DiversityConfig{});
  NodeSet one = {g.NodesWithLabel(item)[5]};
  DiversityEvaluator::Parts parts = eval.ComputeParts(one);
  EXPECT_DOUBLE_EQ(parts.pair_sum, 0.0);
  EXPECT_DOUBLE_EQ(parts.relevance_sum, 1.0);
  DiversityEvaluator::Parts none = eval.ComputeParts({});
  EXPECT_DOUBLE_EQ(none.pair_sum, 0.0);
  EXPECT_DOUBLE_EQ(none.relevance_sum, 0.0);
}

TEST(DiversityTest, CustomRelevanceFnMatchesPairwise) {
  Graph g = MakeRandomMovieGraph(5);
  LabelId movie = g.schema().NodeLabelId("movie");
  DiversityConfig cfg;
  cfg.lambda = 0.4;
  cfg.relevance = [](const Graph&, NodeId v) {
    return static_cast<double>(v % 7) / 7.0;
  };
  DiversityEvaluator eval(g, movie, cfg);
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    NodeSet set;
    for (NodeId v = 0; v < 60; ++v) {
      if (rng.NextBernoulli(0.4)) set.push_back(v);
    }
    ExpectMatchesPairwise(eval, set);
  }
}

TEST(DiversityTest, SharedIndexMatchesSelfBuiltEvaluator) {
  // An evaluator over a prebuilt Index must produce bit-identical numbers
  // to one that ran its own precompute (satellite of DESIGN.md §12: the
  // index is shared read-only across parallel workers).
  Graph g = MakeRandomMovieGraph(7);
  LabelId movie = g.schema().NodeLabelId("movie");
  DiversityConfig cfg;
  cfg.lambda = 0.35;
  DiversityEvaluator own(g, movie, cfg);
  DiversityEvaluator shared(DiversityEvaluator::BuildIndex(g, movie, cfg), cfg);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    NodeSet set;
    for (NodeId v = 0; v < 60; ++v) {
      if (rng.NextBernoulli(0.3)) set.push_back(v);
    }
    EXPECT_DOUBLE_EQ(own.Diversity(set), shared.Diversity(set));
  }
  EXPECT_DOUBLE_EQ(own.MaxDiversity(), shared.MaxDiversity());
  EXPECT_EQ(own.output_label(), shared.output_label());
}

/// Every bit of `x`: the λ = 0 index must score exactly, not to rounding.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(DiversityTest, LambdaZeroIndexHoldsRelevanceOnly) {
  Fixture f;
  DiversityConfig zero;
  zero.lambda = 0;
  const auto index = DiversityEvaluator::BuildIndex(f.graph, f.movie, zero);
  EXPECT_FALSE(index->columns);
  EXPECT_TRUE(index->attrs.empty());
  EXPECT_TRUE(index->cells.empty());
  EXPECT_TRUE(index->string_dist.empty());
  EXPECT_EQ(index->relevance.size(), 4u);
  EXPECT_TRUE(DiversityEvaluator::BuildIndex(f.graph, f.movie, DiversityConfig{})
                  ->columns);
}

TEST(DiversityTest, LambdaZeroIndexScoresLikeFullIndexOnOracleScenarios) {
  // On the archive oracle's scenarios at λ = 0, an index built without the
  // attribute columns gives every instance's match set the same
  // ComputeParts, Combine and MaxDiversity bits as a full index.
  DiversityConfig zero;
  zero.lambda = 0;
  DiversityConfig full;  // λ 0.5: the columns are built.
  size_t scenarios = 0;
  size_t nonempty = 0;
  for (const auto& [dataset, scale] :
       {std::pair<const char*, double>{"dbp", 0.05}, {"lki", 0.1},
        {"cite", 0.1}}) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      Result<Scenario> s =
          MakeScenario(OracleScenarioOptions(dataset, scale, seed, 4));
      if (!s.ok()) continue;
      ++scenarios;
      const Graph& g = s->dataset.graph;
      const LabelId label = s->tmpl->node_label(s->tmpl->output_node());
      DiversityEvaluator bare(DiversityEvaluator::BuildIndex(g, label, zero),
                              zero);
      DiversityEvaluator with(DiversityEvaluator::BuildIndex(g, label, full),
                              zero);
      ASSERT_FALSE(bare.index()->columns);
      ASSERT_TRUE(with.index()->columns);
      EXPECT_EQ(Bits(bare.MaxDiversity()), Bits(with.MaxDiversity()));
      SubgraphMatcher matcher(g, MatchSemantics::kIsomorphism);
      InstantiationEnumerator it(*s->tmpl, *s->domains);
      Instantiation inst;
      while (it.Next(&inst)) {
        const NodeSet matches = matcher.MatchOutput(
            QueryInstance::Materialize(*s->tmpl, *s->domains, inst));
        nonempty += !matches.empty();
        const DiversityEvaluator::Parts a = bare.ComputeParts(matches);
        const DiversityEvaluator::Parts b = with.ComputeParts(matches);
        const std::string who =
            std::string(dataset) + " seed " + std::to_string(seed) + " " +
            inst.ToString(*s->tmpl, *s->domains);
        EXPECT_EQ(Bits(a.relevance_sum), Bits(b.relevance_sum)) << who;
        EXPECT_EQ(Bits(a.pair_sum), Bits(b.pair_sum)) << who;
        EXPECT_EQ(Bits(bare.Combine(a)), Bits(with.Combine(b))) << who;
      }
    }
  }
  EXPECT_GE(scenarios, 6u);
  EXPECT_GT(nonempty, 0u);
}

TEST(DiversityDeathTest, DistanceOnLambdaZeroIndexIsACheckedError) {
  // Without the attribute columns a distance cannot be computed; reading it
  // as 0 would silently understate δ, so both uses fail loudly.
  Fixture f;
  DiversityConfig zero;
  zero.lambda = 0;
  DiversityEvaluator eval(f.graph, f.movie, zero);
  EXPECT_DEATH(eval.Distance(0, 2), "lambda <= 0");
  DiversityConfig half;
  EXPECT_DEATH(
      DiversityEvaluator(DiversityEvaluator::BuildIndex(f.graph, f.movie, zero),
                         half),
      "no attribute columns");
}

TEST(CoverageTest, ExactCoverageScoresMax) {
  GroupSet groups = GroupSet::Create(10, {{0, 1, 2}, {5, 6}}, {2, 1}).ValueOrDie();
  CoverageEvaluator eval(groups);
  CoverageResult r = eval.Evaluate({0, 1, 5});
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.value, 3.0);  // C = 3, zero error.
  EXPECT_EQ(r.per_group, (std::vector<size_t>{2, 1}));
}

TEST(CoverageTest, OverCoveragePenalized) {
  GroupSet groups = GroupSet::Create(10, {{0, 1, 2}, {5, 6}}, {1, 1}).ValueOrDie();
  CoverageEvaluator eval(groups);
  CoverageResult r = eval.Evaluate({0, 1, 2, 5});
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.value, 0.0);  // C=2, error |3-1| + |1-1| = 2.
}

TEST(CoverageTest, UnderCoverageInfeasible) {
  GroupSet groups = GroupSet::Create(10, {{0, 1, 2}, {5, 6}}, {2, 2}).ValueOrDie();
  CoverageEvaluator eval(groups);
  CoverageResult r = eval.Evaluate({0, 5, 6});
  EXPECT_FALSE(r.feasible);
}

TEST(CoverageTest, ValueClampedToZero) {
  GroupSet groups = GroupSet::Create(10, {{0, 1, 2, 3, 4}}, {1}).ValueOrDie();
  CoverageEvaluator eval(groups);
  CoverageResult r = eval.Evaluate({0, 1, 2, 3, 4});
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.value, 0.0);  // C=1, error 4 -> clamp.
  EXPECT_DOUBLE_EQ(eval.MaxCoverage(), 1.0);
}

TEST(CoverageTest, NonGroupNodesIgnored) {
  GroupSet groups = GroupSet::Create(10, {{0}, {1}}, {1, 1}).ValueOrDie();
  CoverageEvaluator eval(groups);
  CoverageResult r = eval.Evaluate({0, 1, 7, 8, 9});
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.value, 2.0);
}

TEST(CoverageTest, CoverageMonotonicityForFeasiblePairs) {
  // Lemma 2 (2): if S' ⊆ S and both feasible, then f(S) <= f(S').
  Rng rng(7);
  GroupSet groups =
      GroupSet::Create(40, {{0, 1, 2, 3, 4, 5}, {10, 11, 12, 13}}, {2, 1})
          .ValueOrDie();
  CoverageEvaluator eval(groups);
  for (int trial = 0; trial < 500; ++trial) {
    NodeSet big;
    for (NodeId v = 0; v < 40; ++v) {
      if (rng.NextBernoulli(0.5)) big.push_back(v);
    }
    NodeSet small;
    for (NodeId v : big) {
      if (rng.NextBernoulli(0.7)) small.push_back(v);
    }
    CoverageResult rb = eval.Evaluate(big);
    CoverageResult rs = eval.Evaluate(small);
    if (rb.feasible && rs.feasible) {
      EXPECT_LE(rb.value, rs.value)
          << "superset must not score higher when both feasible";
    }
    if (!rb.feasible) {
      EXPECT_FALSE(rs.feasible) << "subset of infeasible set must be infeasible";
    }
  }
}

}  // namespace
}  // namespace fairsqg
