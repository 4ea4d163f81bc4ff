#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/attr_range_index.h"
#include "graph/graph_builder.h"
#include "matching/candidate_space.h"
#include "query/domains.h"
#include "query/instance.h"

namespace fairsqg {
namespace {

constexpr CompareOp kAllOps[] = {CompareOp::kGt, CompareOp::kGe, CompareOp::kEq,
                                 CompareOp::kLe, CompareOp::kLt};

/// Reference slice: every indexed node whose value satisfies `op x`.
NodeSet BruteSlice(const AttrRangeIndex& idx, CompareOp op, const AttrValue& x) {
  NodeSet out;
  for (size_t i = 0; i < idx.size(); ++i) {
    if (idx.value_at(i).Compare(op, x)) out.push_back(idx.node_at(i));
  }
  std::sort(out.begin(), out.end());
  return out;
}

NodeSet SortedSlice(const AttrRangeIndex& idx, CompareOp op, const AttrValue& x) {
  auto slice = idx.SliceFor(op, x);
  NodeSet out(slice.begin(), slice.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(AttrRangeIndexTest, SlicesMatchBruteForceOnIntegers) {
  // A duplicate-heavy column: 200 nodes over 7 distinct values with runs
  // of very different lengths, inserted in shuffled order.
  std::vector<int64_t> values;
  for (int64_t v : {5, 1, 9, 5, 3, 7, 5, 1}) values.push_back(v);
  const int64_t kPool[] = {-4, 1, 3, 5, 7, 9, 100};
  Rng rng(17);
  while (values.size() < 200) {
    values.push_back(kPool[std::min<uint64_t>(rng.NextBounded(12), 6)]);
  }
  std::vector<std::pair<AttrValue, NodeId>> entries;
  for (NodeId v = 0; v < values.size(); ++v) {
    entries.emplace_back(AttrValue(values[v]), v);
  }
  AttrRangeIndex idx = AttrRangeIndex::Build(std::move(entries));
  ASSERT_EQ(idx.size(), values.size());
  // Every entry reports its own node's value, in ascending order.
  for (size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(idx.value_at(i), AttrValue(values[idx.node_at(i)])) << "i=" << i;
    if (i > 0) {
      EXPECT_FALSE(idx.value_at(i) < idx.value_at(i - 1)) << "i=" << i;
    }
  }
  // Each distinct value, each gap between two, below the minimum and above
  // the maximum.
  for (int64_t x : {-10, -4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 50, 100, 101}) {
    for (CompareOp op : kAllOps) {
      EXPECT_EQ(SortedSlice(idx, op, AttrValue(x)), BruteSlice(idx, op, AttrValue(x)))
          << "op=" << CompareOpToString(op) << " x=" << x;
    }
  }
}

TEST(AttrRangeIndexTest, IntAndDoubleEntriesShareNumericOrder) {
  std::vector<std::pair<AttrValue, NodeId>> entries;
  entries.push_back({AttrValue(int64_t{2}), 0});
  entries.push_back({AttrValue(2.0), 1});
  entries.push_back({AttrValue(1.5), 2});
  entries.push_back({AttrValue(int64_t{3}), 3});
  AttrRangeIndex idx = AttrRangeIndex::Build(std::move(entries));
  for (const AttrValue& x : {AttrValue(2.0), AttrValue(int64_t{2}), AttrValue(1.7)}) {
    for (CompareOp op : kAllOps) {
      EXPECT_EQ(SortedSlice(idx, op, x), BruteSlice(idx, op, x))
          << "op=" << CompareOpToString(op) << " x=" << x.ToString();
    }
  }
}

TEST(AttrRangeIndexTest, MixedNumericAndStringEntries) {
  // Duplicate-heavy on both sides of the numeric/string boundary, ints and
  // doubles mixed (4 and 4.0 are one value).
  std::vector<AttrValue> values = {
      AttrValue(int64_t{4}),          AttrValue(std::string("alpha")),
      AttrValue(2.5),                 AttrValue(std::string("zeta")),
      AttrValue(std::string("alpha")), AttrValue(4.0),
      AttrValue(2.5),                 AttrValue(std::string("zeta")),
      AttrValue(int64_t{4}),          AttrValue(std::string("alpha")),
      AttrValue(std::string("m")),    AttrValue(int64_t{-1}),
      AttrValue(std::string("alpha")), AttrValue(int64_t{4})};
  std::vector<std::pair<AttrValue, NodeId>> entries;
  for (NodeId v = 0; v < values.size(); ++v) entries.push_back({values[v], v});
  AttrRangeIndex idx = AttrRangeIndex::Build(std::move(entries));
  ASSERT_EQ(idx.size(), values.size());
  for (size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(idx.value_at(i), values[idx.node_at(i)]) << "i=" << i;
  }
  // A numeric probe must never surface a string entry and vice versa
  // (Compare's mixed-type rule), for every operator: probes at each
  // distinct value, between values and beyond both ends of each region.
  for (const AttrValue& x :
       {AttrValue(int64_t{-5}), AttrValue(int64_t{-1}), AttrValue(0.0),
        AttrValue(2.5), AttrValue(int64_t{3}), AttrValue(4.0),
        AttrValue(int64_t{4}), AttrValue(int64_t{9}), AttrValue(std::string("")),
        AttrValue(std::string("alpha")), AttrValue(std::string("b")),
        AttrValue(std::string("m")), AttrValue(std::string("n")),
        AttrValue(std::string("zeta")), AttrValue(std::string("zz"))}) {
    for (CompareOp op : kAllOps) {
      EXPECT_EQ(SortedSlice(idx, op, x), BruteSlice(idx, op, x))
          << "op=" << CompareOpToString(op) << " x=" << x.ToString();
    }
  }
}

TEST(AttrRangeIndexTest, GraphExposesIndexOnlyForPresentPairs) {
  GraphBuilder b;
  NodeId u = b.AddNode("user");
  b.SetAttr(u, "exp", AttrValue(int64_t{3}));
  b.AddNode("director");
  Graph g = std::move(b).Build().ValueOrDie();
  LabelId user = g.schema().NodeLabelId("user");
  LabelId director = g.schema().NodeLabelId("director");
  AttrId exp = g.schema().AttrIdOf("exp");
  ASSERT_NE(g.RangeIndex(user, exp), nullptr);
  EXPECT_EQ(g.RangeIndex(user, exp)->size(), 1u);
  // No director carries "exp": no index, and no literal over it can match.
  EXPECT_EQ(g.RangeIndex(director, exp), nullptr);
}

struct TinyGraph {
  Graph graph;
  LabelId user;
  AttrId exp;
  AttrId name;

  TinyGraph() : graph(Make()) {
    user = graph.schema().NodeLabelId("user");
    exp = graph.schema().AttrIdOf("exp");
    name = graph.schema().AttrIdOf("name");
  }

  static Graph Make() {
    GraphBuilder b;
    NodeId v0 = b.AddNode("user");  // Both attributes.
    b.SetAttr(v0, "exp", AttrValue(int64_t{10}));
    b.SetAttr(v0, "name", AttrValue(std::string("ada")));
    NodeId v1 = b.AddNode("user");  // Missing "name".
    b.SetAttr(v1, "exp", AttrValue(int64_t{5}));
    b.AddNode("director");
    return std::move(b).Build().ValueOrDie();
  }
};

TEST(NodeSatisfiesTest, EmptyLiteralListChecksLabelOnly) {
  TinyGraph t;
  std::vector<BoundLiteral> none;
  EXPECT_TRUE(NodeSatisfies(t.graph, 0, t.user, none));
  EXPECT_TRUE(NodeSatisfies(t.graph, 1, t.user, none));
  EXPECT_FALSE(NodeSatisfies(t.graph, 2, t.user, none));  // Wrong label.
}

TEST(NodeSatisfiesTest, MissingAttributeNeverSatisfies) {
  TinyGraph t;
  for (CompareOp op : kAllOps) {
    std::vector<BoundLiteral> lits = {
        {0, t.name, op, AttrValue(std::string("ada"))}};
    bool reflexive = op == CompareOp::kGe || op == CompareOp::kEq ||
                     op == CompareOp::kLe;
    EXPECT_EQ(NodeSatisfies(t.graph, 0, t.user, lits), reflexive)
        << "present attribute, op " << CompareOpToString(op);
    EXPECT_FALSE(NodeSatisfies(t.graph, 1, t.user, lits))
        << "missing attribute satisfied op " << CompareOpToString(op);
  }
}

TEST(NodeSatisfiesTest, TypeMismatchedComparisonIsFalse) {
  TinyGraph t;
  for (CompareOp op : kAllOps) {
    // String constant against the integer attribute: false for every op,
    // including kEq and the "reflexive-looking" kGe/kLe.
    std::vector<BoundLiteral> lits = {{0, t.exp, op, AttrValue(std::string("10"))}};
    EXPECT_FALSE(NodeSatisfies(t.graph, 0, t.user, lits))
        << "type mismatch satisfied op " << CompareOpToString(op);
  }
}

/// Random attributed graph + random fixed-literal instance; asserts the
/// index-sliced build equals the reference scan build on every node, and
/// that the bitset view agrees with the sorted set.
class CandidateBuildPropertyTest : public ::testing::Test {
 protected:
  static Graph RandomGraph(Rng* rng, size_t n) {
    GraphBuilder b;
    const char* string_pool[] = {"ac", "bd", "ce", "dg"};
    for (size_t i = 0; i < n; ++i) {
      NodeId v = b.AddNode(rng->NextBernoulli(0.7) ? "user" : "director");
      if (rng->NextBernoulli(0.8)) {
        b.SetAttr(v, "a", AttrValue(rng->NextInRange(0, 20)));
      }
      if (rng->NextBernoulli(0.6)) {
        // Mix ints and doubles on the same attribute.
        if (rng->NextBernoulli(0.5)) {
          b.SetAttr(v, "b", AttrValue(static_cast<double>(rng->NextInRange(0, 10)) / 2));
        } else {
          b.SetAttr(v, "b", AttrValue(rng->NextInRange(0, 5)));
        }
      }
      if (rng->NextBernoulli(0.5)) {
        b.SetAttr(v, "c", AttrValue(std::string(string_pool[rng->NextBounded(4)])));
      }
    }
    for (size_t e = 0; e < 3 * n; ++e) {
      b.AddEdge(static_cast<NodeId>(rng->NextBounded(n)),
                static_cast<NodeId>(rng->NextBounded(n)), "rec");
    }
    return std::move(b).Build().ValueOrDie();
  }

  static AttrValue RandomConstant(Rng* rng) {
    const char* string_pool[] = {"ac", "bd", "ce", "m"};
    switch (rng->NextBounded(3)) {
      case 0:
        return AttrValue(rng->NextInRange(0, 20));
      case 1:
        return AttrValue(static_cast<double>(rng->NextInRange(0, 20)) / 2);
      default:
        return AttrValue(std::string(string_pool[rng->NextBounded(4)]));
    }
  }

  static CompareOp RandomOp(Rng* rng) {
    return kAllOps[rng->NextBounded(5)];
  }
};

TEST_F(CandidateBuildPropertyTest, IndexedBuildEqualsScanBuild) {
  Rng rng(20260807);
  const char* attrs[] = {"a", "b", "c"};
  for (int trial = 0; trial < 40; ++trial) {
    size_t n = 20 + rng.NextBounded(280);
    Graph g = RandomGraph(&rng, n);
    QueryTemplate tmpl(g.schema_ptr());
    QNodeId u0 = tmpl.AddNode("user");
    QNodeId u1 = tmpl.AddNode("director");
    tmpl.SetOutputNode(u1);
    size_t num_lits = rng.NextBounded(4);  // 0..3 literals on u0.
    for (size_t i = 0; i < num_lits; ++i) {
      tmpl.AddLiteral(u0, attrs[rng.NextBounded(3)], RandomOp(&rng),
                      RandomConstant(&rng));
    }
    if (rng.NextBernoulli(0.5)) {
      tmpl.AddLiteral(u1, "a", RandomOp(&rng), RandomConstant(&rng));
    }
    tmpl.AddEdge(u0, u1, "rec");
    VariableDomains domains = VariableDomains::Build(g, tmpl).ValueOrDie();
    QueryInstance q =
        QueryInstance::Materialize(tmpl, domains, Instantiation({}, {}));

    for (bool degree_filter : {false, true}) {
      MatchStats stats;
      CandidateSpace indexed =
          CandidateSpace::Build(g, q, degree_filter, /*use_index=*/true, &stats);
      CandidateSpace scanned =
          CandidateSpace::Build(g, q, degree_filter, /*use_index=*/false);
      for (QNodeId u = 0; u < tmpl.num_nodes(); ++u) {
        EXPECT_EQ(indexed.of(u), scanned.of(u))
            << "trial=" << trial << " node=" << u
            << " degree_filter=" << degree_filter;
        EXPECT_TRUE(std::is_sorted(indexed.of(u).begin(), indexed.of(u).end()));
        // Bitset view is exactly the characteristic function of the set.
        EXPECT_EQ(indexed.bits(u).Count(), indexed.of(u).size());
        for (NodeId v : indexed.of(u)) {
          EXPECT_TRUE(indexed.bits(u).Test(v));
        }
      }
      if (num_lits > 0) {
        EXPECT_GT(stats.index_slices, 0u);
      }
    }
  }
}

struct AliasFixture {
  std::shared_ptr<Schema> schema = std::make_shared<Schema>();
  Graph graph;
  QueryTemplate tmpl;
  std::unique_ptr<VariableDomains> domains;

  AliasFixture() : graph(Make(schema)), tmpl(schema) {
    QNodeId u0 = tmpl.AddNode("user");
    QNodeId u1 = tmpl.AddNode("director");
    QNodeId u2 = tmpl.AddNode("user");
    tmpl.SetOutputNode(u1);
    tmpl.AddRangeLiteral(u0, "exp", CompareOp::kGe);  // x0
    tmpl.AddEdge(u0, u1, "rec");
    tmpl.AddVariableEdge(u2, u1, "rec");  // e0
    domains = std::make_unique<VariableDomains>(
        VariableDomains::Build(graph, tmpl).ValueOrDie());
  }

  static Graph Make(std::shared_ptr<Schema> schema) {
    GraphBuilder b(std::move(schema));
    for (int e : {2, 5, 9, 12}) {
      NodeId v = b.AddNode("user");
      b.SetAttr(v, "exp", AttrValue(int64_t{e}));
    }
    b.AddNode("director");
    b.AddEdge(0, 4, "rec");
    b.AddEdge(2, 4, "rec");
    return std::move(b).Build().ValueOrDie();
  }

  QueryInstance Materialize(int32_t x0, uint8_t e0) const {
    return QueryInstance::Materialize(tmpl, *domains, Instantiation({x0}, {e0}));
  }
};

TEST(CandidateSpaceTest, UnconstrainedNodeAliasesGraphLabelSet) {
  AliasFixture f;
  QueryInstance q = f.Materialize(kWildcardBinding, 0);
  CandidateSpace space = CandidateSpace::Build(f.graph, q);
  LabelId user = f.graph.schema().NodeLabelId("user");
  LabelId director = f.graph.schema().NodeLabelId("director");
  // No literals and no degree filter: the space aliases the Graph-owned
  // label index instead of copying it.
  EXPECT_EQ(&space.of(1), &f.graph.NodesWithLabel(director));
  EXPECT_EQ(&space.of(2), &f.graph.NodesWithLabel(user));
  EXPECT_EQ(&space.bits(2), &f.graph.LabelBitset(user));
}

}  // namespace
}  // namespace fairsqg
