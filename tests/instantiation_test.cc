#include "query/instantiation.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"

namespace fairsqg {
namespace {

struct Fixture {
  std::shared_ptr<Schema> schema = std::make_shared<Schema>();
  Graph graph;
  QueryTemplate tmpl;
  VariableDomains domains;

  Fixture() : graph(MakeGraph()), tmpl(schema), domains(MakeTemplate()) {}

  Graph MakeGraph() {
    GraphBuilder b(schema);
    for (int exp : {5, 10, 12, 20}) {
      NodeId v = b.AddNode("user");
      b.SetAttr(v, "yearsOfExp", AttrValue(int64_t{exp}));
    }
    for (int emp : {100, 500, 1000}) {
      NodeId v = b.AddNode("org");
      b.SetAttr(v, "employees", AttrValue(int64_t{emp}));
    }
    NodeId u = b.AddNode("user");
    b.SetAttr(u, "yearsOfExp", AttrValue(int64_t{10}));  // Duplicate value.
    return std::move(b).Build().ValueOrDie();
  }

  VariableDomains MakeTemplate() {
    QNodeId u = tmpl.AddNode("user");
    QNodeId o = tmpl.AddNode("org");
    tmpl.AddRangeLiteral(u, "yearsOfExp", CompareOp::kGe);   // x0, ascending
    tmpl.AddRangeLiteral(o, "employees", CompareOp::kLe);    // x1, descending
    tmpl.AddEdge(u, o, "worksAt");
    tmpl.AddVariableEdge(o, u, "recommends");                // e0
    return VariableDomains::Build(graph, tmpl).ValueOrDie();
  }
};

TEST(VariableDomainsTest, OrderedRelaxedToRefined) {
  Fixture f;
  // x0: yearsOfExp >= v, ascending: 5, 10, 12, 20.
  ASSERT_EQ(f.domains.size(0), 4u);
  EXPECT_EQ(f.domains.value(0, 0).as_int(), 5);
  EXPECT_EQ(f.domains.value(0, 3).as_int(), 20);
  // x1: employees <= v, descending: 1000, 500, 100.
  ASSERT_EQ(f.domains.size(1), 3u);
  EXPECT_EQ(f.domains.value(1, 0).as_int(), 1000);
  EXPECT_EQ(f.domains.value(1, 2).as_int(), 100);
}

TEST(VariableDomainsTest, InstanceSpaceSize) {
  Fixture f;
  // (4+1) * (3+1) * 2^1 = 40.
  EXPECT_EQ(f.domains.InstanceSpaceSize(f.tmpl), 40u);
}

TEST(InstantiationTest, MostRelaxedIsAllWildcardsNoEdges) {
  Fixture f;
  Instantiation root = Instantiation::MostRelaxed(f.tmpl);
  EXPECT_TRUE(root.is_wildcard(0));
  EXPECT_TRUE(root.is_wildcard(1));
  EXPECT_EQ(root.edge_binding(0), 0);
}

TEST(InstantiationTest, MostRefinedUsesLastIndexAndAllEdges) {
  Fixture f;
  Instantiation bottom = Instantiation::MostRefined(f.tmpl, f.domains);
  EXPECT_EQ(bottom.range_binding(0), 3);
  EXPECT_EQ(bottom.range_binding(1), 2);
  EXPECT_EQ(bottom.edge_binding(0), 1);
}

TEST(InstantiationTest, EverythingRefinesRoot) {
  Fixture f;
  Instantiation root = Instantiation::MostRelaxed(f.tmpl);
  Instantiation bottom = Instantiation::MostRefined(f.tmpl, f.domains);
  Instantiation mid({1, kWildcardBinding}, {1});
  EXPECT_TRUE(root.Refines(root));
  EXPECT_TRUE(bottom.Refines(root));
  EXPECT_TRUE(mid.Refines(root));
  EXPECT_FALSE(root.Refines(bottom));
  EXPECT_TRUE(bottom.Refines(mid));
  EXPECT_FALSE(mid.Refines(bottom));
}

TEST(InstantiationTest, WildcardDoesNotRefineBoundVariable) {
  Instantiation bound({2, 0}, {});
  Instantiation wild({kWildcardBinding, 0}, {});
  EXPECT_FALSE(wild.Refines(bound));
  EXPECT_TRUE(bound.Refines(wild));
}

TEST(InstantiationTest, IncomparablePair) {
  Instantiation a({2, 0}, {0});
  Instantiation b({0, 2}, {0});
  EXPECT_FALSE(a.Refines(b));
  EXPECT_FALSE(b.Refines(a));
}

TEST(InstantiationTest, EdgeBindingRefinement) {
  Instantiation off({}, {0, 0});
  Instantiation one({}, {1, 0});
  Instantiation both({}, {1, 1});
  EXPECT_TRUE(one.Refines(off));
  EXPECT_TRUE(both.Refines(one));
  EXPECT_TRUE(both.Refines(off));
  EXPECT_FALSE(off.Refines(one));
}

TEST(InstantiationTest, RefinementIsTransitiveOnRandomTriples) {
  // Property check: sampled triples a <= b <= c imply a <= c.
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    auto random_inst = [&]() {
      std::vector<int32_t> r(3);
      for (auto& v : r) v = static_cast<int32_t>(rng.NextInRange(-1, 4));
      std::vector<uint8_t> e(2);
      for (auto& v : e) v = static_cast<uint8_t>(rng.NextBounded(2));
      return Instantiation(std::move(r), std::move(e));
    };
    Instantiation a = random_inst();
    Instantiation b = random_inst();
    Instantiation c = random_inst();
    if (b.Refines(a) && c.Refines(b)) {
      EXPECT_TRUE(c.Refines(a));
    }
    // Antisymmetry: mutual refinement implies equality.
    if (a.Refines(b) && b.Refines(a)) {
      EXPECT_EQ(a, b);
    }
  }
}

TEST(InstantiationTest, StrictRefinementExcludesEquality) {
  Instantiation a({1}, {});
  EXPECT_FALSE(a.StrictlyRefines(a));
  Instantiation b({0}, {});
  EXPECT_TRUE(a.StrictlyRefines(b));
}

TEST(InstantiationTest, HashDistinguishesBindings) {
  std::unordered_set<uint64_t> hashes;
  for (int32_t r0 : {-1, 0, 1, 2}) {
    for (int32_t r1 : {-1, 0, 1}) {
      for (uint8_t e : {0, 1}) {
        hashes.insert(Instantiation({r0, r1}, {e}).Hash());
      }
    }
  }
  EXPECT_EQ(hashes.size(), 24u);  // All distinct for this small space.
}

// Range and edge bindings share one array, inline for small templates.
static_assert(sizeof(Instantiation) <= 16);

TEST(InstantiationTest, HashIsPinned) {
  // Visited sets and sharded archives key on Hash(); these values pin it
  // across changes to the bindings' storage.
  EXPECT_EQ(Instantiation({kWildcardBinding, kWildcardBinding}, {0}).Hash(),
            0xbbb7ea0a8a56c602ULL);
  EXPECT_EQ(Instantiation({3, 2}, {1}).Hash(), 0x00a46cb053115f4bULL);
  EXPECT_EQ(Instantiation({0, kWildcardBinding}, {1}).Hash(),
            0x686f9930cb881284ULL);
  EXPECT_EQ(Instantiation({}, {}).Hash(), 0x5851f42d4c957f2dULL);
  EXPECT_EQ(Instantiation({1}, {}).Hash(), 0x96011ba7f96a03f8ULL);
  EXPECT_EQ(Instantiation({}, {1, 0}).Hash(), 0xf5a0f61b73ae8a9bULL);
}

TEST(InstantiationTest, SettersRoundTrip) {
  Instantiation i({kWildcardBinding, 0, 4}, {0, 1});
  ASSERT_EQ(i.num_range_vars(), 3u);
  ASSERT_EQ(i.num_edge_vars(), 2u);
  i.set_range_binding(0, 7);
  i.set_range_binding(2, kWildcardBinding);
  i.set_edge_binding(0, 1);
  i.set_edge_binding(1, 0);
  EXPECT_EQ(i.range_binding(0), 7);
  EXPECT_EQ(i.range_binding(1), 0);
  EXPECT_TRUE(i.is_wildcard(2));
  EXPECT_EQ(i.edge_binding(0), 1);
  EXPECT_EQ(i.edge_binding(1), 0);
  // Setters touch only their own binding: equal to a freshly built one.
  EXPECT_EQ(i, Instantiation({7, 0, kWildcardBinding}, {1, 0}));
  EXPECT_EQ(i.Hash(), Instantiation({7, 0, kWildcardBinding}, {1, 0}).Hash());
}

TEST(InstantiationTest, CopyMoveAndAssignAcrossInlineAndHeapStorage) {
  // Up to kInlineBindings bindings live inline; more take a heap block.
  const Instantiation small({1, kWildcardBinding}, {1});
  const Instantiation large({0, 1, 2, kWildcardBinding}, {1, 0, 1});
  ASSERT_GT(large.num_range_vars() + large.num_edge_vars(),
            Instantiation::kInlineBindings);
  for (const Instantiation* src : {&small, &large}) {
    Instantiation copy(*src);
    EXPECT_EQ(copy, *src);
    EXPECT_EQ(copy.Hash(), src->Hash());
    copy.set_range_binding(0, 9);  // The copy owns its bindings.
    EXPECT_NE(copy, *src);
    Instantiation moved(std::move(copy));
    EXPECT_EQ(moved.range_binding(0), 9);
    EXPECT_EQ(copy, Instantiation());  // NOLINT: moved-from is empty.
    for (const Instantiation* other : {&small, &large}) {
      Instantiation assigned = *other;
      assigned = *src;
      EXPECT_EQ(assigned, *src);
      Instantiation target = *other;
      Instantiation source = *src;
      target = std::move(source);
      EXPECT_EQ(target, *src);
    }
  }
  Instantiation self = large;
  const Instantiation& alias = self;
  self = alias;
  EXPECT_EQ(self, large);
}

TEST(InstantiationTest, EqualityDistinguishesRangeFromEdgeBindings) {
  // Same flat binding values, split differently between the two kinds.
  EXPECT_NE(Instantiation({1}, {}), Instantiation({}, {1}));
  EXPECT_NE(Instantiation({0, 1}, {}), Instantiation({0}, {1}));
  EXPECT_EQ(Instantiation({0}, {1}), Instantiation({0}, {1}));
  EXPECT_EQ(Instantiation(), Instantiation({}, {}));
}

TEST(InstantiationTest, ToStringShowsValuesAndWildcards) {
  Fixture f;
  Instantiation i({1, kWildcardBinding}, {1});
  std::string s = i.ToString(f.tmpl, f.domains);
  EXPECT_NE(s.find("x0=10"), std::string::npos);
  EXPECT_NE(s.find("x1=_"), std::string::npos);
  EXPECT_NE(s.find("e0=1"), std::string::npos);
  EXPECT_EQ(s, "[x0=10 x1=_ | e0=1]");
  EXPECT_EQ(Instantiation({kWildcardBinding, 2}, {}).ToString(f.tmpl, f.domains),
            "[x0=_ x1=100]");
}

}  // namespace
}  // namespace fairsqg
