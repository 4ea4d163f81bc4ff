#include "query/refinement.h"

#include <gtest/gtest.h>

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
    for (int exp : {5, 10, 20}) {
      NodeId v = b.AddNode("user");
      b.SetAttr(v, "yearsOfExp", AttrValue(int64_t{exp}));
    }
    NodeId o = b.AddNode("org");
    b.AddEdge(0, o, "worksAt");
    return std::move(b).Build().ValueOrDie();
  }

  VariableDomains MakeTemplate() {
    QNodeId u = tmpl.AddNode("user");
    QNodeId o = tmpl.AddNode("org");
    tmpl.AddRangeLiteral(u, "yearsOfExp", CompareOp::kGe);  // x0: {5,10,20}
    tmpl.AddEdge(u, o, "worksAt");
    tmpl.AddVariableEdge(o, u, "recommends");  // e0
    return VariableDomains::Build(graph, tmpl).ValueOrDie();
  }
};

TEST(LatticeNeighborsTest, RefineChildrenFromRoot) {
  Fixture f;
  Instantiation root = Instantiation::MostRelaxed(f.tmpl);
  auto kids = LatticeNeighbors::RefineChildren(f.tmpl, f.domains, root,
                                               RefinementHints::None(f.tmpl));
  // One step on x0 (wildcard -> index 0) and one on e0 (0 -> 1).
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0].var_index, 0u);
  EXPECT_EQ(kids[0].inst.range_binding(0), 0);
  EXPECT_EQ(kids[1].var_index, 1u);
  EXPECT_EQ(kids[1].inst.edge_binding(0), 1);
  for (const auto& k : kids) {
    EXPECT_TRUE(k.inst.StrictlyRefines(root));
  }
}

TEST(LatticeNeighborsTest, RefineStopsAtDomainEnd) {
  Fixture f;
  Instantiation bottom = Instantiation::MostRefined(f.tmpl, f.domains);
  auto kids = LatticeNeighbors::RefineChildren(f.tmpl, f.domains, bottom,
                                               RefinementHints::None(f.tmpl));
  EXPECT_TRUE(kids.empty());
}

TEST(LatticeNeighborsTest, RelaxChildrenFromBottom) {
  Fixture f;
  Instantiation bottom = Instantiation::MostRefined(f.tmpl, f.domains);
  auto kids = LatticeNeighbors::RelaxChildren(f.tmpl, bottom);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0].inst.range_binding(0), 1);  // 2 -> 1.
  EXPECT_EQ(kids[1].inst.edge_binding(0), 0);
  for (const auto& k : kids) {
    EXPECT_TRUE(bottom.StrictlyRefines(k.inst));
  }
}

TEST(LatticeNeighborsTest, RelaxReachesWildcard) {
  Fixture f;
  Instantiation i({0}, {0});
  auto kids = LatticeNeighbors::RelaxChildren(f.tmpl, i);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_TRUE(kids[0].inst.is_wildcard(0));
}

TEST(LatticeNeighborsTest, RelaxStopsAtRoot) {
  Fixture f;
  Instantiation root = Instantiation::MostRelaxed(f.tmpl);
  EXPECT_TRUE(LatticeNeighbors::RelaxChildren(f.tmpl, root).empty());
}

TEST(LatticeNeighborsTest, HintsSkipUselessValues) {
  Fixture f;
  RefinementHints hints = RefinementHints::None(f.tmpl);
  hints.restrict_range[0] = true;
  hints.allowed_range_indexes[0] = {2};  // Only index 2 is still useful.
  Instantiation root = Instantiation::MostRelaxed(f.tmpl);
  auto kids = LatticeNeighbors::RefineChildren(f.tmpl, f.domains, root, hints);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0].inst.range_binding(0), 2);  // Jumped straight to 2.
}

TEST(LatticeNeighborsTest, HintsEmptyAllowedBlocksVariable) {
  Fixture f;
  RefinementHints hints = RefinementHints::None(f.tmpl);
  hints.restrict_range[0] = true;  // With empty allowed list.
  Instantiation root = Instantiation::MostRelaxed(f.tmpl);
  auto kids = LatticeNeighbors::RefineChildren(f.tmpl, f.domains, root, hints);
  ASSERT_EQ(kids.size(), 1u);  // Only the edge variable step remains.
  EXPECT_EQ(kids[0].var_index, 1u);
}

TEST(LatticeNeighborsTest, HintsFixEdgeToZero) {
  Fixture f;
  RefinementHints hints = RefinementHints::None(f.tmpl);
  hints.edge_fixed_zero[0] = true;
  Instantiation root = Instantiation::MostRelaxed(f.tmpl);
  auto kids = LatticeNeighbors::RefineChildren(f.tmpl, f.domains, root, hints);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids[0].var_index, 0u);  // Only the range variable step.
}

TEST(LatticeNeighborsTest, RefineRelaxAreInverse) {
  Fixture f;
  Instantiation mid({1}, {0});
  auto kids = LatticeNeighbors::RefineChildren(f.tmpl, f.domains, mid,
                                               RefinementHints::None(f.tmpl));
  for (const auto& k : kids) {
    auto back = LatticeNeighbors::RelaxChildren(f.tmpl, k.inst);
    bool found = false;
    for (const auto& b : back) {
      if (b.inst == mid) found = true;
    }
    EXPECT_TRUE(found) << "relaxing a refinement step must recover the parent";
  }
}

}  // namespace
}  // namespace fairsqg
