#include "query/query_template.h"

#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace fairsqg {
namespace {

std::shared_ptr<Schema> MakeSchema() { return std::make_shared<Schema>(); }

TEST(QueryTemplateTest, BuildTalentSearchTemplate) {
  // The Fig. 1 template: director u_o recommended by users u1, u2 working
  // at an org u4, with range variables on yearsOfExp and employees.
  QueryTemplate t(MakeSchema());
  QNodeId uo = t.AddNode("director");
  QNodeId u1 = t.AddNode("user");
  QNodeId u2 = t.AddNode("user");
  QNodeId u4 = t.AddNode("org");
  t.SetOutputNode(uo);
  t.AddLiteral(uo, "domain", CompareOp::kEq, AttrValue(std::string("IT")));
  RangeVarId x1 = t.AddRangeLiteral(u1, "yearsOfExp", CompareOp::kGe);
  RangeVarId x2 = t.AddRangeLiteral(u2, "yearsOfExp", CompareOp::kGe);
  RangeVarId x3 = t.AddRangeLiteral(u4, "employees", CompareOp::kGe);
  t.AddEdge(u1, uo, "recommend");
  EdgeVarId e1 = t.AddVariableEdge(u2, uo, "recommend");
  t.AddEdge(u1, u4, "worksAt");
  EdgeVarId e2 = t.AddVariableEdge(u2, u4, "worksAt");

  EXPECT_EQ(t.num_nodes(), 4u);
  EXPECT_EQ(t.num_edges(), 4u);
  EXPECT_EQ(t.num_range_vars(), 3u);
  EXPECT_EQ(t.num_edge_vars(), 2u);
  EXPECT_EQ(t.num_vars(), 5u);
  EXPECT_EQ(t.output_node(), uo);
  EXPECT_EQ(x1, 0u);
  EXPECT_EQ(x2, 1u);
  EXPECT_EQ(x3, 2u);
  EXPECT_EQ(e1, 0u);
  EXPECT_EQ(e2, 1u);
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
}

TEST(QueryTemplateTest, LiteralsOfNode) {
  QueryTemplate t(MakeSchema());
  QNodeId a = t.AddNode("x");
  QNodeId b = t.AddNode("y");
  t.AddEdge(a, b, "e");
  t.AddLiteral(a, "p", CompareOp::kGe, AttrValue(int64_t{1}));
  t.AddRangeLiteral(a, "q", CompareOp::kLe);
  EXPECT_EQ(t.literals_of(a).size(), 2u);
  EXPECT_TRUE(t.literals_of(b).empty());
}

TEST(QueryTemplateTest, InterleavedAddsKeepEveryAccessor) {
  // Nodes, literals, range variables and edge variables added in mixed
  // order, with several literals on one node and a node added after the
  // first literals.
  QueryTemplate t(MakeSchema());
  QNodeId a = t.AddNode("x");
  QNodeId b = t.AddNode("y");
  RangeVarId x0 = t.AddRangeLiteral(b, "p", CompareOp::kGe);      // literal 0
  t.AddLiteral(a, "q", CompareOp::kEq, AttrValue(int64_t{3}));    // literal 1
  EdgeVarId e0 = t.AddVariableEdge(a, b, "knows");                // edge 0
  RangeVarId x1 = t.AddRangeLiteral(a, "r", CompareOp::kLe);      // literal 2
  QNodeId c = t.AddNode("z");
  t.AddEdge(b, c, "likes");                                        // edge 1
  RangeVarId x2 = t.AddRangeLiteral(b, "s", CompareOp::kGt);      // literal 3
  EdgeVarId e1 = t.AddVariableEdge(c, a, "knows");                 // edge 2
  t.AddLiteral(b, "u", CompareOp::kLt, AttrValue(2.5));           // literal 4
  RangeVarId x3 = t.AddRangeLiteral(c, "p", CompareOp::kGe);      // literal 5

  ASSERT_EQ(t.num_nodes(), 3u);
  EXPECT_EQ(t.node_label(a), t.schema().NodeLabelId("x"));
  EXPECT_EQ(t.node_label(b), t.schema().NodeLabelId("y"));
  EXPECT_EQ(t.node_label(c), t.schema().NodeLabelId("z"));
  auto literals = [&](QNodeId u) {
    std::span<const uint32_t> ids = t.literals_of(u);
    return std::vector<uint32_t>(ids.begin(), ids.end());
  };
  EXPECT_EQ(literals(a), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(literals(b), (std::vector<uint32_t>{0, 3, 4}));
  EXPECT_EQ(literals(c), (std::vector<uint32_t>{5}));
  for (QNodeId u : {a, b, c}) {
    for (uint32_t li : t.literals_of(u)) EXPECT_EQ(t.literals()[li].node, u);
  }

  ASSERT_EQ(t.num_range_vars(), 4u);
  ASSERT_EQ(t.num_edge_vars(), 2u);
  EXPECT_EQ(t.num_vars(), 6u);
  const RangeVarId xs[] = {x0, x1, x2, x3};
  const uint32_t var_literals[] = {0, 2, 3, 5};
  for (RangeVarId x = 0; x < 4; ++x) {
    EXPECT_EQ(xs[x], x);
    EXPECT_EQ(t.literal_of_var(x), var_literals[x]);
    EXPECT_EQ(t.literals()[t.literal_of_var(x)].variable, x);
  }
  EXPECT_EQ(e0, 0u);
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(t.edge_of_var(e0), 0u);
  EXPECT_EQ(t.edge_of_var(e1), 2u);
  EXPECT_EQ(t.edge(t.edge_of_var(e1)).variable, e1);
  EXPECT_FALSE(t.edge(1).is_variable());
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();

  // Copies read the same.
  const QueryTemplate copy = t;
  EXPECT_EQ(copy.ToString(), t.ToString());
  EXPECT_EQ(copy.literal_of_var(x2), 3u);
}

TEST(QueryTemplateTest, VariableBookkeeping) {
  QueryTemplate t(MakeSchema());
  QNodeId a = t.AddNode("x");
  QNodeId b = t.AddNode("y");
  RangeVarId x = t.AddRangeLiteral(a, "p", CompareOp::kGt);
  EdgeVarId e = t.AddVariableEdge(a, b, "knows");
  EXPECT_EQ(t.literal_of_var(x), 0u);
  EXPECT_EQ(t.edge_of_var(e), 0u);
  EXPECT_TRUE(t.edges()[t.edge_of_var(e)].is_variable());
  EXPECT_TRUE(t.literals()[t.literal_of_var(x)].is_variable());
}

TEST(QueryTemplateTest, ValidateRejectsEmpty) {
  QueryTemplate t(MakeSchema());
  EXPECT_TRUE(t.Validate().IsInvalidArgument());
}

TEST(QueryTemplateTest, ValidateRejectsDisconnected) {
  QueryTemplate t(MakeSchema());
  t.AddNode("x");
  t.AddNode("y");  // No edge between them.
  EXPECT_TRUE(t.Validate().IsInvalidArgument());
}

TEST(QueryTemplateTest, ValidateRejectsSelfLoop) {
  QueryTemplate t(MakeSchema());
  QNodeId a = t.AddNode("x");
  t.AddEdge(a, a, "e");
  EXPECT_TRUE(t.Validate().IsInvalidArgument());
}

TEST(QueryTemplateTest, ValidateRejectsEqualityRangeVariable) {
  QueryTemplate t(MakeSchema());
  QNodeId a = t.AddNode("x");
  t.AddRangeLiteral(a, "p", CompareOp::kEq);
  EXPECT_TRUE(t.Validate().IsInvalidArgument());
}

TEST(QueryTemplateTest, SingleNodeTemplateIsValid) {
  QueryTemplate t(MakeSchema());
  t.AddNode("x");
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.Diameter(), 0);
}

TEST(QueryTemplateTest, DiameterOfPath) {
  QueryTemplate t(MakeSchema());
  QNodeId a = t.AddNode("x");
  QNodeId b = t.AddNode("x");
  QNodeId c = t.AddNode("x");
  t.AddEdge(a, b, "e");
  t.AddVariableEdge(b, c, "e");  // Variable edges count for the diameter.
  EXPECT_EQ(t.Diameter(), 2);
}

TEST(QueryTemplateTest, DiameterOfStar) {
  QueryTemplate t(MakeSchema());
  QNodeId hub = t.AddNode("h");
  for (int i = 0; i < 3; ++i) {
    QNodeId leaf = t.AddNode("l");
    t.AddEdge(hub, leaf, "e");
  }
  EXPECT_EQ(t.Diameter(), 2);
}

TEST(QueryTemplateTest, ToStringMentionsVariables) {
  QueryTemplate t(MakeSchema());
  QNodeId a = t.AddNode("user");
  QNodeId b = t.AddNode("org");
  t.AddRangeLiteral(a, "yearsOfExp", CompareOp::kGe);
  t.AddVariableEdge(a, b, "worksAt");
  std::string s = t.ToString();
  EXPECT_NE(s.find("x0"), std::string::npos);
  EXPECT_NE(s.find("xe0"), std::string::npos);
  EXPECT_NE(s.find("yearsOfExp"), std::string::npos);
  EXPECT_NE(s.find("worksAt"), std::string::npos);
}

}  // namespace
}  // namespace fairsqg
