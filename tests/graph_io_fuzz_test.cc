// Property suite: random attributed graphs survive a text-serialization
// round trip exactly (structure, labels, typed attributes, adjacency).

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"

namespace fairsqg {
namespace {

Graph RandomGraph(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b;
  const char* labels[] = {"alpha", "beta", "gamma"};
  const char* elabels[] = {"knows", "likes"};
  size_t n = 5 + rng.NextBounded(30);
  for (size_t i = 0; i < n; ++i) {
    NodeId v = b.AddNode(labels[rng.NextBounded(3)]);
    if (rng.NextBernoulli(0.8)) {
      b.SetAttr(v, "count", AttrValue(rng.NextInRange(-100, 100)));
    }
    if (rng.NextBernoulli(0.5)) {
      b.SetAttr(v, "score",
                AttrValue(static_cast<double>(rng.NextInRange(0, 1000)) / 8.0));
    }
    if (rng.NextBernoulli(0.6)) {
      std::string tag = "tag-" + std::to_string(rng.NextBounded(6));
      b.SetAttr(v, "tag", AttrValue(tag));
    }
  }
  size_t m = rng.NextBounded(4 * n);
  for (size_t i = 0; i < m; ++i) {
    NodeId from = static_cast<NodeId>(rng.NextBounded(n));
    NodeId to = static_cast<NodeId>(rng.NextBounded(n));
    if (from != to) b.AddEdge(from, to, elabels[rng.NextBounded(2)]);
  }
  return std::move(b).Build().ValueOrDie();
}

class GraphIoFuzzTest : public testing::TestWithParam<int> {};

TEST_P(GraphIoFuzzTest, RoundTripIsExact) {
  Graph g = RandomGraph(static_cast<uint64_t>(GetParam()) * 7901 + 3);
  std::ostringstream out;
  ASSERT_TRUE(WriteGraphText(g, out).ok());
  std::istringstream in(out.str());
  Result<Graph> r = ReadGraphText(in);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Graph& g2 = *r;

  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g2.schema().NodeLabelName(g2.node_label(v)),
              g.schema().NodeLabelName(g.node_label(v)));
    auto attrs = g.attrs(v);
    auto attrs2 = g2.attrs(v);
    ASSERT_EQ(attrs2.size(), attrs.size()) << "node " << v;
    for (size_t i = 0; i < attrs.size(); ++i) {
      EXPECT_EQ(g2.schema().AttrName(attrs2[i].attr),
                g.schema().AttrName(attrs[i].attr));
      const AttrValue& value = g.attr_value(attrs[i]);
      const AttrValue& value2 = g2.attr_value(attrs2[i]);
      EXPECT_EQ(value2, value);
      EXPECT_EQ(value2.is_int(), value.is_int());
      EXPECT_EQ(value2.is_double(), value.is_double());
    }
    // Adjacency as multisets of (neighbor, label name): the interning
    // order — and hence the in-memory sort within a (from, to) pair — may
    // legitimately differ after a round trip.
    auto edge_set = [](const Graph& graph, NodeId node) {
      std::vector<std::pair<NodeId, std::string>> out;
      for (const AdjEntry& e : graph.OutEdges(node)) {
        out.emplace_back(e.neighbor, graph.schema().EdgeLabelName(e.edge_label));
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(edge_set(g2, v), edge_set(g, v)) << "node " << v;
  }
  // Second round trip is byte-identical (canonical form).
  std::ostringstream out2;
  ASSERT_TRUE(WriteGraphText(g2, out2).ok());
  EXPECT_EQ(out2.str(), out.str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphIoFuzzTest, testing::Range(0, 15));

}  // namespace
}  // namespace fairsqg
