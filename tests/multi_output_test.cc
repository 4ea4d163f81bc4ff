#include "core/multi_output.h"

#include <gtest/gtest.h>

#include "common/run_context.h"
#include "core/enumerate.h"
#include "graph/graph_builder.h"

namespace fairsqg {
namespace {

// Two movie query nodes connected through a shared studio; both movies
// are designated outputs.
struct Fixture {
  std::shared_ptr<Schema> schema = std::make_shared<Schema>();
  Graph graph;
  QueryTemplate tmpl;
  VariableDomains domains;
  GroupSet groups;
  QNodeId m1, m2;

  Fixture()
      : graph(MakeGraph()),
        tmpl(schema),
        domains(MakeTemplate()),
        groups(MakeGroups()) {}

  Graph MakeGraph() {
    GraphBuilder b(schema);
    const char* genres[] = {"action", "romance", "action", "romance",
                            "action", "romance"};
    NodeId studio = b.AddNode("studio");
    b.SetAttr(studio, "size", AttrValue(int64_t{100}));
    for (int i = 0; i < 6; ++i) {
      NodeId m = b.AddNode("movie");
      b.SetAttr(m, "genre", AttrValue(std::string(genres[i])));
      b.SetAttr(m, "rating", AttrValue(static_cast<double>(4 + i)));
      b.AddEdge(m, studio, "producedBy");
    }
    return std::move(b).Build().ValueOrDie();
  }

  VariableDomains MakeTemplate() {
    m1 = tmpl.AddNode("movie");
    QNodeId studio = tmpl.AddNode("studio");
    m2 = tmpl.AddNode("movie");
    tmpl.SetOutputNode(m1);
    tmpl.AddRangeLiteral(m1, "rating", CompareOp::kGe);  // x0
    tmpl.AddEdge(m1, studio, "producedBy");
    tmpl.AddEdge(m2, studio, "producedBy");
    return VariableDomains::Build(graph, tmpl).ValueOrDie();
  }

  GroupSet MakeGroups() {
    LabelId movie = schema->NodeLabelId("movie");
    AttrId genre = schema->AttrIdOf("genre");
    return GroupSet::FromCategoricalAttr(graph, movie, genre, 2, 1).ValueOrDie();
  }

  QGenConfig Config() {
    QGenConfig config;
    config.graph = &graph;
    config.tmpl = &tmpl;
    config.domains = &domains;
    config.groups = &groups;
    config.epsilon = 0.1;
    return config;
  }
};

TEST(MultiOutputTest, UnionContainsSingleOutputMatches) {
  Fixture f;
  QGenConfig config = f.Config();
  InstanceVerifier single(config);
  MultiOutputVerifier multi =
      MultiOutputVerifier::Create(config, {f.m1, f.m2}).ValueOrDie();

  // The predicate on m1 (rating >= x0) filters m1's matches but m2 is
  // unconstrained, so the union is strictly larger for refined bindings.
  Instantiation refined({2}, {});
  EvaluatedPtr s = single.Verify(refined);
  EvaluatedPtr m = multi.Verify(refined);
  EXPECT_TRUE(std::includes(m->matches.begin(), m->matches.end(),
                            s->matches.begin(), s->matches.end()));
  EXPECT_GT(m->matches.size(), s->matches.size());
}

TEST(MultiOutputTest, UnionMonotoneUnderRefinement) {
  Fixture f;
  QGenConfig config = f.Config();
  MultiOutputVerifier multi =
      MultiOutputVerifier::Create(config, {f.m1, f.m2}).ValueOrDie();
  EvaluatedPtr relaxed = multi.Verify(Instantiation({kWildcardBinding}, {}));
  EvaluatedPtr refined = multi.Verify(Instantiation({3}, {}));
  EXPECT_TRUE(std::includes(relaxed->matches.begin(), relaxed->matches.end(),
                            refined->matches.begin(), refined->matches.end()));
  EXPECT_LE(refined->obj.diversity, relaxed->obj.diversity + 1e-9);
}

TEST(MultiOutputTest, SingleOutputReducesToInstanceVerifier) {
  Fixture f;
  QGenConfig config = f.Config();
  InstanceVerifier single(config);
  MultiOutputVerifier multi =
      MultiOutputVerifier::Create(config, {f.m1}).ValueOrDie();
  for (int32_t binding : {-1, 0, 2, 4}) {
    Instantiation inst({binding}, {});
    EvaluatedPtr a = single.Verify(inst);
    EvaluatedPtr b = multi.Verify(inst);
    EXPECT_EQ(a->matches, b->matches);
    EXPECT_NEAR(a->obj.diversity, b->obj.diversity, 1e-9);
    EXPECT_DOUBLE_EQ(a->obj.coverage, b->obj.coverage);
  }
}

TEST(MultiOutputTest, CreateValidatesInputs) {
  Fixture f;
  QGenConfig config = f.Config();
  EXPECT_TRUE(MultiOutputVerifier::Create(config, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MultiOutputVerifier::Create(config, {99})
                  .status()
                  .IsInvalidArgument());
  // The studio node (index 1) has a different label.
  EXPECT_TRUE(MultiOutputVerifier::Create(config, {f.m1, 1})
                  .status()
                  .IsInvalidArgument());
  QGenConfig bad;
  EXPECT_FALSE(MultiOutputVerifier::Create(bad, {0}).ok());
}

TEST(MultiOutputTest, EnumQGenProducesEpsilonParetoSet) {
  Fixture f;
  QGenConfig config = f.Config();
  QGenResult result =
      MultiOutputEnumQGen(config, {f.m1, f.m2}).ValueOrDie();
  ASSERT_FALSE(result.pareto.empty());

  // Ground truth under union semantics by direct sweep.
  MultiOutputVerifier verifier =
      MultiOutputVerifier::Create(config, {f.m1, f.m2}).ValueOrDie();
  InstantiationEnumerator it(*config.tmpl, *config.domains);
  Instantiation inst;
  while (it.Next(&inst)) {
    EvaluatedPtr e = verifier.Verify(inst);
    if (!e->feasible) continue;
    bool covered = false;
    for (const EvaluatedPtr& m : result.pareto) {
      if (EpsilonDominates(m->obj, e->obj, config.epsilon + 1e-9)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
}

TEST(MultiOutputTest, EnumQGenStopsOnItsRunContext) {
  Fixture f;
  ASSERT_GT(f.domains.InstanceSpaceSize(f.tmpl), 3u);
  RunContext partial;
  partial.CancelAfterVerifications(3);
  QGenConfig config = f.Config();
  config.run_context = &partial;
  QGenResult cut = MultiOutputEnumQGen(config, {f.m1, f.m2}).ValueOrDie();
  EXPECT_EQ(cut.stats.verified, 3u);
  EXPECT_TRUE(cut.stats.deadline_exceeded);

  RunContext fail;
  fail.CancelAfterVerifications(3);
  fail.set_on_expiry(ExpiryPolicy::kFail);
  config.run_context = &fail;
  EXPECT_TRUE(MultiOutputEnumQGen(config, {f.m1, f.m2})
                  .status()
                  .IsDeadlineExceeded());
}

}  // namespace
}  // namespace fairsqg
