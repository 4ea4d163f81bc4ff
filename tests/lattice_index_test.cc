// LatticeIndex differential test (DESIGN.md §14): on seeded random tree
// templates over a small random movie graph, every instance's match set
// derived from one annotated pass — plus frontier certification under
// isomorphism — must equal SubgraphMatcher::MatchOutput and the brute-force
// oracle, under both matching semantics. The templates mix 1–4 range
// variables (>= and <=), fixed literals, empty domains, up to two optional
// edges (one of them above a subtree), and repeated labels. The same trees
// with one closing edge, fixed or optional, give cyclic templates, which
// the pass evaluates over a spanning tree.

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "core/bi_qgen.h"
#include "core/cbm.h"
#include "core/enum_qgen.h"
#include "core/enumerate.h"
#include "core/groups.h"
#include "core/kungs.h"
#include "core/lattice_verify.h"
#include "core/parallel_qgen.h"
#include "core/rf_qgen.h"
#include "core/verifier.h"
#include "graph/graph_builder.h"
#include "matching/brute_force.h"
#include "matching/lattice_index.h"
#include "matching/subgraph_matcher.h"
#include "query/instance.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

/// Small enough for the brute-force oracle: 9 movies, 4 directors and
/// 4 actors, with directs, stars and sequel edges.
Graph MakeMovieGraph(uint64_t seed, std::shared_ptr<Schema> schema) {
  Rng rng(seed);
  GraphBuilder b(std::move(schema));
  std::vector<NodeId> movies, people;
  for (int i = 0; i < 9; ++i) {
    NodeId m = b.AddNode("movie");
    if (rng.NextBernoulli(0.85)) {
      b.SetAttr(m, "year", AttrValue(rng.NextInRange(1990, 1997)));
    }
    b.SetAttr(m, "rating", AttrValue(static_cast<double>(rng.NextInRange(2, 9))));
    b.SetAttr(m, "genre",
              AttrValue(std::string(rng.NextBernoulli(0.5) ? "drama" : "comedy")));
    movies.push_back(m);
  }
  for (const char* label : {"director", "director", "director", "director",
                            "actor", "actor", "actor", "actor"}) {
    NodeId p = b.AddNode(label);
    b.SetAttr(p, "age", AttrValue(rng.NextInRange(20, 60)));
    people.push_back(p);
  }
  for (int i = 0; i < 14; ++i) {
    NodeId p = people[rng.NextBounded(people.size())];
    NodeId m = movies[rng.NextBounded(movies.size())];
    b.AddEdge(p, m, p < movies.size() + 4 ? "directs" : "stars");
  }
  for (int i = 0; i < 10; ++i) {
    NodeId a = movies[rng.NextBounded(movies.size())];
    NodeId c = movies[rng.NextBounded(movies.size())];
    if (a != c) b.AddEdge(a, c, "sequel");
  }
  return std::move(b).Build().ValueOrDie();
}

/// A random tree rooted at a movie: each new node hangs off an earlier one
/// over an edge the graph's labels allow (people attach to movies, movies
/// to anything), so labels repeat (movie–director–movie–movie).
std::unique_ptr<QueryTemplate> MakeTreeTemplate(
    Rng* rng, const std::shared_ptr<Schema>& schema) {
  auto t = std::make_unique<QueryTemplate>(schema);
  std::vector<std::string> labels = {"movie"};
  t->AddNode("movie");
  t->SetOutputNode(0);
  const size_t num_nodes = 2 + rng->NextBounded(3);  // 2..4 nodes.
  size_t optional_edges = 0;
  for (size_t i = 1; i < num_nodes; ++i) {
    const QNodeId parent = static_cast<QNodeId>(rng->NextBounded(i));
    std::string label = "movie";
    if (labels[parent] == "movie") {
      const char* options[] = {"movie", "director", "actor"};
      label = options[rng->NextBounded(3)];
    }
    const QNodeId child = t->AddNode(label);
    labels.push_back(label);
    QNodeId from = parent, to = child;
    std::string edge = "sequel";
    if (label == "director" || labels[parent] == "director") edge = "directs";
    if (label == "actor" || labels[parent] == "actor") edge = "stars";
    if (edge != "sequel") {
      // People point at movies.
      if (labels[parent] == "movie") std::swap(from, to);
    } else if (rng->NextBernoulli(0.5)) {
      std::swap(from, to);
    }
    // Optional edges, the first one above whatever subtree `child` grows.
    if (optional_edges < 2 && rng->NextBernoulli(0.4)) {
      t->AddVariableEdge(from, to, edge);
      ++optional_edges;
    } else {
      t->AddEdge(from, to, edge);
    }
  }
  // 1..4 range variables; "age" on a movie has an empty domain.
  const size_t num_range = 1 + rng->NextBounded(4);
  for (size_t i = 0; i < num_range; ++i) {
    const QNodeId u = static_cast<QNodeId>(rng->NextBounded(num_nodes));
    const char* attr = "age";
    if (labels[u] == "movie") {
      const char* options[] = {"year", "rating", "age"};
      attr = options[rng->NextBounded(3)];
    }
    t->AddRangeLiteral(u, attr,
                       rng->NextBernoulli(0.5) ? CompareOp::kGe : CompareOp::kLe);
  }
  if (rng->NextBernoulli(0.5)) {
    const QNodeId u = static_cast<QNodeId>(rng->NextBounded(num_nodes));
    if (labels[u] == "movie") {
      t->AddLiteral(u, "genre", CompareOp::kEq, AttrValue(std::string("drama")));
    } else {
      t->AddLiteral(u, "age", CompareOp::kGe, AttrValue(int64_t{30}));
    }
  }
  return t;
}

/// Adds one edge between two nodes of `t` that the graph's labels allow
/// (movie–movie sequel either way, a person to a movie), closing a cycle.
/// Returns false when the drawn pairs allow no new edge.
bool AddClosingEdge(Rng* rng, QueryTemplate* t) {
  const size_t n = t->num_nodes();
  const LabelId movie = t->schema().NodeLabelId("movie");
  const LabelId director = t->schema().NodeLabelId("director");
  for (int attempt = 0; attempt < 4; ++attempt) {
    QNodeId from = static_cast<QNodeId>(rng->NextBounded(n));
    QNodeId to = static_cast<QNodeId>(rng->NextBounded(n));
    if (from == to) continue;
    std::string edge = "sequel";
    if (t->node_label(from) == movie && t->node_label(to) == movie) {
      // Either direction; a reverse sequel closes a 2-cycle.
    } else if (t->node_label(from) == movie || t->node_label(to) == movie) {
      if (t->node_label(from) == movie) std::swap(from, to);  // Person first.
      edge = t->node_label(from) == director ? "directs" : "stars";
    } else {
      continue;  // Two people: no edge label joins them.
    }
    const LabelId label = t->schema().EdgeLabelId(edge);
    const bool duplicate = std::any_of(
        t->edges().begin(), t->edges().end(), [&](const QueryEdge& e) {
          return e.from == from && e.to == to && e.label == label;
        });
    if (duplicate) continue;
    if (rng->NextBernoulli(0.5)) {
      t->AddVariableEdge(from, to, edge);
    } else {
      t->AddEdge(from, to, edge);
    }
    return true;
  }
  return false;
}

struct Fixture {
  std::shared_ptr<Schema> schema = std::make_shared<Schema>();
  Graph graph;
  std::unique_ptr<QueryTemplate> tmpl;
  std::unique_ptr<VariableDomains> domains;
  std::unique_ptr<GroupSet> groups;
  /// Whether a closing edge was added (only when asked for).
  bool cyclic = false;

  /// The seed's random tree template, plus one closing edge when
  /// `close_cycle` and the drawn pairs allow one.
  explicit Fixture(uint64_t seed, bool close_cycle = false)
      : graph(MakeMovieGraph(seed, schema)) {
    Rng rng(seed * 7919 + 3);
    tmpl = MakeTreeTemplate(&rng, schema);
    if (close_cycle) {
      Rng closing(seed * 104729 + 11);
      cyclic = AddClosingEdge(&closing, tmpl.get());
    }
    domains = std::make_unique<VariableDomains>(
        VariableDomains::Build(graph, *tmpl).ValueOrDie().Coarsened(3));
    groups = std::make_unique<GroupSet>(
        GroupSet::Create(graph.num_nodes(),
                         {graph.NodesWithLabel(schema->NodeLabelId("movie"))},
                         {1})
            .ValueOrDie());
  }

  QGenConfig Config(MatchSemantics semantics) const {
    QGenConfig config;
    config.graph = &graph;
    config.tmpl = tmpl.get();
    config.domains = domains.get();
    config.groups = groups.get();
    config.epsilon = 0.05;
    config.semantics = semantics;
    return config;
  }
};

/// Every instance's set from one VerifyLattice run equals MatchOutput and
/// the brute-force oracle, under both semantics.
void ExpectDerivedSetsExact(const Fixture& f) {
  ASSERT_TRUE(f.tmpl->Validate().ok()) << f.tmpl->ToString();
  ASSERT_TRUE(LatticeApplies(f.Config(MatchSemantics::kIsomorphism)));
  for (MatchSemantics semantics :
       {MatchSemantics::kIsomorphism, MatchSemantics::kHomomorphism}) {
    const QGenConfig config = f.Config(semantics);
    InstanceVerifier verifier(config);
    InstanceVerifier* const verifiers[] = {&verifier};
    std::vector<EvaluatedPtr> derived;
    GenStats stats;
    VerifyLattice(
        config, /*pool=*/nullptr, verifiers,
        [&](size_t, EvaluatedPtr e) { derived.push_back(std::move(e)); },
        &stats);
    const size_t space = f.domains->InstanceSpaceSize(*f.tmpl);
    ASSERT_EQ(derived.size(), space);
    EXPECT_EQ(stats.verified, space);
    EXPECT_FALSE(stats.deadline_exceeded);

    SubgraphMatcher matcher(f.graph, semantics);
    for (const EvaluatedPtr& e : derived) {
      QueryInstance q =
          QueryInstance::Materialize(*f.tmpl, *f.domains, e->inst);
      const std::string who =
          std::string(semantics == MatchSemantics::kIsomorphism ? "iso "
                                                                : "hom ") +
          e->inst.ToString(*f.tmpl, *f.domains) + "\n" + f.tmpl->ToString();
      EXPECT_EQ(e->matches, matcher.MatchOutput(q)) << who;
      EXPECT_EQ(e->matches, BruteForceMatchOutput(f.graph, q, semantics))
          << who;
    }
  }
}

class LatticeIndexTest : public testing::TestWithParam<int> {};

TEST_P(LatticeIndexTest, DerivedSetsMatchMatcherAndBruteForce) {
  ExpectDerivedSetsExact(Fixture(static_cast<uint64_t>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeIndexTest, testing::Range(0, 48));

TEST(LatticeIndexCyclicTest, DerivedSetsMatchMatcherAndBruteForce) {
  // The spanning tree leaves the closing edge out; certification under
  // both semantics must make every set exact again.
  constexpr int kSeeds = 300;
  size_t cyclic = 0, optional = 0;
  // Instances whose homomorphic answer the closing edge shrinks: there the
  // spanning tree's frontier is a strict superset, and only certification
  // gets the set right.
  size_t shrunk = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Fixture f(static_cast<uint64_t>(seed), /*close_cycle=*/true);
    if (!f.cyclic) continue;
    ++cyclic;
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectDerivedSetsExact(f);
    if (HasFatalFailure()) return;
    if (f.tmpl->edges().back().is_variable()) {
      ++optional;
      continue;
    }
    // A fixed closing edge adds no variable: the tree template has the
    // same instances.
    const Fixture tree(static_cast<uint64_t>(seed));
    InstantiationEnumerator it(*f.tmpl, *f.domains);
    Instantiation inst;
    while (it.Next(&inst)) {
      shrunk += BruteForceMatchOutput(
                    f.graph,
                    QueryInstance::Materialize(*f.tmpl, *f.domains, inst),
                    MatchSemantics::kHomomorphism) !=
                BruteForceMatchOutput(
                    tree.graph,
                    QueryInstance::Materialize(*tree.tmpl, *tree.domains, inst),
                    MatchSemantics::kHomomorphism);
    }
  }
  // Most seeds draw a pair that admits a closing edge, of either kind.
  RecordProperty("cyclic_templates", static_cast<int>(cyclic));
  RecordProperty("optional_closing_edges", static_cast<int>(optional));
  RecordProperty("shrunk_instances", static_cast<int>(shrunk));
  EXPECT_GE(cyclic, 150u);
  EXPECT_GT(optional, 0u);
  EXPECT_LT(optional, cyclic);
  EXPECT_GT(shrunk, 0u);
}

TEST(LatticeIndexCoverageTest, SeedsExerciseTheFeatures) {
  // The seeds above must reach every feature the test claims: optional
  // edges above a subtree, empty domains, repeated labels, 4 range
  // variables, fixed literals, and non-empty isomorphic answers that differ
  // from the homomorphic ones.
  bool subtree_edge = false, empty_domain = false, repeated = false;
  bool four_vars = false, fixed = false, iso_differs = false;
  size_t nonempty = 0;
  for (int seed = 0; seed < 48; ++seed) {
    Fixture f(static_cast<uint64_t>(seed));
    const QueryTemplate& t = *f.tmpl;
    for (const QueryEdge& e : t.edges()) {
      if (!e.is_variable()) continue;
      // Nodes are added below their parents, so the later endpoint is the
      // root of the subtree the edge switches off.
      const QNodeId lower = std::max(e.from, e.to);
      for (const QueryEdge& other : t.edges()) {
        if (&other != &e && (other.from == lower || other.to == lower)) {
          subtree_edge = true;
        }
      }
    }
    for (RangeVarId x = 0; x < t.num_range_vars(); ++x) {
      empty_domain = empty_domain || f.domains->size(x) == 0;
    }
    for (QNodeId u = 1; u < t.num_nodes(); ++u) {
      repeated = repeated || t.node_label(u) == t.node_label(0);
    }
    four_vars = four_vars || t.num_range_vars() == 4;
    fixed = fixed || t.literals().size() > t.num_range_vars();
    SubgraphMatcher iso(f.graph, MatchSemantics::kIsomorphism);
    SubgraphMatcher hom(f.graph, MatchSemantics::kHomomorphism);
    InstantiationEnumerator it(t, *f.domains);
    Instantiation inst;
    while (it.Next(&inst)) {
      QueryInstance q = QueryInstance::Materialize(t, *f.domains, inst);
      const NodeSet a = iso.MatchOutput(q);
      nonempty += !a.empty();
      iso_differs = iso_differs || a != hom.MatchOutput(q);
    }
  }
  EXPECT_TRUE(subtree_edge);
  EXPECT_TRUE(empty_domain);
  EXPECT_TRUE(repeated);
  EXPECT_TRUE(four_vars);
  EXPECT_TRUE(fixed);
  EXPECT_TRUE(iso_differs);
  EXPECT_GT(nonempty, 0u);
}

/// Two movies over a sequel edge with ten range variables over the year
/// and rating domains: millions of instances, past the level list's cap.
QueryTemplate MakeWideTemplate(const std::shared_ptr<Schema>& schema) {
  QueryTemplate wide(schema);
  QNodeId m = wide.AddNode("movie");
  QNodeId n = wide.AddNode("movie");
  wide.SetOutputNode(m);
  wide.AddEdge(m, n, "sequel");
  for (int i = 0; i < 10; ++i) {
    wide.AddRangeLiteral(i % 2 == 0 ? m : n, i % 3 == 0 ? "year" : "rating",
                         i % 2 == 0 ? CompareOp::kGe : CompareOp::kLe);
  }
  return wide;
}

/// movie -sequel-> movie -sequel-> movie -sequel-> back to the first: a
/// cycle, which the pass evaluates over a spanning tree. Only a space over
/// kMaxLatticeInstances keeps the per-instance path.
TEST(LatticeIndexFallbackTest, OnlyOversizedSpacesTakePerInstancePath) {
  Fixture f(5);
  QueryTemplate cyclic(f.schema);
  QNodeId a = cyclic.AddNode("movie");
  QNodeId b = cyclic.AddNode("movie");
  QNodeId c = cyclic.AddNode("movie");
  cyclic.SetOutputNode(a);
  cyclic.AddRangeLiteral(b, "rating", CompareOp::kGe);
  cyclic.AddEdge(a, b, "sequel");
  cyclic.AddEdge(b, c, "sequel");
  cyclic.AddVariableEdge(c, a, "sequel");
  VariableDomains domains =
      VariableDomains::Build(f.graph, cyclic).ValueOrDie().Coarsened(3);
  ASSERT_TRUE(LatticeIndex::Supports(domains));
  QGenConfig config = f.Config(MatchSemantics::kIsomorphism);
  config.tmpl = &cyclic;
  config.domains = &domains;
  ASSERT_TRUE(LatticeApplies(config));
  for (MatchSemantics semantics :
       {MatchSemantics::kIsomorphism, MatchSemantics::kHomomorphism}) {
    config.semantics = semantics;
    InstanceVerifier verifier(config);
    InstanceVerifier* const verifiers[] = {&verifier};
    GenStats stats;
    const std::vector<EvaluatedPtr> sets =
        EvaluateLattice(config, /*pool=*/nullptr, verifiers, &stats);
    ASSERT_EQ(sets.size(), domains.InstanceSpaceSize(cyclic));
    for (const EvaluatedPtr& e : sets) {
      ASSERT_NE(e, nullptr);
      QueryInstance q = QueryInstance::Materialize(cyclic, domains, e->inst);
      EXPECT_EQ(e->matches, BruteForceMatchOutput(f.graph, q, semantics))
          << e->inst.ToString(cyclic, domains);
    }
  }

  // The ten-variable space is past the level list's cap
  // (OdometerFallbackTest runs it).
  const QueryTemplate wide = MakeWideTemplate(f.schema);
  VariableDomains wide_domains =
      VariableDomains::Build(f.graph, wide).ValueOrDie();
  ASSERT_GT(wide_domains.InstanceSpaceSize(wide), kMaxLatticeInstances);
  EXPECT_TRUE(LatticeIndex::Supports(wide_domains));
  config.tmpl = &wide;
  config.domains = &wide_domains;
  EXPECT_FALSE(LatticeApplies(config));
}

/// The per-instance fallback, on the ten-variable space the lattice cannot
/// list, cut by a RunContext budget of n. EnumQGen and ParallelQGen verify
/// exactly the first n instances, on one odometer serial or pooled, and
/// give one archive; RfQGen's and BiQGen's searches, which would consume
/// far more, verify at most n; every member's set is exact. Kungs and CBM
/// refuse a space over the enumeration cap.
TEST(OdometerFallbackTest, RunContextBudgetBoundsEveryGenerator) {
  Fixture f(5);
  const QueryTemplate wide = MakeWideTemplate(f.schema);
  const VariableDomains domains =
      VariableDomains::Build(f.graph, wide).ValueOrDie();
  ASSERT_GT(domains.InstanceSpaceSize(wide), kMaxEnumeratedInstances);
  // Enough claims for every worker of a 4-worker pool to take several.
  constexpr uint32_t kBudget = 150;

  using Generator = std::function<Result<QGenResult>(const QGenConfig&)>;
  const std::pair<const char*, Generator> exact[] = {
      {"EnumQGen", EnumQGen::Run},
      {"ParallelQGen(1)",
       [](const QGenConfig& c) { return ParallelQGen::Run(c, 1); }},
      {"ParallelQGen(2)",
       [](const QGenConfig& c) { return ParallelQGen::Run(c, 2); }},
      {"ParallelQGen(4)",
       [](const QGenConfig& c) { return ParallelQGen::Run(c, 4); }},
  };
  const std::pair<const char*, Generator> searches[] = {
      {"RfQGen", RfQGen::Run},
      {"BiQGen", BiQGen::Run},
      {"BiQGen::RunParallel(2)",
       [](const QGenConfig& c) { return BiQGen::RunParallel(c, 2); }},
  };
  for (MatchSemantics semantics :
       {MatchSemantics::kIsomorphism, MatchSemantics::kHomomorphism}) {
    QGenConfig config = f.Config(semantics);
    config.tmpl = &wide;
    config.domains = &domains;
    ASSERT_FALSE(LatticeApplies(config));
    SubgraphMatcher matcher(f.graph, semantics);
    auto expect_exact = [&](const std::vector<EvaluatedPtr>& pareto,
                            const std::string& who) {
      for (const EvaluatedPtr& e : pareto) {
        QueryInstance q = QueryInstance::Materialize(wide, domains, e->inst);
        EXPECT_EQ(e->matches, matcher.MatchOutput(q))
            << who << " " << e->inst.ToString(wide, domains);
      }
    };
    auto run = [&](const Generator& generator) {
      RunContext ctx;
      ctx.CancelAfterVerifications(kBudget);
      QGenConfig bounded = config;
      bounded.run_context = &ctx;
      return generator(bounded);
    };

    std::vector<EvaluatedPtr> enum_archive;
    for (const auto& [name, generator] : exact) {
      SCOPED_TRACE(name);
      const QGenResult r = run(generator).ValueOrDie();
      EXPECT_EQ(r.stats.generated, kBudget);
      EXPECT_EQ(r.stats.verified, kBudget);
      EXPECT_TRUE(r.stats.deadline_exceeded);
      ASSERT_FALSE(r.pareto.empty());
      expect_exact(r.pareto, name);
      if (enum_archive.empty()) {
        enum_archive = r.pareto;
        continue;
      }
      ASSERT_EQ(r.pareto.size(), enum_archive.size());
      for (size_t i = 0; i < r.pareto.size(); ++i) {
        EXPECT_EQ(r.pareto[i]->inst, enum_archive[i]->inst);
        EXPECT_EQ(r.pareto[i]->matches, enum_archive[i]->matches);
      }
    }
    for (const auto& [name, generator] : searches) {
      SCOPED_TRACE(name);
      const QGenResult r = run(generator).ValueOrDie();
      EXPECT_GT(r.stats.verified, 0u);
      EXPECT_LE(r.stats.verified, kBudget);
      EXPECT_TRUE(r.stats.deadline_exceeded);
      expect_exact(r.pareto, name);
    }
    EXPECT_TRUE(run(Kungs::Run).status().IsFailedPrecondition());
    EXPECT_TRUE(run([](const QGenConfig& c) { return Cbm::Run(c, 6); })
                    .status()
                    .IsFailedPrecondition());
  }
}

TEST(LatticeIndexDeadlineTest, HardExpiredContextAbortsThePass) {
  Fixture f(3);
  RunContext ctx;
  ctx.RequestCancel();
  EXPECT_EQ(LatticeIndex::Build(f.graph, *f.tmpl, *f.domains, &ctx)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);

  QGenConfig config = f.Config(MatchSemantics::kIsomorphism);
  config.run_context = &ctx;
  ctx.set_on_expiry(ExpiryPolicy::kPartial);
  for (const auto run :
       {&EnumQGen::Run, &RfQGen::Run, &Kungs::Run, &BiQGen::Run,
        +[](const QGenConfig& c) { return BiQGen::RunParallel(c, 2); }}) {
    QGenResult r = run(config).ValueOrDie();
    EXPECT_TRUE(r.stats.deadline_exceeded);
    EXPECT_EQ(r.stats.verified, 0u);
    EXPECT_TRUE(r.pareto.empty());
  }
}

/// Builds the index serially and on pools of 1 to 4 workers, and expects
/// the same frontier at every rank. Returns the serial index's number of
/// frontier entries.
size_t ExpectSameFrontiersAtAnyWorkerCount(const Graph& g,
                                           const QueryTemplate& tmpl,
                                           const VariableDomains& domains,
                                           const std::string& who) {
  const LatticeIndex serial = LatticeIndex::Build(g, tmpl, domains).ValueOrDie();
  size_t entries = 0;
  for (uint64_t rank = 0; rank < serial.num_instances(); ++rank) {
    entries += serial.Frontier(rank).size();
  }
  for (size_t workers : {1, 2, 3, 4}) {
    ThreadPool pool(workers);
    const LatticeIndex pooled =
        LatticeIndex::Build(g, tmpl, domains, nullptr, &pool).ValueOrDie();
    EXPECT_EQ(pooled.num_instances(), serial.num_instances()) << who;
    for (uint64_t rank = 0; rank < serial.num_instances(); ++rank) {
      const std::span<const NodeId> a = serial.Frontier(rank);
      const std::span<const NodeId> b = pooled.Frontier(rank);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << who << " workers=" << workers << " rank=" << rank;
    }
  }
  return entries;
}

TEST(LatticeIndexPoolTest, RandomTreesGiveSerialFrontiersAtAnyWorkerCount) {
  for (int seed = 0; seed < 48; ++seed) {
    Fixture f(static_cast<uint64_t>(seed));
    ExpectSameFrontiersAtAnyWorkerCount(f.graph, *f.tmpl, *f.domains,
                                        "seed " + std::to_string(seed));
  }
}

TEST(LatticeIndexPoolTest, DbpTemplateGivesSerialFrontiersAtAnyWorkerCount) {
  // A dbp template sized like the request stream's parallel workload: some
  // thousand output candidates, so the workers share the claims and race
  // on the memo.
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Result<Scenario> s = MakeScenario(OracleScenarioOptions("dbp", 1.0, seed, 8));
    if (!s.ok() || !LatticeIndex::Supports(*s->domains)) continue;
    const Graph& g = s->dataset.graph;
    ASSERT_GT(g.NodesWithLabel(s->tmpl->node_label(s->tmpl->output_node()))
                  .size(),
              1000u);
    EXPECT_GT(ExpectSameFrontiersAtAnyWorkerCount(
                  g, *s->tmpl, *s->domains, "dbp seed " + std::to_string(seed)),
              0u);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(LatticeIndexTest, RanksFollowTheOdometer) {
  Fixture f(11);
  LatticeIndex index =
      LatticeIndex::Build(f.graph, *f.tmpl, *f.domains).ValueOrDie();
  ASSERT_EQ(index.num_instances(), f.domains->InstanceSpaceSize(*f.tmpl));
  InstantiationEnumerator it(*f.tmpl, *f.domains);
  Instantiation inst;
  uint64_t rank = 0;
  while (it.Next(&inst)) {
    EXPECT_EQ(index.InstanceAt(rank), inst);
    EXPECT_EQ(OdometerRank(*f.tmpl, *f.domains, inst), rank);
    ++rank;
  }
  EXPECT_EQ(rank, index.num_instances());
}

}  // namespace
}  // namespace fairsqg
