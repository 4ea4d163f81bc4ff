#ifndef FAIRSQG_TESTS_SCENARIO_FIXTURE_H_
#define FAIRSQG_TESTS_SCENARIO_FIXTURE_H_

#include <memory>
#include <string>

#include "core/config.h"
#include "core/groups.h"
#include "matching/subgraph_matcher.h"
#include "query/domains.h"
#include "workload/scenario.h"
#include "workload/social_net_generator.h"

namespace fairsqg {

/// A compact talent-search scenario over a tiny synthetic social network,
/// sized so that full enumeration stays under a second: the Fig.-1
/// template (director recommended by an experienced user working at a
/// sizable org, optionally recommended by a second user) with two range
/// variables, one edge variable, and gender groups over directors.
struct SmallScenario {
  std::shared_ptr<Schema> schema;
  Graph graph;
  std::unique_ptr<QueryTemplate> tmpl;
  std::unique_ptr<VariableDomains> domains;
  std::unique_ptr<GroupSet> groups;

  explicit SmallScenario(uint64_t seed = 42, size_t coverage_per_group = 2)
      : schema(std::make_shared<Schema>()), graph(MakeGraph(seed, schema)) {
    tmpl = std::make_unique<QueryTemplate>(schema);
    QNodeId dir = tmpl->AddNode("director");
    QNodeId u1 = tmpl->AddNode("user");
    QNodeId u2 = tmpl->AddNode("user");
    QNodeId org = tmpl->AddNode("org");
    tmpl->SetOutputNode(dir);
    tmpl->AddRangeLiteral(u1, "yearsOfExp", CompareOp::kGe);   // x0
    tmpl->AddRangeLiteral(org, "employees", CompareOp::kGe);   // x1
    tmpl->AddEdge(u1, dir, "recommend");
    tmpl->AddEdge(u1, org, "worksAt");
    tmpl->AddVariableEdge(u2, dir, "recommend");               // e0
    VariableDomains full = VariableDomains::Build(graph, *tmpl).ValueOrDie();
    domains = std::make_unique<VariableDomains>(full.Coarsened(5));

    LabelId director = schema->NodeLabelId("director");
    AttrId gender = schema->AttrIdOf("gender");
    groups = std::make_unique<GroupSet>(
        GroupSet::FromCategoricalAttr(graph, director, gender, 2,
                                      coverage_per_group)
            .ValueOrDie());
  }

  static Graph MakeGraph(uint64_t seed, std::shared_ptr<Schema> schema) {
    SocialNetParams params;
    params.num_users = 220;
    params.num_directors = 40;
    params.num_orgs = 15;
    params.seed = seed;
    return GenerateSocialNetwork(params, std::move(schema)).ValueOrDie();
  }

  /// Group constraints no instance meets: one group holding a single user
  /// node with coverage target 1, while every match set holds directors.
  GroupSet UnmeetableGroups() const {
    NodeSet user = {graph.NodesWithLabel(schema->NodeLabelId("user")).front()};
    return GroupSet::Create(graph.num_nodes(), {user}, {1}).ValueOrDie();
  }

  /// Adds the template edge u2 -worksAt-> org, which closes the cycle
  /// director - u1 - org - u2. The lattice pass then runs over a spanning
  /// tree and certifies every frontier candidate (DESIGN.md §14).
  void CloseCycle() { tmpl->AddEdge(2, 3, "worksAt"); }

  QGenConfig Config(double epsilon = 0.05) const {
    QGenConfig config;
    config.graph = &graph;
    config.tmpl = tmpl.get();
    config.domains = domains.get();
    config.groups = groups.get();
    config.epsilon = epsilon;
    return config;
  }
};

/// The archive oracle's seeded scenarios, sized like the request-stream
/// benchmark's: three edges, two range variables (domains coarsened to
/// `max_domain` values), one edge variable and two groups at 55%
/// calibrated coverage.
inline ScenarioOptions OracleScenarioOptions(const std::string& dataset,
                                             double scale, uint64_t seed,
                                             size_t max_domain) {
  ScenarioOptions options;
  options.dataset = dataset;
  options.scale = scale;
  options.seed = seed;
  options.template_seed = seed * 97 + 1;
  options.num_edges = 3;
  options.num_range_vars = 2;
  options.num_edge_vars = 1;
  options.num_groups = 2;
  options.coverage_fraction = 0.55;
  options.max_domain_values = max_domain;
  return options;
}

}  // namespace fairsqg

#endif  // FAIRSQG_TESTS_SCENARIO_FIXTURE_H_
