// Talent search (the paper's Example 1, Fig. 1): over the LKI-like
// professional network, suggest revisions of a recruiter's query so the
// answer covers male and female directors with an equal target while
// staying diversified in majors.
//
//   ./talent_search [--scale 0.2] [--seed 42] [--eps 0.05] [--coverage 6]

#include <cstdio>
#include <map>
#include <set>

#include "common/flags.h"
#include "core/bi_qgen.h"
#include "core/fairness_rules.h"
#include "core/verifier.h"
#include "workload/social_net_generator.h"

using namespace fairsqg;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.DefineDouble("scale", 0.2, "graph scale multiplier");
  flags.DefineInt64("seed", 42, "generator seed");
  flags.DefineDouble("eps", 0.05, "epsilon tolerance");
  flags.DefineInt64("coverage", 6, "coverage target per gender group");
  flags.DefineString("rule", "eo",
                     "fairness rule: eo (equal opportunity) | di (80% rule)");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // The professional network G of Example 1.
  SocialNetParams params;
  double scale = flags.GetDouble("scale");
  params.num_users = static_cast<size_t>(5000 * scale);
  params.num_directors = static_cast<size_t>(600 * scale);
  params.num_orgs = static_cast<size_t>(250 * scale);
  params.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  auto schema = std::make_shared<Schema>();
  Graph graph = GenerateSocialNetwork(params, schema).ValueOrDie();
  std::printf("professional network: %zu nodes, %zu edges\n", graph.num_nodes(),
              graph.num_edges());

  // The Fig. 1 template: directors u_o recommended by two users; the first
  // has yearsOfExp >= x1 and works at an org with employees >= x3; the
  // second recommender and their worksAt edge are optional (edge vars).
  QueryTemplate tmpl(schema);
  QNodeId uo = tmpl.AddNode("director");
  QNodeId u1 = tmpl.AddNode("user");
  QNodeId u2 = tmpl.AddNode("user");
  QNodeId u4 = tmpl.AddNode("org");
  tmpl.SetOutputNode(uo);
  tmpl.AddRangeLiteral(u1, "yearsOfExp", CompareOp::kGe);   // x1
  tmpl.AddRangeLiteral(u2, "yearsOfExp", CompareOp::kGe);   // x2
  tmpl.AddRangeLiteral(u4, "employees", CompareOp::kGe);    // x3
  tmpl.AddEdge(u1, uo, "recommend");
  tmpl.AddEdge(u1, u4, "worksAt");
  tmpl.AddVariableEdge(u2, uo, "recommend");                // xe1
  tmpl.AddVariableEdge(u2, u4, "worksAt");                  // xe2
  std::printf("\n%s", tmpl.ToString().c_str());

  VariableDomains domains =
      VariableDomains::Build(graph, tmpl).ValueOrDie().Coarsened(6);

  // Equal-opportunity gender groups over directors.
  size_t c = static_cast<size_t>(flags.GetInt64("coverage"));
  LabelId director = schema->NodeLabelId("director");
  AttrId gender = schema->AttrIdOf("gender");
  Result<GroupSet> groups_or =
      GroupSet::FromCategoricalAttr(graph, director, gender, 2, c);
  if (!groups_or.ok()) {
    std::fprintf(stderr, "groups: %s\n", groups_or.status().ToString().c_str());
    return 1;
  }
  GroupSet groups = std::move(groups_or).ValueOrDie();
  if (flags.GetString("rule") == "di") {
    // Disparate-impact constraints (the "80% rule" of Section III-B): the
    // minority group's target is at least 0.8x the majority's, within the
    // same total budget 2c.
    Result<GroupSet> di = DisparateImpactConstraints(graph.num_nodes(), groups,
                                                     2 * c, 0.8);
    if (!di.ok()) {
      std::fprintf(stderr, "80%% rule: %s\n", di.status().ToString().c_str());
      return 1;
    }
    groups = std::move(di).ValueOrDie();
    std::printf("80%% rule targets: %s>=%zu, %s>=%zu\n",
                groups.name(0).c_str(), groups.constraint(0),
                groups.name(1).c_str(), groups.constraint(1));
  } else if (flags.GetString("rule") != "eo") {
    std::fprintf(stderr, "unknown --rule (use eo or di)\n");
    return 1;
  }

  QGenConfig config;
  config.graph = &graph;
  config.tmpl = &tmpl;
  config.domains = &domains;
  config.groups = &groups;
  config.epsilon = flags.GetDouble("eps");

  // The recruiter's initial query: the most relaxed instance.
  InstanceVerifier verifier(config);
  EvaluatedPtr initial = verifier.Verify(Instantiation::MostRelaxed(tmpl));
  std::printf("\ninitial query: %zu candidates — %s=%zu, %s=%zu (target %zu each)\n",
              initial->matches.size(), groups.name(0).c_str(),
              initial->group_coverage[0], groups.name(1).c_str(),
              initial->group_coverage[1], c);
  if (!initial->feasible) {
    std::printf("initial query cannot cover the groups; lower --coverage\n");
    return 1;
  }

  QGenResult result = BiQGen::Run(config).ValueOrDie();
  std::printf("\nsuggested revisions (%zu queries, %u instances verified):\n",
              result.pareto.size(), result.stats.verified);
  for (const EvaluatedPtr& q : result.pareto) {
    // Major spread of the answer (the diversity the recruiter asked for).
    std::set<std::string> majors;
    AttrId major = schema->AttrIdOf("major");
    for (NodeId v : q->matches) {
      const AttrValue* m = graph.GetAttr(v, major);
      if (m != nullptr) majors.insert(m->as_string());
    }
    std::printf("  %s\n    %zu candidates across %zu majors; %s=%zu %s=%zu; "
                "delta=%.2f f=%.1f\n",
                q->inst.ToString(tmpl, domains).c_str(), q->matches.size(),
                majors.size(), groups.name(0).c_str(), q->group_coverage[0],
                groups.name(1).c_str(), q->group_coverage[1], q->obj.diversity,
                q->obj.coverage);
  }
  return 0;
}
