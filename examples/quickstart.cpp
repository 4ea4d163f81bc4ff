// Quickstart: build a small attributed graph, write a query template with
// range and edge variables, define fairness groups, and generate an
// ε-Pareto set of query instances with BiQGen.
//
//   ./quickstart

#include <cstdio>

#include "core/bi_qgen.h"
#include "core/groups.h"
#include "graph/graph_builder.h"
#include "query/domains.h"

using namespace fairsqg;

int main() {
  // 1. An attributed graph: users recommending candidates, orgs they work
  //    at. Candidates carry a 'gender' attribute that defines the groups.
  GraphBuilder builder;
  NodeId orgs[2];
  for (int i = 0; i < 2; ++i) {
    orgs[i] = builder.AddNode("org");
    builder.SetAttr(orgs[i], "employees", AttrValue(int64_t{500 * (i + 1)}));
  }
  NodeId candidates[8];
  for (int i = 0; i < 8; ++i) {
    candidates[i] = builder.AddNode("candidate");
    builder.SetAttr(candidates[i], "gender",
                    AttrValue(std::string(i % 2 == 0 ? "female" : "male")));
    builder.SetAttr(candidates[i], "skill",
                    AttrValue(std::string(i % 3 == 0 ? "ml" : "databases")));
  }
  for (int i = 0; i < 12; ++i) {
    NodeId user = builder.AddNode("user");
    builder.SetAttr(user, "yearsOfExp", AttrValue(int64_t{2 + (i * 3) % 14}));
    builder.AddEdge(user, candidates[i % 8], "recommend");
    builder.AddEdge(user, orgs[i % 2], "worksAt");
  }
  Graph graph = std::move(builder).Build().ValueOrDie();
  std::printf("graph: %zu nodes, %zu edges\n", graph.num_nodes(),
              graph.num_edges());

  // 2. A query template: find candidates recommended by a user with at
  //    least x0 years of experience; optionally the user must work at an
  //    org with at least x1 employees.
  QueryTemplate tmpl(graph.schema_ptr());
  QNodeId cand = tmpl.AddNode("candidate");
  QNodeId user = tmpl.AddNode("user");
  QNodeId org = tmpl.AddNode("org");
  tmpl.SetOutputNode(cand);
  tmpl.AddRangeLiteral(user, "yearsOfExp", CompareOp::kGe);   // x0
  tmpl.AddRangeLiteral(org, "employees", CompareOp::kGe);     // x1
  tmpl.AddEdge(user, cand, "recommend");
  tmpl.AddVariableEdge(user, org, "worksAt");                 // edge var e0
  std::printf("\n%s", tmpl.ToString().c_str());

  // 3. Variable domains from the graph's active domains.
  VariableDomains domains = VariableDomains::Build(graph, tmpl).ValueOrDie();

  // 4. Gender groups over candidates with an equal coverage target of 2.
  LabelId cand_label = graph.schema().NodeLabelId("candidate");
  AttrId gender = graph.schema().AttrIdOf("gender");
  GroupSet groups =
      GroupSet::FromCategoricalAttr(graph, cand_label, gender, 2, 2)
          .ValueOrDie();

  // 5. Generate an ε-Pareto set of query instances.
  QGenConfig config;
  config.graph = &graph;
  config.tmpl = &tmpl;
  config.domains = &domains;
  config.groups = &groups;
  config.epsilon = 0.1;
  QGenResult result = BiQGen::Run(config).ValueOrDie();

  std::printf("\ngenerated %zu suggested queries (verified %u instances):\n",
              result.pareto.size(), result.stats.verified);
  for (const EvaluatedPtr& q : result.pareto) {
    std::printf("  %s -> %zu matches, diversity=%.3f, coverage f=%.1f (",
                q->inst.ToString(tmpl, domains).c_str(), q->matches.size(),
                q->obj.diversity, q->obj.coverage);
    for (size_t i = 0; i < q->group_coverage.size(); ++i) {
      std::printf("%s%s=%zu", i > 0 ? ", " : "", groups.name(i).c_str(),
                  q->group_coverage[i]);
    }
    std::printf(")\n");
  }
  return 0;
}
