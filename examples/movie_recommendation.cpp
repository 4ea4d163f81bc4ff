// Movie recommendation with genre fairness (the paper's Fig. 12 case
// study): over the DBP-like movie knowledge graph, compare the user
// preferences served by RfQGen (diversity-leaning) and BiQGen
// (coverage-leaning), and print the recommended queries.
//
//   ./movie_recommendation [--scale 0.2] [--groups 2] [--eps 0.05]

#include <cstdio>

#include "common/flags.h"
#include "core/bi_qgen.h"
#include "core/indicators.h"
#include "core/kungs.h"
#include "core/rf_qgen.h"
#include "workload/scenario.h"

using namespace fairsqg;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.DefineDouble("scale", 0.2, "graph scale multiplier");
  flags.DefineInt64("groups", 2, "number of genre groups");
  flags.DefineDouble("eps", 0.05, "epsilon tolerance");
  flags.DefineInt64("seed", 42, "dataset seed");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  ScenarioOptions options;
  options.dataset = "dbp";
  options.scale = flags.GetDouble("scale");
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.num_edges = 4;
  options.num_range_vars = 2;
  options.num_edge_vars = 1;
  options.num_groups = static_cast<size_t>(flags.GetInt64("groups"));
  options.coverage_fraction = 0.5;
  Result<Scenario> scenario_or = MakeScenario(options);
  if (!scenario_or.ok()) {
    std::fprintf(stderr, "%s\n", scenario_or.status().ToString().c_str());
    return 1;
  }
  Scenario scenario = std::move(scenario_or).ValueOrDie();

  std::printf("movie graph: %zu nodes, %zu edges\n",
              scenario.dataset.graph.num_nodes(),
              scenario.dataset.graph.num_edges());
  std::printf("\nsearch template:\n%s", scenario.tmpl->ToString().c_str());
  std::printf("genre groups:");
  for (size_t i = 0; i < scenario.groups->num_groups(); ++i) {
    std::printf(" %s(c=%zu)", scenario.groups->name(i).c_str(),
                scenario.groups->constraint(i));
  }
  std::printf("\n");

  QGenConfig config = scenario.MakeConfig(flags.GetDouble("eps"));
  QGenResult exact = Kungs::Run(config).ValueOrDie();
  QGenResult rf = RfQGen::Run(config).ValueOrDie();
  QGenResult bi = BiQGen::Run(config).ValueOrDie();
  Objectives maxima = MaxObjectives(exact.pareto);

  auto describe = [&](const char* name, const QGenResult& r) {
    std::printf("\n%s — %zu suggestions, %u verifications, %.2fs\n", name,
                r.pareto.size(), r.stats.verified, r.stats.total_seconds);
    std::printf("  I_R diversity-leaning (l=0.1): %.3f | coverage-leaning "
                "(l=0.9): %.3f\n",
                RIndicator(r.pareto, 0.1, maxima.diversity, maxima.coverage),
                RIndicator(r.pareto, 0.9, maxima.diversity, maxima.coverage));
    size_t shown = 0;
    for (const EvaluatedPtr& q : r.pareto) {
      if (++shown > 4) break;
      std::printf("  %s: %zu movies, delta=%.2f, f=%.1f (",
                  q->inst.ToString(*scenario.tmpl, *scenario.domains).c_str(),
                  q->matches.size(), q->obj.diversity, q->obj.coverage);
      for (size_t i = 0; i < q->group_coverage.size(); ++i) {
        std::printf("%s%s=%zu", i > 0 ? " " : "",
                    scenario.groups->name(i).c_str(), q->group_coverage[i]);
      }
      std::printf(")\n");
    }
  };
  std::printf("\nexact Pareto set: %zu instances (Kungs over %u verified)\n",
              exact.pareto.size(), exact.stats.verified);
  describe("RfQGen", rf);
  describe("BiQGen", bi);
  return 0;
}
