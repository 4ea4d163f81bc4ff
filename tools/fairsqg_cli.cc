// fairsqg — command-line front end for the FairSQG library.
//
// Subcommands:
//   fairsqg dataset  --name dbp --scale 0.1 --seed 42 --out graph.g
//   fairsqg stats    graph.g
//   fairsqg template --graph graph.g --output-label movie --edges 3
//                    --range-vars 2 --edge-vars 1 --seed 1 --out search.qt
//   fairsqg generate --graph graph.g --template search.qt --group-attr genre
//                    --groups 2 --coverage 10 --algorithm biqgen --eps 0.05
//
// `generate` prints the suggested ε-Pareto query instances with their
// match counts, diversity, coverage, and per-group coverage.

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "core/bi_qgen.h"
#include "core/enum_qgen.h"
#include "core/kungs.h"
#include "core/parallel_qgen.h"
#include "core/pareto_archive.h"
#include "core/rf_qgen.h"
#include "graph/csv_loader.h"
#include "rpq/rpq_engine.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "query/template_io.h"
#include "workload/datasets.h"
#include "workload/template_generator.h"

namespace fairsqg {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdDataset(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("name", "dbp", "dataset: dbp | lki | cite");
  flags.DefineDouble("scale", 0.1, "node-population multiplier");
  flags.DefineInt64("seed", 42, "generator seed");
  flags.DefineString("out", "graph.g", "output graph file");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  Result<Dataset> d =
      MakeDataset(flags.GetString("name"), flags.GetDouble("scale"),
                  static_cast<uint64_t>(flags.GetInt64("seed")));
  if (!d.ok()) return Fail(d.status());
  if (Status s = WriteGraphFile(d->graph, flags.GetString("out")); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s: %zu nodes, %zu edges (output label '%s')\n",
              flags.GetString("out").c_str(), d->graph.num_nodes(),
              d->graph.num_edges(),
              d->schema->NodeLabelName(d->output_label).c_str());
  return 0;
}

Result<Graph> LoadGraphAuto(const std::string& path, const std::string& nodes_csv,
                            const std::string& edges_csv) {
  if (!nodes_csv.empty() || !edges_csv.empty()) {
    if (nodes_csv.empty() || edges_csv.empty()) {
      return Status::InvalidArgument("--nodes-csv and --edges-csv go together");
    }
    return LoadCsvGraphFiles(nodes_csv, edges_csv);
  }
  return ReadGraphFile(path);
}

int CmdStats(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("nodes-csv", "", "node CSV (alternative to graph file)");
  flags.DefineString("edges-csv", "", "edge CSV");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  std::string path =
      flags.positional().empty() ? "graph.g" : flags.positional()[0];
  Result<Graph> g = LoadGraphAuto(path, flags.GetString("nodes-csv"),
                                  flags.GetString("edges-csv"));
  if (!g.ok()) return Fail(g.status());
  GraphStats stats = ComputeGraphStats(*g);
  std::printf("%s\n", FormatStatsRow(path, stats).c_str());
  std::printf("labels:");
  for (size_t i = 0; i < stats.label_histogram.size() && i < 10; ++i) {
    std::printf(" %s=%zu", stats.label_histogram[i].first.c_str(),
                stats.label_histogram[i].second);
  }
  std::printf("\n");
  return 0;
}

int CmdTemplate(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("graph", "graph.g", "input graph file");
  flags.DefineString("output-label", "", "label of the output node u_o");
  flags.DefineInt64("edges", 3, "|Q(u_o)| in edges");
  flags.DefineInt64("range-vars", 2, "|X_L|");
  flags.DefineInt64("edge-vars", 1, "|X_E|");
  flags.DefineInt64("seed", 1, "sampler seed");
  flags.DefineString("out", "template.qt", "output template file");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  Result<Graph> g = ReadGraphFile(flags.GetString("graph"));
  if (!g.ok()) return Fail(g.status());
  TemplateSpec spec;
  spec.output_label = g->schema().NodeLabelId(flags.GetString("output-label"));
  if (spec.output_label == kInvalidLabel) {
    return Fail(Status::InvalidArgument("unknown --output-label '" +
                                        flags.GetString("output-label") + "'"));
  }
  spec.num_edges = static_cast<size_t>(flags.GetInt64("edges"));
  spec.num_range_vars = static_cast<size_t>(flags.GetInt64("range-vars"));
  spec.num_edge_vars = static_cast<size_t>(flags.GetInt64("edge-vars"));
  spec.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  Result<QueryTemplate> tmpl = GenerateTemplate(*g, spec);
  if (!tmpl.ok()) return Fail(tmpl.status());
  if (Status s = WriteTemplateFile(*tmpl, flags.GetString("out")); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s:\n%s", flags.GetString("out").c_str(),
              tmpl->ToString().c_str());
  return 0;
}

int CmdGenerate(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("graph", "graph.g", "input graph file");
  flags.DefineString("template", "template.qt", "input template file");
  flags.DefineString("group-attr", "", "categorical attribute defining groups");
  flags.DefineInt64("groups", 2, "number of groups |P|");
  flags.DefineInt64("coverage", 10, "coverage target c per group");
  flags.DefineString("algorithm", "biqgen",
                     "biqgen | rfqgen | enum | kungs | parallel");
  flags.DefineDouble("eps", 0.05, "epsilon tolerance");
  flags.DefineInt64("max-domain", 8, "domain coarsening cap per variable");
  flags.DefineDouble("lambda", 0.5, "diversity relevance/dissimilarity balance");
  flags.DefineBool("candidate-index", true,
                   "resolve candidates via attribute range indexes");
  flags.DefineInt64("deadline-ms", 0,
                    "wall-clock budget in milliseconds (0 = unlimited)");
  flags.DefineInt64("match-step-limit", 0,
                    "backtracking steps allowed per match (0 = unlimited)");
  flags.DefineString("on-deadline", "partial",
                     "deadline behaviour: partial (best-so-far archive) | "
                     "fail (non-zero exit)");
  flags.DefineString("metrics-json", "",
                     "write a fairsqg.run_report JSON (GenStats + trace "
                     "spans) to this path");
  flags.DefineString("trace-out", "",
                     "write a chrome://tracing span dump to this path");
  flags.DefineString("trace-detail", "off",
                     "span granularity: off | phase | full");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  obs::TraceDetail trace_detail = obs::TraceDetail::kOff;
  if (!obs::ParseTraceDetail(flags.GetString("trace-detail"), &trace_detail)) {
    return Fail(Status::InvalidArgument("unknown --trace-detail '" +
                                        flags.GetString("trace-detail") +
                                        "' (off | phase | full)"));
  }
  const std::string& metrics_json_path = flags.GetString("metrics-json");
  const std::string& trace_out_path = flags.GetString("trace-out");
  // --trace-out without an explicit detail level implies phase spans;
  // otherwise the dump would be empty.
  if (!trace_out_path.empty() && trace_detail == obs::TraceDetail::kOff) {
    trace_detail = obs::TraceDetail::kPhase;
  }
  if (trace_detail != obs::TraceDetail::kOff) {
    obs::Tracer::Global().Enable(trace_detail);
  }

  Result<Graph> g = ReadGraphFile(flags.GetString("graph"));
  if (!g.ok()) return Fail(g.status());
  Result<QueryTemplate> tmpl =
      ReadTemplateFile(flags.GetString("template"), g->schema_ptr());
  if (!tmpl.ok()) return Fail(tmpl.status());

  Result<VariableDomains> full = VariableDomains::Build(*g, *tmpl);
  if (!full.ok()) return Fail(full.status());
  VariableDomains domains =
      full->Coarsened(static_cast<size_t>(flags.GetInt64("max-domain")));

  LabelId output_label = tmpl->node_label(tmpl->output_node());
  AttrId group_attr = g->schema().AttrIdOf(flags.GetString("group-attr"));
  if (group_attr == kInvalidAttr) {
    return Fail(Status::InvalidArgument("unknown --group-attr '" +
                                        flags.GetString("group-attr") + "'"));
  }
  Result<GroupSet> groups = GroupSet::FromCategoricalAttr(
      *g, output_label, group_attr, static_cast<size_t>(flags.GetInt64("groups")),
      static_cast<size_t>(flags.GetInt64("coverage")));
  if (!groups.ok()) return Fail(groups.status());

  QGenConfig config;
  config.graph = &*g;
  config.tmpl = &*tmpl;
  config.domains = &domains;
  config.groups = &*groups;
  config.epsilon = flags.GetDouble("eps");
  config.diversity.lambda = flags.GetDouble("lambda");
  config.use_candidate_index = flags.GetBool("candidate-index");

  RunContext run_context;
  if (flags.GetInt64("deadline-ms") > 0 ||
      flags.GetInt64("match-step-limit") > 0) {
    if (flags.GetInt64("deadline-ms") > 0) {
      run_context.SetDeadlineAfterMillis(
          static_cast<double>(flags.GetInt64("deadline-ms")));
    }
    if (flags.GetInt64("match-step-limit") > 0) {
      run_context.set_match_step_limit(
          static_cast<uint64_t>(flags.GetInt64("match-step-limit")));
    }
    const std::string& on_deadline = flags.GetString("on-deadline");
    if (on_deadline == "partial") {
      run_context.set_on_expiry(ExpiryPolicy::kPartial);
    } else if (on_deadline == "fail") {
      run_context.set_on_expiry(ExpiryPolicy::kFail);
    } else {
      return Fail(Status::InvalidArgument("unknown --on-deadline '" +
                                          on_deadline + "' (partial | fail)"));
    }
    config.run_context = &run_context;
  }

  const std::string& algo = flags.GetString("algorithm");
  Result<QGenResult> result = Status::InvalidArgument("unreachable");
  if (algo == "biqgen") {
    result = BiQGen::Run(config);
  } else if (algo == "rfqgen") {
    result = RfQGen::Run(config);
  } else if (algo == "enum") {
    result = EnumQGen::Run(config);
  } else if (algo == "kungs") {
    result = Kungs::Run(config);
  } else if (algo == "parallel") {
    result = ParallelQGen::Run(config);
  } else {
    return Fail(Status::InvalidArgument("unknown --algorithm '" + algo + "'"));
  }
  if (!result.ok()) return Fail(result.status());

  if (!metrics_json_path.empty() || !trace_out_path.empty()) {
    std::vector<obs::SpanRecord> spans;
    uint64_t dropped = 0;
    if (trace_detail != obs::TraceDetail::kOff) {
      spans = obs::Tracer::Global().Snapshot();
      dropped = obs::Tracer::Global().dropped();
      obs::Tracer::Global().Disable();
    }
    if (!metrics_json_path.empty()) {
      obs::RunReport report;
      report.SetAlgorithm(algo);
      report.SetGenStats(result->stats);
      report.SetFingerprint(ArchiveFingerprint(result->pareto));
      if (trace_detail != obs::TraceDetail::kOff) {
        report.AttachTrace(spans, trace_detail, dropped);
      }
      if (Status s = report.WriteFile(metrics_json_path); !s.ok()) {
        return Fail(s);
      }
      std::fprintf(stderr, "wrote run report: %s\n",
                   metrics_json_path.c_str());
    }
    if (!trace_out_path.empty()) {
      if (Status s = obs::WriteChromeTrace(spans, trace_out_path); !s.ok()) {
        return Fail(s);
      }
      std::fprintf(stderr, "wrote trace: %s\n", trace_out_path.c_str());
    }
  }

  std::printf("%s: %zu suggested queries (%u verified, %.2fs)\n", algo.c_str(),
              result->pareto.size(), result->stats.verified,
              result->stats.total_seconds);
  if (result->stats.deadline_exceeded || result->stats.aborted_matches > 0 ||
      result->stats.timed_out_instances > 0) {
    std::fprintf(stderr,
                 "degraded run: deadline_exceeded=%s aborted_matches=%u "
                 "timed_out_instances=%u (archive is the verified-prefix "
                 "epsilon-Pareto set; every retained instance is fully "
                 "verified)\n",
                 result->stats.deadline_exceeded ? "true" : "false",
                 result->stats.aborted_matches,
                 result->stats.timed_out_instances);
  }
  for (const EvaluatedPtr& q : result->pareto) {
    std::printf("  %s -> %zu matches, delta=%.3f, f=%.1f (",
                q->inst.ToString(*tmpl, domains).c_str(), q->matches.size(),
                q->obj.diversity, q->obj.coverage);
    for (size_t i = 0; i < q->group_coverage.size(); ++i) {
      std::printf("%s%s=%zu", i > 0 ? ", " : "", groups->name(i).c_str(),
                  q->group_coverage[i]);
    }
    std::printf(")\n");
  }
  return 0;
}

// fairsqg rpq --graph graph.g --expr "cites/(cites)*" --source-label paper
//             [--limit 20]
int CmdRpq(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("graph", "graph.g", "input graph file");
  flags.DefineString("expr", "", "regular path expression over edge labels");
  flags.DefineString("source-label", "", "restrict sources to this node label");
  flags.DefineInt64("limit", 20, "max (source, target) pairs to print");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  Result<Graph> g = ReadGraphFile(flags.GetString("graph"));
  if (!g.ok()) return Fail(g.status());
  // Parsing may intern new edge labels; use the graph's schema.
  Result<PathRegex> regex =
      ParsePathRegex(flags.GetString("expr"),
                     const_cast<Schema*>(&g->schema()));
  if (!regex.ok()) return Fail(regex.status());
  LabelId source_label = kInvalidLabel;
  if (!flags.GetString("source-label").empty()) {
    source_label = g->schema().NodeLabelId(flags.GetString("source-label"));
    if (source_label == kInvalidLabel) {
      return Fail(Status::InvalidArgument("unknown --source-label"));
    }
  }
  RpqEngine engine(*g);
  auto pairs = engine.EvaluateAll(
      *regex, source_label, static_cast<size_t>(flags.GetInt64("limit")));
  std::printf("%s: %zu pairs (capped at %lld)\n", regex->text.c_str(),
              pairs.size(), static_cast<long long>(flags.GetInt64("limit")));
  for (const auto& [from, to] : pairs) {
    std::printf("  %u (%s) -> %u (%s)\n", from,
                g->schema().NodeLabelName(g->node_label(from)).c_str(), to,
                g->schema().NodeLabelName(g->node_label(to)).c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: fairsqg <dataset|stats|template|generate|rpq> [flags]\n");
    return 2;
  }
  std::string cmd = argv[1];
  // Shift argv so subcommand flags parse from argv[1].
  argc -= 1;
  argv += 1;
  if (cmd == "dataset") return CmdDataset(argc, argv);
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "template") return CmdTemplate(argc, argv);
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "rpq") return CmdRpq(argc, argv);
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace fairsqg

int main(int argc, char** argv) { return fairsqg::Main(argc, argv); }
