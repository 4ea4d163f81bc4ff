#include "workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/groups.h"
#include "graph/graph_io.h"
#include "matching/subgraph_matcher.h"
#include "obs/json.h"
#include "query/domains.h"
#include "query/instance.h"
#include "query/template_io.h"
#include "workload/datasets.h"
#include "workload/template_generator.h"

namespace fairsqg::reqbench {

namespace {

/// Template redraws per request before giving up (MakeScenario's default).
constexpr size_t kMaxTemplateAttempts = 40;

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Applies the fields present in `obj` over `spec`; unknown keys other than
/// the descriptive ones are rejected so a typo cannot silently fall back to
/// a default.
Status ApplyFields(const obs::Json& obj, WorkloadSpec* spec) {
  for (const auto& [key, value] : obj.items()) {
    auto number = [&](auto* field) -> Status {
      if (!value.is_number() || value.as_double() < 0) {
        return Status::InvalidArgument("workload field '" + key +
                                       "' must be a non-negative number");
      }
      using T = std::remove_pointer_t<decltype(field)>;
      *field = static_cast<T>(value.as_double());
      return Status::OK();
    };
    auto text = [&](std::string* field) -> Status {
      if (!value.is_string()) {
        return Status::InvalidArgument("workload field '" + key +
                                       "' must be a string");
      }
      *field = value.as_string();
      return Status::OK();
    };
    Status s;
    if (key == "name") s = text(&spec->name);
    else if (key == "dataset") s = text(&spec->dataset);
    else if (key == "algorithm") s = text(&spec->algorithm);
    else if (key == "scale") s = number(&spec->scale);
    else if (key == "threads") s = number(&spec->threads);
    else if (key == "lambda") s = number(&spec->lambda);
    else if (key == "epsilon") s = number(&spec->epsilon);
    else if (key == "graphs") s = number(&spec->graphs);
    else if (key == "edges") s = number(&spec->edges);
    else if (key == "range_vars") s = number(&spec->range_vars);
    else if (key == "edge_vars") s = number(&spec->edge_vars);
    else if (key == "groups") s = number(&spec->groups);
    else if (key == "coverage_fraction") s = number(&spec->coverage_fraction);
    else if (key == "max_domain") s = number(&spec->max_domain);
    else if (key != "why") {
      s = Status::InvalidArgument("unknown workload field '" + key + "'");
    }
    if (!s.ok()) return s;
  }
  return Status::OK();
}

size_t MinGroupCoverage(const GroupSet& groups, const NodeSet& matches) {
  std::vector<size_t> counts = groups.CoverageCounts(matches);
  size_t m = counts.empty() ? 0 : counts[0];
  for (size_t c : counts) m = std::min(m, c);
  return m;
}

/// A template and the per-group coverage target it was calibrated to.
struct Draw {
  QueryTemplate tmpl;
  size_t coverage_per_group = 0;
  size_t root_matches = 0;  ///< |q(G)| of the most relaxed instance.
};

/// MakeScenario's redraw-and-calibrate loop on an already built dataset:
/// redraws until the most relaxed instance meets the calibrated target
/// c = m + coverage_fraction * (M - m) in every group.
Result<Draw> DrawTemplate(const Dataset& d, const GroupSet& groups,
                          const WorkloadSpec& spec, uint64_t template_seed) {
  SubgraphMatcher matcher(d.graph);
  for (size_t attempt = 0; attempt < kMaxTemplateAttempts; ++attempt) {
    TemplateSpec ts;
    ts.output_label = d.output_label;
    ts.num_edges = spec.edges;
    ts.num_range_vars = spec.range_vars;
    ts.num_edge_vars = spec.edge_vars;
    ts.seed = template_seed + attempt * 7919;
    Result<QueryTemplate> tmpl = GenerateTemplate(d.graph, ts);
    if (!tmpl.ok()) continue;
    FAIRSQG_ASSIGN_OR_RETURN(VariableDomains full,
                             VariableDomains::Build(d.graph, *tmpl));
    VariableDomains domains = full.Coarsened(spec.max_domain);
    NodeSet top = matcher.MatchOutput(QueryInstance::Materialize(
        *tmpl, domains, Instantiation::MostRelaxed(*tmpl)));
    NodeSet bottom = matcher.MatchOutput(QueryInstance::Materialize(
        *tmpl, domains, Instantiation::MostRefined(*tmpl, domains)));
    size_t m = MinGroupCoverage(groups, bottom);
    size_t big = MinGroupCoverage(groups, top);
    if (big < 2) continue;
    double target = static_cast<double>(m) +
                    spec.coverage_fraction *
                        static_cast<double>(big - std::min(m, big));
    size_t c = std::max<size_t>(1, static_cast<size_t>(std::llround(target)));
    bool fits = true;
    for (size_t i = 0; i < groups.num_groups(); ++i) {
      fits = fits && c <= groups.group(i).size();
    }
    // The root's least-covered group has `big` members, so c <= big keeps
    // the most relaxed instance feasible.
    if (!fits || c > big) continue;
    return Draw{std::move(tmpl).ValueOrDie(), c, top.size()};
  }
  return Status::FailedPrecondition("no feasible template for seed " +
                                    std::to_string(template_seed));
}

}  // namespace

Result<WorkloadSpec> LoadWorkloadSpec(const std::string& path,
                                      const std::string& name) {
  FAIRSQG_ASSIGN_OR_RETURN(std::string text, ReadWholeFile(path));
  obs::Json root;
  std::string error;
  if (!obs::Json::Parse(text, &root, &error)) {
    return Status::InvalidArgument(path + ": " + error);
  }
  const obs::Json* defaults = root.Find("defaults");
  const obs::Json* workloads = root.Find("workloads");
  if (workloads == nullptr || !workloads->is_array()) {
    return Status::InvalidArgument(path + ": missing 'workloads' array");
  }
  for (const obs::Json& w : workloads->elements()) {
    const obs::Json* n = w.Find("name");
    if (n == nullptr || !n->is_string() || n->as_string() != name) continue;
    WorkloadSpec spec;
    if (defaults != nullptr) FAIRSQG_RETURN_NOT_OK(ApplyFields(*defaults, &spec));
    FAIRSQG_RETURN_NOT_OK(ApplyFields(w, &spec));
    if (spec.graphs == 0 || spec.graphs > kPoolSize || spec.threads == 0 ||
        spec.epsilon <= 0) {
      return Status::InvalidArgument("workload '" + name +
                                     "' has a zero count or epsilon");
    }
    return spec;
  }
  return Status::NotFound("no workload '" + name + "' in " + path);
}

std::string GraphFileName(size_t i) {
  return "graph" + std::to_string(i) + ".g";
}

Status GenerateWorkload(const WorkloadSpec& spec, uint64_t seed,
                        const std::string& dir) {
  std::vector<Dataset> datasets;
  std::vector<GroupSet> groups;
  for (size_t i = 0; i < spec.graphs; ++i) {
    FAIRSQG_ASSIGN_OR_RETURN(
        Dataset d, MakeDataset(spec.dataset, spec.scale, seed * 1000 + i));
    FAIRSQG_RETURN_NOT_OK(WriteGraphFile(d.graph, dir + "/" + GraphFileName(i)));
    FAIRSQG_ASSIGN_OR_RETURN(
        GroupSet g, GroupSet::FromCategoricalAttr(d.graph, d.output_label,
                                                  d.group_attr, spec.groups, 0));
    groups.push_back(std::move(g));
    datasets.push_back(std::move(d));
  }

  std::ofstream index(dir + "/requests.tsv");
  if (!index) return Status::IoError("cannot write " + dir + "/requests.tsv");
  // Spacing 97 keeps one request's redraw seeds (+7919 per attempt) off
  // every other request's first draw.
  const uint64_t base = seed * 1000003ULL + 1;
  for (size_t i = 0; i < kPoolSize; ++i) {
    const size_t graph = i % spec.graphs;
    const Dataset& d = datasets[graph];
    const uint64_t template_seed = base + i * 97;
    FAIRSQG_ASSIGN_OR_RETURN(
        Draw draw, DrawTemplate(d, groups[graph], spec, template_seed));
    const std::string file = "t" + std::to_string(i) + ".qt";
    FAIRSQG_RETURN_NOT_OK(WriteTemplateFile(draw.tmpl, dir + "/" + file));
    index << i << '\t' << graph << '\t' << template_seed << '\t' << file
          << '\t' << d.schema->AttrName(d.group_attr) << '\t' << spec.groups
          << '\t' << draw.coverage_per_group << '\t' << draw.root_matches
          << '\n';
  }
  index.close();
  if (!index) return Status::IoError("cannot write " + dir + "/requests.tsv");
  return Status::OK();
}

Result<std::vector<RequestSpec>> ReadRequests(const std::string& dir) {
  std::ifstream in(dir + "/requests.tsv");
  if (!in) return Status::IoError("cannot open " + dir + "/requests.tsv");
  std::vector<RequestSpec> out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    RequestSpec r;
    if (!(fields >> r.index >> r.graph >> r.template_seed >> r.template_file >>
          r.group_attr >> r.num_groups >> r.coverage_per_group)) {
      return Status::InvalidArgument("bad requests.tsv line: " + line);
    }
    out.push_back(std::move(r));
  }
  if (out.empty()) return Status::InvalidArgument("requests.tsv is empty");
  return out;
}

}  // namespace fairsqg::reqbench
