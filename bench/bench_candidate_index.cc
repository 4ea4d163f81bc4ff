// Perf harness for the attribute-range-index candidate pipeline (DESIGN.md
// §10): per pinned scenario,
//  (a) candidate-space construction over an enumerated instance sample,
//      reference label scan vs index slicing / bitmap filtering;
//  (b) end-to-end Bi-QGen, scan candidates vs index candidates.
// Bi-QGen takes the lattice pass (DESIGN.md §14), whose certification
// builds each instance's candidates. Emits the console table plus
// machine-readable BENCH_candidate_index.json in the working directory.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/bi_qgen.h"
#include "matching/candidate_space.h"

namespace fairsqg::bench {
namespace {

/// Instances sampled from the front of the enumeration order (which starts
/// at the most relaxed instance and sweeps the space systematically).
constexpr size_t kMaxInstances = 300;
/// Repetitions of the construction sweep per timing.
constexpr int kReps = 5;
/// Values per range variable: 10 gives 242 instances per space, a sample
/// large enough to put the construction timings above the noise floor.
constexpr size_t kDomainValues = 10;

/// One pinned scenario: a dataset at a scale with a template seed that
/// draws a cyclic template, whose lattice walk certifies every frontier
/// candidate. The scales put every compared timing above the 0.05 s noise
/// floor of tools/check_bench_regression.py.
struct Pinned {
  const char* dataset;
  double scale;
  size_t num_edges;
  uint64_t template_seed;
};
constexpr Pinned kPinned[] = {
    {"dbp", 5.0, 4, 193},
    {"cite", 3.0, 4, 372},
};

struct BuildTiming {
  size_t instances = 0;
  double scan_ms = 0;
  double index_ms = 0;
  double speedup = 0;
};

struct EndToEnd {
  double baseline_s = 0;   // Scan candidates.
  double optimized_s = 0;  // Index candidates.
  double speedup = 0;      // baseline / optimized.
  GenStats opt_stats;      // Full GenStats of the optimized run.
};

std::vector<QueryInstance> SampleInstances(const Scenario& s) {
  std::vector<QueryInstance> out;
  InstantiationEnumerator it(*s.tmpl, *s.domains);
  Instantiation inst;
  while (out.size() < kMaxInstances && it.Next(&inst)) {
    out.push_back(QueryInstance::Materialize(*s.tmpl, *s.domains, inst));
  }
  return out;
}

double TimeBuilds(const Graph& g, const std::vector<QueryInstance>& instances,
                  bool use_index) {
  Timer timer;
  size_t total = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const QueryInstance& q : instances) {
      CandidateSpace space =
          CandidateSpace::Build(g, q, /*degree_filter=*/true, use_index);
      total += space.of(q.output_node()).size();
    }
  }
  // Consume `total` so the builds cannot be elided.
  if (total == static_cast<size_t>(-1)) std::printf("impossible\n");
  return timer.ElapsedMillis() / kReps;
}

BuildTiming BenchCandidateBuild(const Scenario& s) {
  std::vector<QueryInstance> instances = SampleInstances(s);
  BuildTiming t;
  t.instances = instances.size();
  // Warm-up pass, then measure scan and index sweeps over the same sample.
  TimeBuilds(s.dataset.graph, instances, /*use_index=*/true);
  t.scan_ms = TimeBuilds(s.dataset.graph, instances, /*use_index=*/false);
  t.index_ms = TimeBuilds(s.dataset.graph, instances, /*use_index=*/true);
  t.speedup = t.index_ms > 0 ? t.scan_ms / t.index_ms : 0;
  return t;
}

EndToEnd BenchBiQGen(const Scenario& s) {
  EndToEnd e;
  QGenConfig config = s.MakeConfig(0.01);
  config.use_candidate_index = false;
  Timer baseline;
  QGenResult base = BiQGen::Run(config).ValueOrDie();
  e.baseline_s = baseline.ElapsedSeconds();

  config.use_candidate_index = true;
  Timer optimized;
  QGenResult opt = BiQGen::Run(config).ValueOrDie();
  e.optimized_s = optimized.ElapsedSeconds();
  e.speedup = e.optimized_s > 0 ? e.baseline_s / e.optimized_s : 0;
  e.opt_stats = opt.stats;
  FAIRSQG_CHECK(base.pareto.size() == opt.pareto.size())
      << "optimized path changed the Pareto front";
  return e;
}

struct Row {
  Pinned pinned{};
  size_t nodes = 0;
  size_t edges = 0;
  BuildTiming build;   // Median across --repeat runs.
  EndToEnd e2e;        // Median across --repeat runs.
  double scan_ms_min = 0, index_ms_min = 0;
  double baseline_s_min = 0, optimized_s_min = 0;
};

void WriteJson(const std::vector<Row>& rows, int repeat,
               const std::string& path) {
  obs::Json root = BenchReport("candidate_index", repeat);
  root.Set("reps", obs::Json(static_cast<int64_t>(kReps)));
  obs::Json datasets = obs::Json::Array();
  for (const Row& r : rows) {
    obs::Json row = obs::Json::Object();
    row.Set("name", obs::Json(r.pinned.dataset));
    row.Set("scale", obs::Json(r.pinned.scale));
    row.Set("num_edges", obs::Json(static_cast<uint64_t>(r.pinned.num_edges)));
    row.Set("template_seed", obs::Json(r.pinned.template_seed));
    row.Set("nodes", obs::Json(static_cast<uint64_t>(r.nodes)));
    row.Set("edges", obs::Json(static_cast<uint64_t>(r.edges)));
    obs::Json build = obs::Json::Object();
    build.Set("instances", obs::Json(static_cast<uint64_t>(r.build.instances)));
    build.Set("scan_ms", obs::Json(r.build.scan_ms));
    build.Set("index_ms", obs::Json(r.build.index_ms));
    build.Set("scan_ms_min", obs::Json(r.scan_ms_min));
    build.Set("index_ms_min", obs::Json(r.index_ms_min));
    build.Set("speedup", obs::Json(r.build.speedup));
    row.Set("candidate_build", std::move(build));
    obs::Json biqgen = obs::Json::Object();
    biqgen.Set("baseline_s", obs::Json(r.e2e.baseline_s));
    biqgen.Set("optimized_s", obs::Json(r.e2e.optimized_s));
    biqgen.Set("baseline_s_min", obs::Json(r.baseline_s_min));
    biqgen.Set("optimized_s_min", obs::Json(r.optimized_s_min));
    biqgen.Set("speedup", obs::Json(r.e2e.speedup));
    biqgen.Set("stats", obs::RunReport::StatsJson(r.e2e.opt_stats));
    row.Set("biqgen", std::move(biqgen));
    datasets.Push(std::move(row));
  }
  root.Set("datasets", std::move(datasets));
  WriteBenchJson(root, path);
}

void Run(int repeat) {
  PrintFigureHeader(
      "candidate-index", "attribute range indexes + bitmap candidate filtering",
      "cyclic templates; candidate construction per instance sample; "
      "Bi-QGen end to end; median of " + std::to_string(repeat) + " run(s)");
  Table table({"dataset", "nodes", "insts", "scan ms", "index ms", "build x",
               "biqgen base s", "biqgen opt s", "biqgen x"});
  std::vector<Row> rows;
  for (const Pinned& pinned : kPinned) {
    ScenarioOptions options = DefaultOptions(pinned.dataset);
    options.scale = pinned.scale;
    options.num_edges = pinned.num_edges;
    options.template_seed = pinned.template_seed;
    options.max_domain_values = kDomainValues;
    Result<Scenario> s = MakeScenario(options);
    FAIRSQG_CHECK(s.ok()) << s.status().ToString();
    Row row;
    row.pinned = pinned;
    row.nodes = s->dataset.graph.num_nodes();
    row.edges = s->dataset.graph.num_edges();
    std::vector<double> scan_ms, index_ms, base_s, opt_s;
    for (int rep = 0; rep < repeat; ++rep) {
      BuildTiming b = BenchCandidateBuild(*s);
      EndToEnd e = BenchBiQGen(*s);
      if (rep == 0) {
        row.build = b;
        row.e2e = e;
      }
      scan_ms.push_back(b.scan_ms);
      index_ms.push_back(b.index_ms);
      base_s.push_back(e.baseline_s);
      opt_s.push_back(e.optimized_s);
    }
    row.build.scan_ms = Median(scan_ms);
    row.build.index_ms = Median(index_ms);
    row.build.speedup =
        row.build.index_ms > 0 ? row.build.scan_ms / row.build.index_ms : 0;
    row.scan_ms_min = MinOf(scan_ms);
    row.index_ms_min = MinOf(index_ms);
    row.e2e.baseline_s = Median(base_s);
    row.e2e.optimized_s = Median(opt_s);
    row.e2e.speedup =
        row.e2e.optimized_s > 0 ? row.e2e.baseline_s / row.e2e.optimized_s : 0;
    row.baseline_s_min = MinOf(base_s);
    row.optimized_s_min = MinOf(opt_s);
    table.AddRow({pinned.dataset, std::to_string(row.nodes),
                  std::to_string(row.build.instances), Fmt(row.build.scan_ms, 2),
                  Fmt(row.build.index_ms, 2), Fmt(row.build.speedup, 2),
                  Fmt(row.e2e.baseline_s, 3), Fmt(row.e2e.optimized_s, 3),
                  Fmt(row.e2e.speedup, 2)});
    rows.push_back(std::move(row));
  }
  table.Print();
  WriteJson(rows, repeat, "BENCH_candidate_index.json");
}

}  // namespace
}  // namespace fairsqg::bench

int main(int argc, char** argv) {
  fairsqg::bench::Run(fairsqg::bench::ParseRepeat(argc, argv));
  return 0;
}
