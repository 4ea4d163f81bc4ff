// Perf harness for the LatticeIndex pass on a cyclic template (DESIGN.md
// §14): the pass evaluates the template over a spanning tree, and the
// level walk certifies every candidate the left-out edge could reject.
// Each row times a generator end to end (GenStats::total_seconds), since
// the pass is not on GenStats' verify axes; biqgen_par4 runs the pass on a
// 4-worker pool. One untimed run precedes the rows. Emits the console
// table plus BENCH_cyclic_verify.json in the working directory; the CI
// perf-smoke job gates on that file.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/bi_qgen.h"
#include "core/kungs.h"
#include "core/lattice_verify.h"
#include "core/rf_qgen.h"
#include "obs/trace.h"

namespace fairsqg::bench {
namespace {

/// Values per range variable. The paper's spaces use 8-16 values per
/// variable; 12 keeps the enumerated space around a few hundred instances
/// at bench scale.
constexpr size_t kDomainValues = 12;
/// Pinned scenario: lki at scale 1 with a 5-edge template drawn from seed
/// 123, whose nodes u0, u1, u3 and u4 close a cycle. At this scale every
/// row's time is above the 0.05 s noise floor of
/// tools/check_bench_regression.py.
constexpr double kScale = 1.0;
constexpr int kNumEdges = 5;
constexpr int kTemplateSeed = 123;

struct Algo {
  const char* name;
  std::function<Result<QGenResult>(const QGenConfig&)> run;
};

std::vector<Algo> Algos() {
  return {
      // EnumQGen is left out: it verifies the same space as Kungs.
      {"kungs", [](const QGenConfig& c) { return Kungs::Run(c); }},
      {"rfqgen", [](const QGenConfig& c) { return RfQGen::Run(c); }},
      {"biqgen", [](const QGenConfig& c) { return BiQGen::Run(c); }},
      {"biqgen_par4",
       [](const QGenConfig& c) { return BiQGen::RunParallel(c, 4); }},
  };
}

struct Row {
  std::string algo;
  size_t verified = 0;
  double total_s = 0;      // Median total_seconds.
  double total_s_min = 0;  // Minimum total_seconds.
  GenStats stats;           // Full GenStats of the rep-0 run.
};

void WriteJson(const std::vector<Row>& rows, int repeat,
               const std::string& path) {
  obs::Json root = BenchReport("cyclic_verify", repeat);
  root.Set("dataset", obs::Json("lki"));
  root.Set("scale", obs::Json(kScale));
  root.Set("domain_values", obs::Json(static_cast<uint64_t>(kDomainValues)));
  obs::Json algos = obs::Json::Array();
  for (const Row& r : rows) {
    obs::Json row = obs::Json::Object();
    row.Set("name", obs::Json(r.algo));
    row.Set("verified", obs::Json(static_cast<uint64_t>(r.verified)));
    row.Set("total_s", obs::Json(r.total_s));
    row.Set("total_s_min", obs::Json(r.total_s_min));
    row.Set("stats", obs::RunReport::StatsJson(r.stats));
    algos.Push(std::move(row));
  }
  root.Set("algorithms", std::move(algos));
  WriteBenchJson(root, path);
}

void Run(int repeat) {
  ScenarioOptions options = DefaultOptions("lki");
  options.scale = kScale;
  options.max_domain_values = kDomainValues;
  options.num_edges = kNumEdges;
  options.template_seed = kTemplateSeed;
  Result<Scenario> s = MakeScenario(options);
  FAIRSQG_CHECK(s.ok()) << s.status().ToString();
  FAIRSQG_CHECK(s->tmpl->num_edges() >= s->tmpl->num_nodes())
      << "the pinned template must be cyclic";
  FAIRSQG_CHECK(LatticeApplies(s->MakeConfig()))
      << "the pinned template must take the lattice pass";

  PrintFigureHeader(
      "cyclic-verify", "the lattice pass on a cyclic template",
      "lki, " + std::to_string(kDomainValues) +
          " values per range variable; median of " + std::to_string(repeat) +
          " run(s); total_seconds from GenStats");

  // One untimed run first, so that the process's warm-up (page faults,
  // allocator growth) does not land on the first timed row.
  FAIRSQG_CHECK(Algos().front().run(s->MakeConfig(0.01)).ok());

  Table table({"algo", "verified", "total s", "total s min"});
  std::vector<Row> rows;
  for (const Algo& algo : Algos()) {
    Row row;
    row.algo = algo.name;
    std::vector<double> total_s;
    for (int rep = 0; rep < repeat; ++rep) {
      QGenResult result = algo.run(s->MakeConfig(0.01)).ValueOrDie();
      total_s.push_back(result.stats.total_seconds);
      if (rep == 0) {
        row.verified = result.stats.verified;
        row.stats = result.stats;
      }
    }
    row.total_s = Median(total_s);
    row.total_s_min = MinOf(total_s);
    table.AddRow({row.algo, std::to_string(row.verified),
                  Fmt(row.total_s, 4), Fmt(row.total_s_min, 4)});
    rows.push_back(std::move(row));
  }
  table.Print();
  WriteJson(rows, repeat, "BENCH_cyclic_verify.json");
}

}  // namespace
}  // namespace fairsqg::bench

int main(int argc, char** argv) {
  // --trace-detail full turns the whole bench into an overhead probe: same
  // timed sections, tracer hot (DESIGN.md §13 quotes the delta).
  fairsqg::obs::TraceDetail detail =
      fairsqg::bench::ParseTraceDetail(argc, argv);
  if (detail != fairsqg::obs::TraceDetail::kOff) {
    fairsqg::obs::Tracer::Global().Enable(detail);
  }
  fairsqg::bench::Run(fairsqg::bench::ParseRepeat(argc, argv));
  return 0;
}
