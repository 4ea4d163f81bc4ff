// Perf harness for literal-sweep batch verification (DESIGN.md §12):
// chain-heavy scenario (each range variable carries a long value chain),
// each generator run with --sweep-verify off vs on. Sweeping amortizes one
// matcher pass over the whole chain, so the interesting number is the
// verifier-time speedup at equal verified counts — the archives themselves
// are CHECKed byte-identical. Emits the console table plus
// BENCH_sweep_verify.json in the working directory.
//
// Both arms run the scan candidate pipeline (use_candidate_index = false)
// so per-member candidate construction is part of the measured verification
// cost the sweep amortizes; the index pipeline has its own harness in
// bench_candidate_index.

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

/// Values per range variable: the sweep's amortization factor. The paper's
/// spaces use 8-16 values per variable; 12 keeps the enumerated space
/// around a few hundred instances at bench scale.
constexpr size_t kDomainValues = 12;
/// Pinned scenario: the lki dataset has a small output label, so the
/// per-member distance evaluation (which sweeping cannot skip — δ must be
/// recomputed per member for byte-identical archives) stays cheap relative
/// to the candidate-build and matcher costs the sweep does amortize. The
/// graph scale and template seed select a cyclic template (u0, u1, u3 and
/// u4 close a cycle), so every generator verifies per instance and sweeps,
/// whose range literals restrict non-output nodes, i.e. whole chains are
/// sweepable. At scale 1 every row's verify time is above the 0.05 s
/// noise floor of tools/check_bench_regression.py.
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

void CheckSameArchive(const QGenResult& a, const QGenResult& b,
                      const char* algo) {
  FAIRSQG_CHECK(a.pareto.size() == b.pareto.size())
      << algo << ": sweep changed the archive size";
  for (size_t i = 0; i < a.pareto.size(); ++i) {
    FAIRSQG_CHECK(a.pareto[i]->inst == b.pareto[i]->inst)
        << algo << ": sweep changed archive member " << i;
    FAIRSQG_CHECK(a.pareto[i]->matches == b.pareto[i]->matches)
        << algo << ": sweep changed match set of member " << i;
  }
}

struct Row {
  std::string algo;
  size_t verified = 0;
  double base_verify_s = 0;    // Median verify_cpu_seconds, sweep off.
  double sweep_verify_s = 0;   // Median verify_cpu_seconds, sweep on.
  double base_verify_s_min = 0;
  double sweep_verify_s_min = 0;
  double speedup = 0;          // base_verify_s / sweep_verify_s.
  size_t sweep_chains = 0;
  size_t sweep_instances = 0;
  size_t sweep_fallbacks = 0;
  GenStats swept_stats;        // Full GenStats of the rep-0 swept run.
};

void WriteJson(const std::vector<Row>& rows, int repeat,
               const std::string& path) {
  obs::Json root = BenchReport("sweep_verify", repeat);
  root.Set("dataset", obs::Json("lki"));
  root.Set("scale", obs::Json(kScale));
  root.Set("domain_values", obs::Json(static_cast<uint64_t>(kDomainValues)));
  obs::Json algos = obs::Json::Array();
  for (const Row& r : rows) {
    obs::Json row = obs::Json::Object();
    row.Set("name", obs::Json(r.algo));
    row.Set("verified", obs::Json(static_cast<uint64_t>(r.verified)));
    row.Set("baseline_verify_s", obs::Json(r.base_verify_s));
    row.Set("sweep_verify_s", obs::Json(r.sweep_verify_s));
    row.Set("baseline_verify_s_min", obs::Json(r.base_verify_s_min));
    row.Set("sweep_verify_s_min", obs::Json(r.sweep_verify_s_min));
    row.Set("speedup", obs::Json(r.speedup));
    row.Set("sweep_chains", obs::Json(static_cast<uint64_t>(r.sweep_chains)));
    row.Set("sweep_instances",
            obs::Json(static_cast<uint64_t>(r.sweep_instances)));
    row.Set("sweep_fallbacks",
            obs::Json(static_cast<uint64_t>(r.sweep_fallbacks)));
    row.Set("stats", obs::RunReport::StatsJson(r.swept_stats));
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
  // A tree template would take the LatticeIndex path and sweep nothing.
  FAIRSQG_CHECK(!LatticeApplies(s->MakeConfig()))
      << "the pinned template must be cyclic";

  PrintFigureHeader(
      "sweep-verify", "literal-sweep batch verification",
      "lki, " + std::to_string(kDomainValues) +
          " values per range variable; median of " + std::to_string(repeat) +
          " run(s); verify_cpu_seconds from GenStats");

  Table table({"algo", "verified", "base verify s", "sweep verify s",
               "speedup", "chains", "swept insts", "fallbacks"});
  std::vector<Row> rows;
  for (const Algo& algo : Algos()) {
    Row row;
    row.algo = algo.name;
    std::vector<double> base_s, sweep_s;
    for (int rep = 0; rep < repeat; ++rep) {
      QGenConfig off = s->MakeConfig(0.01);
      off.use_candidate_index = false;
      QGenResult base = algo.run(off).ValueOrDie();

      QGenConfig on = s->MakeConfig(0.01);
      on.use_candidate_index = false;
      on.use_sweep_verify = true;
      QGenResult swept = algo.run(on).ValueOrDie();

      CheckSameArchive(base, swept, algo.name);
      FAIRSQG_CHECK(base.stats.verified == swept.stats.verified)
          << algo.name << ": sweep changed the verified count";
      base_s.push_back(base.stats.verify_cpu_seconds);
      sweep_s.push_back(swept.stats.verify_cpu_seconds);
      if (rep == 0) {
        row.verified = swept.stats.verified;
        row.sweep_chains = swept.stats.sweep_chains;
        row.sweep_instances = swept.stats.sweep_instances;
        row.sweep_fallbacks = swept.stats.sweep_fallbacks;
        row.swept_stats = swept.stats;
      }
    }
    row.base_verify_s = Median(base_s);
    row.sweep_verify_s = Median(sweep_s);
    row.base_verify_s_min = MinOf(base_s);
    row.sweep_verify_s_min = MinOf(sweep_s);
    row.speedup =
        row.sweep_verify_s > 0 ? row.base_verify_s / row.sweep_verify_s : 0;
    table.AddRow({row.algo, std::to_string(row.verified),
                  Fmt(row.base_verify_s, 4), Fmt(row.sweep_verify_s, 4),
                  Fmt(row.speedup, 2), std::to_string(row.sweep_chains),
                  std::to_string(row.sweep_instances),
                  std::to_string(row.sweep_fallbacks)});
    rows.push_back(std::move(row));
  }
  table.Print();
  WriteJson(rows, repeat, "BENCH_sweep_verify.json");
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
