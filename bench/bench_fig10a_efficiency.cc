// Fig. 10(a): efficiency of Kungs, EnumQGen, RfQGen and BiQGen over the
// three datasets (Fig. 9(a) setting), as google-benchmark timings, plus the
// Section IV ablation rows (template refinement / sandwich + subtree
// pruning toggled off).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "core/bi_qgen.h"
#include "core/enum_qgen.h"
#include "core/kungs.h"
#include "core/rf_qgen.h"

namespace fairsqg::bench {
namespace {

const Scenario& GetScenario(const std::string& dataset) {
  static std::map<std::string, std::unique_ptr<Scenario>>* cache =
      new std::map<std::string, std::unique_ptr<Scenario>>();
  auto it = cache->find(dataset);
  if (it == cache->end()) {
    Result<Scenario> s = MakeScenario(DefaultOptions(dataset));
    FAIRSQG_CHECK(s.ok()) << s.status().ToString();
    it = cache->emplace(dataset,
                        std::make_unique<Scenario>(std::move(s).ValueOrDie()))
             .first;
  }
  return *it->second;
}

using Runner = Result<QGenResult> (*)(const QGenConfig&);

void BM_Generate(benchmark::State& state, const std::string& dataset,
                 Runner runner, bool template_refinement, bool pruning) {
  const Scenario& scenario = GetScenario(dataset);
  QGenConfig config = scenario.MakeConfig(0.01);
  config.use_template_refinement = template_refinement;
  config.use_sandwich_pruning = pruning;
  config.use_subtree_pruning = pruning;
  size_t verified = 0;
  for (auto _ : state) {
    Result<QGenResult> r = runner(config);
    FAIRSQG_CHECK(r.ok()) << r.status().ToString();
    verified = r->stats.verified;
    benchmark::DoNotOptimize(r->pareto.size());
  }
  state.counters["verified"] = static_cast<double>(verified);
}

void RegisterAll() {
  struct Algo {
    const char* name;
    Runner runner;
  };
  const Algo algos[] = {{"Kungs", &Kungs::Run},
                        {"EnumQGen", &EnumQGen::Run},
                        {"RfQGen", &RfQGen::Run},
                        {"BiQGen", &BiQGen::Run}};
  for (const char* dataset : {"dbp", "lki", "cite"}) {
    for (const Algo& algo : algos) {
      benchmark::RegisterBenchmark(
          (std::string("Fig10a/") + dataset + "/" + algo.name).c_str(),
          [dataset, runner = algo.runner](benchmark::State& state) {
            BM_Generate(state, dataset, runner, true, true);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(3);
    }
    // Ablations (DESIGN.md §7) on the contributed algorithms.
    benchmark::RegisterBenchmark(
        (std::string("Fig10a/") + dataset + "/RfQGen_no_template_refine").c_str(),
        [dataset](benchmark::State& state) {
          BM_Generate(state, dataset, &RfQGen::Run, false, true);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
    benchmark::RegisterBenchmark(
        (std::string("Fig10a/") + dataset + "/BiQGen_no_pruning").c_str(),
        [dataset](benchmark::State& state) {
          BM_Generate(state, dataset, &BiQGen::Run, true, false);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
  }
}

}  // namespace
}  // namespace fairsqg::bench

int main(int argc, char** argv) {
  fairsqg::bench::PrintFigureHeader(
      "Fig 10(a)", "Efficiency over the three datasets",
      "Fig 9(a) setting; paper: BiQGen ~4.4x over Enum, ~2.5x over RfQGen; "
      "plus ablation rows");
  fairsqg::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
