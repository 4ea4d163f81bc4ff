// Extension benchmark (Section VI future work): thread scaling of the
// parallel generators on the DBP scenario.
//
// Two parts:
//  1. a speedup report comparing each sequential path against its parallel
//     counterpart at several thread counts — wall-clock speedup, the
//     CPU-vs-wall verification split (GenStats reports both axes so the
//     comparison is apples-to-apples), and whether the parallel archive is
//     the sequential one (equal ArchiveFingerprint): ParallelQGen's is
//     EnumQGen's, and BiQGen::RunParallel's, which runs only the lattice
//     pass on its pool, is BiQGen::Run's;
//  2. google-benchmark timings for the same configurations.
//
// Note: wall-clock speedups only materialize with > 1 hardware thread;
// on a single-core host the report still validates equivalence.

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/bi_qgen.h"
#include "core/enum_qgen.h"
#include "core/parallel_qgen.h"
#include "core/pareto_archive.h"

namespace fairsqg::bench {
namespace {

const Scenario& GetScenario() {
  static Scenario* scenario = [] {
    Result<Scenario> s = MakeScenario(DefaultOptions("dbp"));
    FAIRSQG_CHECK(s.ok()) << s.status().ToString();
    return new Scenario(std::move(s).ValueOrDie());
  }();
  return *scenario;
}

QGenResult BestOf(const std::function<Result<QGenResult>()>& run, int reps) {
  QGenResult best;
  for (int i = 0; i < reps; ++i) {
    Result<QGenResult> r = run();
    FAIRSQG_CHECK(r.ok()) << r.status().ToString();
    if (i == 0 || r->stats.total_seconds < best.stats.total_seconds) {
      best = std::move(r).ValueOrDie();
    }
  }
  return best;
}

void AddRow(Table* table, const std::string& name, size_t threads,
            const QGenResult& r, const QGenResult& seq_result) {
  const bool same = ArchiveFingerprint(r.pareto) ==
                    ArchiveFingerprint(seq_result.pareto);
  const double speedup = seq_result.stats.total_seconds / r.stats.total_seconds;
  table->AddRow({name, std::to_string(threads), Fmt(r.stats.total_seconds),
                 Fmt(r.stats.verify_cpu_seconds),
                 Fmt(r.stats.verify_wall_seconds), Fmt(speedup, 2) + "x",
                 std::to_string(r.stats.verified),
                 std::to_string(r.pareto.size()), same ? "yes" : "NO"});
}

void PrintSpeedupReport() {
  const Scenario& scenario = GetScenario();
  QGenConfig config = scenario.MakeConfig(0.01);
  constexpr int kReps = 3;

  PrintFigureHeader(
      "Ext-Parallel", "thread scaling of ParallelQGen and parallel Bi-QGen",
      "DBP scenario, eps=0.01; verify time split into CPU (sum over "
      "workers) and wall (max worker) axes");

  Table table({"algorithm", "threads", "total_s", "verify_cpu_s",
               "verify_wall_s", "speedup", "verified", "|pareto|",
               "same-archive"});

  QGenResult enum_seq = BestOf([&] { return EnumQGen::Run(config); }, kReps);
  AddRow(&table, "EnumQGen (seq)", 1, enum_seq, enum_seq);
  for (size_t threads : {2, 4, 8}) {
    QGenResult r =
        BestOf([&] { return ParallelQGen::Run(config, threads); }, kReps);
    AddRow(&table, "ParallelQGen", threads, r, enum_seq);
  }

  QGenResult bi_seq = BestOf([&] { return BiQGen::Run(config); }, kReps);
  AddRow(&table, "BiQGen (seq)", 1, bi_seq, bi_seq);
  for (size_t threads : {2, 4, 8}) {
    QGenResult r =
        BestOf([&] { return BiQGen::RunParallel(config, threads); }, kReps);
    AddRow(&table, "BiQGen (parallel)", threads, r, bi_seq);
  }
  table.Print();
}

void BM_Sequential(benchmark::State& state) {
  QGenConfig config = GetScenario().MakeConfig(0.01);
  for (auto _ : state) {
    Result<QGenResult> r = EnumQGen::Run(config);
    FAIRSQG_CHECK(r.ok());
    benchmark::DoNotOptimize(r->pareto.size());
  }
}
BENCHMARK(BM_Sequential)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_Parallel(benchmark::State& state) {
  QGenConfig config = GetScenario().MakeConfig(0.01);
  size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Result<QGenResult> r = ParallelQGen::Run(config, threads);
    FAIRSQG_CHECK(r.ok());
    benchmark::DoNotOptimize(r->pareto.size());
  }
}
BENCHMARK(BM_Parallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_BiSequential(benchmark::State& state) {
  QGenConfig config = GetScenario().MakeConfig(0.01);
  for (auto _ : state) {
    Result<QGenResult> r = BiQGen::Run(config);
    FAIRSQG_CHECK(r.ok());
    benchmark::DoNotOptimize(r->pareto.size());
  }
}
BENCHMARK(BM_BiSequential)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_BiParallel(benchmark::State& state) {
  QGenConfig config = GetScenario().MakeConfig(0.01);
  size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Result<QGenResult> r = BiQGen::RunParallel(config, threads);
    FAIRSQG_CHECK(r.ok());
    benchmark::DoNotOptimize(r->pareto.size());
  }
}
BENCHMARK(BM_BiParallel)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace
}  // namespace fairsqg::bench

int main(int argc, char** argv) {
  fairsqg::bench::PrintSpeedupReport();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
