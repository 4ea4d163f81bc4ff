// Ablation (DESIGN.md §7): incVerify — incremental verification along a
// refinement chain vs full re-matching of every instance, measured on the
// LKI scenario as a google-benchmark comparison.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "core/verifier.h"
#include "query/refinement.h"

namespace fairsqg::bench {
namespace {

const Scenario& GetScenario() {
  static Scenario* scenario = [] {
    Result<Scenario> s = MakeScenario(DefaultOptions("lki"));
    FAIRSQG_CHECK(s.ok()) << s.status().ToString();
    return new Scenario(std::move(s).ValueOrDie());
  }();
  return *scenario;
}

/// Walks a refinement chain from the root to the bottom, verifying each
/// step either incrementally (from the parent) or from scratch.
void BM_Chain(benchmark::State& state, bool incremental) {
  const Scenario& s = GetScenario();
  QGenConfig config = s.MakeConfig(0.01);
  config.use_incremental_verify = incremental;
  for (auto _ : state) {
    InstanceVerifier verifier(config);
    Instantiation inst = Instantiation::MostRelaxed(*s.tmpl);
    auto cands = std::make_shared<CandidateSpace>();
    EvaluatedPtr eval = verifier.Verify(inst, nullptr, cands.get());
    size_t steps = 0;
    for (;;) {
      auto children = LatticeNeighbors::RefineChildren(
          *s.tmpl, *s.domains, inst, RefinementHints::None(*s.tmpl));
      if (children.empty()) break;
      const LatticeStep& step = children[steps % children.size()];
      // With use_incremental_verify off the verifier ignores the context.
      const VerifyContext ctx{eval, cands};
      auto next_cands = std::make_shared<CandidateSpace>();
      EvaluatedPtr next = verifier.Verify(step.inst, &ctx, next_cands.get());
      inst = step.inst;
      eval = std::move(next);
      cands = std::move(next_cands);
      ++steps;
    }
    benchmark::DoNotOptimize(steps);
    state.counters["chain_len"] = static_cast<double>(steps);
  }
}

void BM_Incremental(benchmark::State& state) { BM_Chain(state, true); }
void BM_FullRematch(benchmark::State& state) { BM_Chain(state, false); }

BENCHMARK(BM_Incremental)->Unit(benchmark::kMillisecond)->Iterations(5);
BENCHMARK(BM_FullRematch)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace
}  // namespace fairsqg::bench

BENCHMARK_MAIN();
