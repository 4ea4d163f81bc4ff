// Observability inertness and GenStats-invariant coverage (DESIGN.md §13).
//
// The contract under test: the tracer is a *write-only* side channel.
// Enabling it — at any detail level, for any generator, serial or
// parallel, with or without the match-set cache —
// must not change a single archive byte. The differential tests below
// rerun every generator with tracing off and on and require exact
// equality of the result (members, match sets, objective coordinates,
// stats counters).
//
// The invariant tests pin the relations between the GenStats counters
// that FoldVerifierStats folds from each verifier, under seeded
// cancellation points.

#include <algorithm>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_context.h"
#include "core/bi_qgen.h"
#include "core/cbm.h"
#include "core/enum_qgen.h"
#include "core/kungs.h"
#include "core/match_cache.h"
#include "core/parallel_qgen.h"
#include "core/rf_qgen.h"
#include "obs/trace.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

struct NamedRunner {
  const char* name;
  std::function<Result<QGenResult>(const QGenConfig&)> run;
};

std::vector<NamedRunner> AllRunners() {
  return {
      {"EnumQGen", [](const QGenConfig& c) { return EnumQGen::Run(c); }},
      {"RfQGen", [](const QGenConfig& c) { return RfQGen::Run(c); }},
      {"BiQGen", [](const QGenConfig& c) { return BiQGen::Run(c); }},
      {"BiQGen/parallel",
       [](const QGenConfig& c) { return BiQGen::RunParallel(c, 4); }},
      {"ParallelQGen",
       [](const QGenConfig& c) { return ParallelQGen::Run(c, 4); }},
      {"Kungs", [](const QGenConfig& c) { return Kungs::Run(c); }},
      {"Cbm", [](const QGenConfig& c) { return Cbm::Run(c, 6); }},
  };
}

/// Restores the process-global tracer on scope exit so a failing
/// assertion cannot leak an enabled tracer into later tests.
struct ObsGuard {
  ~ObsGuard() { obs::Tracer::Global().Disable(); }
};

/// Exact archive equality: same members in the same (sorted) order, with
/// identical match sets, objective coordinates, and group coverage.
void ExpectSameArchive(const QGenResult& expected, const QGenResult& got,
                       const std::string& label) {
  ASSERT_EQ(expected.pareto.size(), got.pareto.size()) << label;
  for (size_t i = 0; i < expected.pareto.size(); ++i) {
    const EvaluatedPtr& a = expected.pareto[i];
    const EvaluatedPtr& b = got.pareto[i];
    EXPECT_EQ(a->inst, b->inst) << label << " member " << i;
    EXPECT_EQ(a->matches, b->matches) << label << " member " << i;
    EXPECT_EQ(a->group_coverage, b->group_coverage) << label << " member " << i;
    EXPECT_DOUBLE_EQ(a->obj.diversity, b->obj.diversity) << label;
    EXPECT_DOUBLE_EQ(a->obj.coverage, b->obj.coverage) << label;
    EXPECT_EQ(a->feasible, b->feasible) << label;
  }
  EXPECT_EQ(expected.stats.verified, got.stats.verified) << label;
  EXPECT_EQ(expected.stats.generated, got.stats.generated) << label;
  EXPECT_EQ(expected.stats.feasible, got.stats.feasible) << label;
}

// --- Differential: tracing on must not change any archive byte ---

TEST(ObservabilityTest, ArchivesIdenticalAcrossDetailLevels) {
  SmallScenario s;
  ObsGuard guard;
  for (const NamedRunner& runner : AllRunners()) {
    obs::Tracer::Global().Disable();
    QGenResult baseline = runner.run(s.Config(0.05)).ValueOrDie();

    for (obs::TraceDetail detail :
         {obs::TraceDetail::kPhase, obs::TraceDetail::kFull}) {
      obs::Tracer::Global().Enable(detail);
      QGenResult traced = runner.run(s.Config(0.05)).ValueOrDie();
      ExpectSameArchive(baseline, traced,
                        std::string(runner.name) + " detail=" +
                            obs::TraceDetailName(detail));
      obs::Tracer::Global().Disable();
    }
  }
}

// The name is older than the literal sweep's removal; only the match-set
// cache is varied now.
TEST(ObservabilityTest, ArchivesIdenticalWithCacheAndSweep) {
  SmallScenario s;
  ObsGuard guard;
  for (const NamedRunner& runner : AllRunners()) {
    auto configure = [&](MatchSetCache* cache) {
      QGenConfig c = s.Config(0.05);
      c.match_cache = cache;
      return c;
    };
    obs::Tracer::Global().Disable();
    MatchSetCache cold_cache;
    QGenResult baseline = runner.run(configure(&cold_cache)).ValueOrDie();

    obs::Tracer::Global().Enable(obs::TraceDetail::kFull);
    MatchSetCache traced_cache;
    QGenResult traced = runner.run(configure(&traced_cache)).ValueOrDie();
    ExpectSameArchive(baseline, traced, std::string(runner.name) + " cache");
    obs::Tracer::Global().Disable();
  }
}

// --- GenStats invariants under seeded cancellation ---

TEST(ObservabilityTest, VerifyCountersMatchGenStatsUnderCancellation) {
  SmallScenario s;
  // Fixed seed: arbitrary but reproducible cancellation points.
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<uint64_t> pick(1, 60);
  for (const NamedRunner& runner : AllRunners()) {
    for (int round = 0; round < 2; ++round) {
      uint64_t n = pick(rng);
      std::string label =
          std::string(runner.name) + " cancel@" + std::to_string(n);
      RunContext ctx;
      ctx.CancelAfterVerifications(n);
      ctx.set_on_expiry(ExpiryPolicy::kPartial);
      MatchSetCache cache;
      QGenConfig config = s.Config(0.05);
      config.run_context = &ctx;
      config.match_cache = &cache;
      const GenStats st = runner.run(config).ValueOrDie().stats;

      // Every cache consultation resolves to a hit or a miss, and lookups
      // come only from verifications that completed or aborted, so the
      // cache traffic is bounded by the instances the verifiers saw.
      EXPECT_LE(st.cache_hits + st.cache_misses,
                st.verified + st.timed_out_instances)
          << label;
      // FoldVerifierStats sums verify time into the cpu axis and takes the
      // max into the wall axis: equal for one verifier, sum/max for many.
      if (st.per_worker_verify_seconds.empty()) {
        EXPECT_EQ(st.verify_cpu_seconds, st.verify_wall_seconds) << label;
      } else {
        double sum = 0;
        double mx = 0;
        for (double w : st.per_worker_verify_seconds) {
          sum += w;
          mx = std::max(mx, w);
        }
        EXPECT_DOUBLE_EQ(st.verify_cpu_seconds, sum) << label;
        EXPECT_EQ(st.verify_wall_seconds, mx) << label;
      }
    }
  }
}

// --- Trace well-formedness (also the TSan clock-regression test) ---

TEST(ObservabilityTest, SpanDurationsNonNegativeAndTreeWellFormed) {
  SmallScenario s;
  ObsGuard guard;
  // Parallel runs exercise cross-thread span recording; full detail
  // exercises the per-instance verifier/matcher spans. All timestamps come
  // from the one monotonic clock (common/timer.h MonotonicNanos), so no
  // span may ever close before it opened — the regression this test pins
  // after the steady_clock unification.
  for (const NamedRunner& runner : AllRunners()) {
    obs::Tracer::Global().Enable(obs::TraceDetail::kFull);
    (void)runner.run(s.Config(0.05)).ValueOrDie();
    std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
    uint64_t dropped = obs::Tracer::Global().dropped();
    obs::Tracer::Global().Disable();

    ASSERT_FALSE(spans.empty()) << runner.name;
    std::set<uint64_t> ids;
    for (const obs::SpanRecord& rec : spans) {
      EXPECT_GE(rec.dur_ns, 0) << runner.name << " span " << rec.name;
      if (rec.instant) {
        EXPECT_EQ(rec.dur_ns, 0) << runner.name;
      }
      EXPECT_NE(rec.id, 0u) << runner.name;
      EXPECT_TRUE(ids.insert(rec.id).second)
          << runner.name << ": duplicate span id " << rec.id;
    }
    if (dropped == 0) {
      // With the full buffer retained, every parent reference must resolve
      // to a recorded span or the root sentinel. (Parents that were still
      // open when the snapshot was cut cannot occur: generators join their
      // workers before returning, closing every span.)
      for (const obs::SpanRecord& rec : spans) {
        EXPECT_TRUE(rec.parent == 0 || ids.count(rec.parent) == 1)
            << runner.name << ": span " << rec.name << " has dangling parent "
            << rec.parent;
      }
    }
  }
}

TEST(ObservabilityTest, DisabledTracerRecordsNothing) {
  SmallScenario s;
  ObsGuard guard;
  obs::Tracer::Global().Enable(obs::TraceDetail::kPhase);
  obs::Tracer::Global().Disable();
  uint64_t before = obs::Tracer::Global().total_recorded();
  (void)BiQGen::Run(s.Config(0.05)).ValueOrDie();
  EXPECT_EQ(obs::Tracer::Global().total_recorded(), before);
}

TEST(ObservabilityTest, PhaseDetailOmitsPerInstanceSpans) {
  SmallScenario s;
  ObsGuard guard;
  obs::Tracer::Global().Enable(obs::TraceDetail::kPhase);
  (void)EnumQGen::Run(s.Config(0.05)).ValueOrDie();
  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  obs::Tracer::Global().Disable();
  ASSERT_FALSE(spans.empty());
  for (const obs::SpanRecord& rec : spans) {
    // "verify" / "match" / "evaluate" / "gather" spans are kFull-only; at
    // kPhase the buffer holds only coarse phases, keeping overhead near zero.
    EXPECT_STRNE(rec.name, "verify") << "per-instance span at phase detail";
    EXPECT_STRNE(rec.name, "gather") << "per-instance span at phase detail";
    EXPECT_STRNE(rec.name, "match") << "per-instance span at phase detail";
    EXPECT_STRNE(rec.name, "evaluate") << "per-instance span at phase detail";
  }
}

TEST(ObservabilityTest, LatticeCertifyNamesItsGatherWork) {
  // At full detail each instance's set unions (its refinements' sets and
  // the candidates left to test) are one "gather" span under the level
  // walk's "lattice.certify", beside the instance's "verify".
  SmallScenario s;
  ObsGuard guard;
  obs::Tracer::Global().Enable(obs::TraceDetail::kFull);
  QGenResult r = EnumQGen::Run(s.Config(0.05)).ValueOrDie();
  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  obs::Tracer::Global().Disable();
  ASSERT_EQ(obs::Tracer::Global().dropped(), 0u);
  uint64_t certify = 0;
  for (const obs::SpanRecord& rec : spans) {
    if (std::string_view(rec.name) == "lattice.certify") certify = rec.id;
  }
  ASSERT_NE(certify, 0u);
  size_t gathers = 0;
  for (const obs::SpanRecord& rec : spans) {
    if (std::string_view(rec.name) != "gather") continue;
    ++gathers;
    EXPECT_EQ(rec.parent, certify);
  }
  EXPECT_EQ(gathers, r.stats.verified);
}

TEST(ObservabilityTest, ParallelQGenRecordsDiversityIndexAndPassSpans) {
  // The prologue of a pooled run is named at phase detail: the shared
  // diversity precompute, and the lattice pass, whose span on the calling
  // thread covers the whole pooled round.
  SmallScenario s;
  ObsGuard guard;
  for (double lambda : {0.0, 0.5}) {
    obs::Tracer::Global().Enable(obs::TraceDetail::kPhase);
    QGenConfig config = s.Config(0.05);
    config.diversity.lambda = lambda;
    (void)ParallelQGen::Run(config, 2).ValueOrDie();
    std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
    obs::Tracer::Global().Disable();
    const std::string label = "lambda=" + std::to_string(lambda);
    size_t diversity_index = 0;
    size_t pass = 0;
    for (const obs::SpanRecord& rec : spans) {
      const std::string name = rec.name;
      if (name != "diversity_index" && name != "lattice_index.build") continue;
      EXPECT_EQ(rec.worker, -1) << label << ": " << name << " off the caller";
      (name == "diversity_index" ? diversity_index : pass) += 1;
    }
    EXPECT_EQ(diversity_index, 1u) << label;
    EXPECT_EQ(pass, 1u) << label;
  }
}

}  // namespace
}  // namespace fairsqg
