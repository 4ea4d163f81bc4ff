// Cancellation / deadline / degraded-result coverage (DESIGN.md §11):
// every generator must stop cleanly when its RunContext expires and hand
// back a best-so-far archive whose members are all fully verified — a
// truncated run degrades to "the ε-Pareto set of the verified prefix",
// never to a corrupted or partially-verified result.

#include <atomic>
#include <chrono>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "archive_oracle.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/bi_qgen.h"
#include "core/cbm.h"
#include "core/enum_qgen.h"
#include "core/enumerate.h"
#include "core/kungs.h"
#include "core/lattice_verify.h"
#include "core/match_cache.h"
#include "core/online_qgen.h"
#include "core/parallel_qgen.h"
#include "core/rf_qgen.h"
#include "matching/lattice_index.h"
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

/// No archive member may (weakly) Pareto-dominate another: box archiving
/// keeps at most one representative per box and boxes are mutually
/// non-dominating, which rules out raw dominance between members too.
void ExpectParetoValid(const std::vector<EvaluatedPtr>& pareto,
                       const std::string& label) {
  for (size_t i = 0; i < pareto.size(); ++i) {
    for (size_t j = 0; j < pareto.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(Dominates(pareto[i]->obj, pareto[j]->obj))
          << label << ": member " << i << " dominates member " << j;
    }
  }
}

/// Every member of a (possibly truncated) archive must re-verify to the
/// exact same match set and coordinates under a fresh unbounded verifier:
/// cancellation may shrink the archive, never corrupt its entries.
void ExpectFullyVerified(const std::vector<EvaluatedPtr>& pareto,
                         const QGenConfig& bounded_config,
                         const std::string& label) {
  QGenConfig unbounded = bounded_config;
  unbounded.run_context = nullptr;
  unbounded.match_cache = nullptr;
  InstanceVerifier fresh(unbounded);
  for (const EvaluatedPtr& m : pareto) {
    EvaluatedPtr again = fresh.Verify(m->inst);
    ASSERT_NE(again, nullptr) << label;
    EXPECT_EQ(again->matches, m->matches) << label;
    EXPECT_DOUBLE_EQ(again->obj.diversity, m->obj.diversity) << label;
    EXPECT_DOUBLE_EQ(again->obj.coverage, m->obj.coverage) << label;
    EXPECT_EQ(again->feasible, m->feasible) << label;
  }
}

TEST(CancellationTest, EnumCancelAtNMatchesVerificationBudget) {
  SmallScenario s;
  for (size_t n : {1u, 5u, 17u, 40u}) {
    RunContext ctx;
    ctx.CancelAfterVerifications(n);
    QGenConfig cancelled = s.Config(0.05);
    cancelled.run_context = &ctx;
    QGenResult got = EnumQGen::Run(cancelled).ValueOrDie();

    // The budget is the run's one bound: it cuts the run at exactly n
    // verified instances.
    EXPECT_EQ(got.stats.verified, n) << "n=" << n;
    EXPECT_TRUE(got.stats.deadline_exceeded);
  }
}

TEST(CancellationTest, RandomCancellationPointsYieldValidArchives) {
  SmallScenario s;
  // Fixed seed: the cancellation points are arbitrary but reproducible.
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<uint64_t> pick(1, 60);
  for (const NamedRunner& runner : AllRunners()) {
    for (int round = 0; round < 3; ++round) {
      uint64_t n = pick(rng);
      std::string label =
          std::string(runner.name) + " cancel@" + std::to_string(n);
      RunContext ctx;
      ctx.CancelAfterVerifications(n);
      QGenConfig config = s.Config(0.05);
      config.run_context = &ctx;
      Result<QGenResult> r = runner.run(config);
      ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
      EXPECT_LE(r->stats.verified, n) << label;
      if (ctx.Expired()) {
        EXPECT_TRUE(r->stats.deadline_exceeded) << label;
      }
      ExpectParetoValid(r->pareto, label);
      ExpectFullyVerified(r->pareto, config, label);
    }
  }
}

TEST(CancellationTest, SequentialBiCancelIsDeterministic) {
  SmallScenario s;
  QGenResult runs[2];
  for (QGenResult& out : runs) {
    RunContext ctx;
    ctx.CancelAfterVerifications(9);
    QGenConfig config = s.Config(0.05);
    config.run_context = &ctx;
    out = BiQGen::Run(config).ValueOrDie();
  }
  ASSERT_EQ(runs[0].pareto.size(), runs[1].pareto.size());
  for (size_t i = 0; i < runs[0].pareto.size(); ++i) {
    EXPECT_EQ(runs[0].pareto[i]->inst, runs[1].pareto[i]->inst);
  }
  EXPECT_EQ(runs[0].stats.verified, runs[1].stats.verified);
}

TEST(CancellationTest, ParallelBiCancelIsDeterministic) {
  SmallScenario s;
  // The lattice pass polls the context once per instance under its
  // cursor's lock, so it settles the same instances at any thread count,
  // and the serial search that reads them polls nothing — two cancelled
  // runs must be bit-identical, exactly like the uncancelled guarantee.
  QGenResult runs[2];
  for (QGenResult& out : runs) {
    RunContext ctx;
    ctx.CancelAfterVerifications(12);
    QGenConfig config = s.Config(0.05);
    config.run_context = &ctx;
    out = BiQGen::RunParallel(config, 4).ValueOrDie();
  }
  ASSERT_EQ(runs[0].pareto.size(), runs[1].pareto.size());
  for (size_t i = 0; i < runs[0].pareto.size(); ++i) {
    EXPECT_EQ(runs[0].pareto[i]->inst, runs[1].pareto[i]->inst);
    EXPECT_DOUBLE_EQ(runs[0].pareto[i]->obj.diversity,
                     runs[1].pareto[i]->obj.diversity);
    EXPECT_DOUBLE_EQ(runs[0].pareto[i]->obj.coverage,
                     runs[1].pareto[i]->obj.coverage);
  }
  EXPECT_EQ(runs[0].stats.verified, runs[1].stats.verified);
  EXPECT_EQ(runs[0].stats.feasible, runs[1].stats.feasible);
}

TEST(CancellationTest, ParallelQGenCancelDispatchesExactPrefix) {
  SmallScenario s;
  RunContext ctx;
  ctx.CancelAfterVerifications(10);
  QGenConfig config = s.Config(0.05);
  config.run_context = &ctx;
  QGenResult r = ParallelQGen::Run(config, 4).ValueOrDie();
  // The dispatcher polls once per instance under the enumeration lock, so
  // exactly the first 10 enumerated instances are dispatched and verified.
  EXPECT_EQ(r.stats.verified, 10u);
  EXPECT_TRUE(r.stats.deadline_exceeded);
  ExpectFullyVerified(r.pareto, config, "ParallelQGen cancel@10");
}

TEST(CancellationTest, RfQGenCancelDuringLatticePassAbandonsUnsettled) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  ASSERT_TRUE(LatticeApplies(config));
  const uint64_t space = s.domains->InstanceSpaceSize(*s.tmpl);
  ASSERT_GT(space, 2u);
  const QGenResult whole = RfQGen::Run(config).ValueOrDie();
  ASSERT_FALSE(whole.pareto.empty());
  ASSERT_LT(whole.stats.verified, space);  // The search consumes a part.

  // The pass polls once per instance, the most refined level first, so a
  // cut before its end leaves the root unsettled: the search abandons it.
  for (uint64_t n : {uint64_t{1}, space / 2, space - 1}) {
    const std::string label = "RfQGen cancel@" + std::to_string(n);
    RunContext ctx;
    ctx.CancelAfterVerifications(n);
    config.run_context = &ctx;
    Result<QGenResult> r = RfQGen::Run(config);
    ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
    EXPECT_TRUE(r->stats.deadline_exceeded) << label;
    EXPECT_LE(r->stats.verified, n) << label;
    ExpectParetoValid(r->pareto, label);
    ExpectFullyVerified(r->pareto, config, label);
  }

  // A budget the pass does not exhaust leaves the search whole: the search
  // itself polls no verifications.
  RunContext ctx;
  ctx.CancelAfterVerifications(space + 1);
  config.run_context = &ctx;
  const QGenResult r = RfQGen::Run(config).ValueOrDie();
  EXPECT_FALSE(r.stats.deadline_exceeded);
  EXPECT_EQ(r.stats.verified, whole.stats.verified);
  EXPECT_EQ(ArchiveFingerprint(r.pareto), ArchiveFingerprint(whole.pareto));
}

TEST(CancellationTest, BiQGenCancelDuringLatticePassAbandonsUnsettled) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  ASSERT_TRUE(LatticeApplies(config));
  const uint64_t space = s.domains->InstanceSpaceSize(*s.tmpl);
  ASSERT_GT(space, 2u);
  const QGenResult whole = BiQGen::Run(config).ValueOrDie();
  ASSERT_FALSE(whole.pareto.empty());
  ASSERT_LT(whole.stats.verified, space);  // The search consumes a part.
  const Instantiation root = Instantiation::MostRelaxed(*s.tmpl);

  // The pass polls once per instance, the most refined level first, so a
  // cut before its end leaves the root unsettled: the forward frontier is
  // abandoned at once, and the backward one consumes only settled
  // instances. The pass settles the same instances on a pool.
  for (uint64_t n : {uint64_t{1}, space / 2, space - 1}) {
    uint64_t fingerprint = 0;
    for (size_t threads : {1, 2}) {
      const std::string label = "BiQGen cancel@" + std::to_string(n) +
                                " threads=" + std::to_string(threads);
      RunContext ctx;
      ctx.CancelAfterVerifications(n);
      config.run_context = &ctx;
      Result<QGenResult> r = BiQGen::RunParallel(config, threads);
      ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
      EXPECT_TRUE(r->stats.deadline_exceeded) << label;
      EXPECT_LE(r->stats.verified, n) << label;
      for (const EvaluatedPtr& m : r->pareto) EXPECT_NE(m->inst, root) << label;
      ExpectParetoValid(r->pareto, label);
      ExpectFullyVerified(r->pareto, config, label);
      if (threads == 1) fingerprint = ArchiveFingerprint(r->pareto);
      EXPECT_EQ(ArchiveFingerprint(r->pareto), fingerprint) << label;
    }
  }

  // A budget the pass does not exhaust leaves the search whole: the search
  // itself polls no verifications.
  RunContext ctx;
  ctx.CancelAfterVerifications(space + 1);
  config.run_context = &ctx;
  const QGenResult r = BiQGen::Run(config).ValueOrDie();
  EXPECT_FALSE(r.stats.deadline_exceeded);
  EXPECT_EQ(r.stats.verified, whole.stats.verified);
  EXPECT_EQ(ArchiveFingerprint(r.pareto), ArchiveFingerprint(whole.pareto));
}

/// Expires `ctx` `delay_ms` from now: through its deadline, or by a
/// thread that trips its token (at once when `delay_ms` is 0). The thread
/// is joined on destruction.
class Expiry {
 public:
  Expiry(RunContext* ctx, bool deadline, double delay_ms) {
    if (deadline) {
      ctx->SetDeadlineAfterMillis(delay_ms);
      return;
    }
    if (delay_ms <= 0) {
      ctx->RequestCancel();
      return;
    }
    canceller_ = std::thread([ctx, delay_ms] {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
      ctx->RequestCancel();
    });
  }
  ~Expiry() {
    if (canceller_.joinable()) canceller_.join();
  }

 private:
  std::thread canceller_;
};

TEST(CancellationTest, ExpiryDuringPooledLatticePassStopsEveryWorker) {
  // A dbp template with some thousand output candidates, at λ = 0 as in
  // the request stream's parallel workload.
  Result<Scenario> s = MakeScenario(OracleScenarioOptions("dbp", 1.0, 1, 8));
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  QGenConfig config = s->MakeConfig(0.05);
  config.diversity.lambda = 0;
  ASSERT_TRUE(LatticeApplies(config));
  const Graph& g = *config.graph;

  for (size_t workers : {2, 4}) {
    ThreadPool pool(workers);
    Timer timer;
    ASSERT_TRUE(
        LatticeIndex::Build(g, *config.tmpl, *config.domains, nullptr, &pool)
            .ok());
    const double pass_ms = timer.ElapsedMillis();
    for (bool deadline : {false, true}) {
      const std::string label = std::string(deadline ? "deadline" : "token") +
                                " workers=" + std::to_string(workers);
      // Expire a quarter into the pass. Should the pass outrun the timer
      // (a loaded machine may start the canceller late), a shorter delay
      // expires it sooner, down to an expiry before the pass starts.
      Status status;
      for (double delay_ms = pass_ms / 4;; delay_ms /= 2) {
        if (delay_ms < 1e-3) delay_ms = 0;
        RunContext ctx;
        {
          Expiry expiry(&ctx, deadline, delay_ms);
          status = LatticeIndex::Build(g, *config.tmpl, *config.domains, &ctx,
                                       &pool)
                       .status();
        }
        if (!status.ok() || delay_ms == 0) break;
      }
      EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << label;
      // No worker is still in the pass: every one takes the next round.
      std::atomic<size_t> ran{0};
      pool.Run([&](size_t) { ran.fetch_add(1); });
      EXPECT_EQ(ran.load(), workers) << label;

      // ParallelQGen expired before its walk (in its prologue or its pass):
      // the pass verifies nothing (DESIGN.md §14.3), so the archive is empty
      // and the run reports deadline_exceeded. An expiry that lands in the
      // walk, or after the run, is retried sooner.
      QGenResult r;
      for (double delay_ms = pass_ms / 4;; delay_ms /= 2) {
        if (delay_ms < 1e-3) delay_ms = 0;
        RunContext ctx;
        config.run_context = &ctx;
        {
          Expiry expiry(&ctx, deadline, delay_ms);
          r = ParallelQGen::Run(config, workers).ValueOrDie();
        }
        config.run_context = nullptr;
        if ((r.stats.deadline_exceeded && r.stats.verified == 0) ||
            delay_ms == 0) {
          break;
        }
      }
      EXPECT_TRUE(r.stats.deadline_exceeded) << label;
      EXPECT_EQ(r.stats.verified, 0u) << label;
      EXPECT_TRUE(r.pareto.empty()) << label;
    }
  }
}

TEST(CancellationTest, FailPolicyReturnsDeadlineExceeded) {
  SmallScenario s;
  for (const NamedRunner& runner : AllRunners()) {
    RunContext ctx;
    ctx.CancelAfterVerifications(3);
    ctx.set_on_expiry(ExpiryPolicy::kFail);
    QGenConfig config = s.Config(0.05);
    config.run_context = &ctx;
    Result<QGenResult> r = runner.run(config);
    ASSERT_FALSE(r.ok()) << runner.name;
    EXPECT_TRUE(r.status().IsDeadlineExceeded())
        << runner.name << ": " << r.status().ToString();
  }
}

TEST(CancellationTest, PreExpiredDeadlineReturnsEmptyPartialResult) {
  SmallScenario s;
  RunContext ctx;
  ctx.SetDeadlineAfterMillis(-1);
  QGenConfig config = s.Config(0.05);
  config.run_context = &ctx;
  for (const NamedRunner& runner : AllRunners()) {
    Result<QGenResult> r = runner.run(config);
    ASSERT_TRUE(r.ok()) << runner.name << ": " << r.status().ToString();
    EXPECT_TRUE(r->stats.deadline_exceeded) << runner.name;
    EXPECT_EQ(r->stats.verified, 0u) << runner.name;
    EXPECT_TRUE(r->pareto.empty()) << runner.name;
  }
}

TEST(CancellationTest, WallClockDeadlineSmoke) {
  SmallScenario s;
  RunContext ctx;
  ctx.SetDeadlineAfterMillis(1);
  QGenConfig config = s.Config(0.05);
  config.run_context = &ctx;
  Result<QGenResult> r = EnumQGen::Run(config);
  // Whether or not the run beat the 1ms deadline, the result is valid and
  // every retained member is fully verified.
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectParetoValid(r->pareto, "deadline smoke");
  ExpectFullyVerified(r->pareto, config, "deadline smoke");
}

TEST(CancellationTest, StepLimitAbortsAreCountedAndCacheTransparent) {
  SmallScenario s;
  auto run_with_limit = [&](MatchSetCache* cache) {
    RunContext ctx;
    ctx.set_match_step_limit(40);
    QGenConfig config = s.Config(0.05);
    config.run_context = &ctx;
    config.match_cache = cache;
    // The per-instance odometer verifies every instance on its own,
    // through the cache; the lattice path (Enum, Rf, Kungs) tests so few
    // candidates per search that no budget trips.
    return PerInstanceKungs(config).ValueOrDie();
  };

  QGenResult plain = run_with_limit(nullptr);
  // A 40-step budget is far below what these searches need: aborts happen.
  EXPECT_GT(plain.stats.timed_out_instances, 0u);
  EXPECT_GE(plain.stats.aborted_matches, plain.stats.timed_out_instances);
  // Step-budget aborts do not by themselves end the run.
  EXPECT_FALSE(plain.stats.deadline_exceeded);
  ExpectParetoValid(plain.pareto, "step limit, no cache");

  MatchSetCache::Options options;
  options.capacity_bytes = 8u << 20;
  auto cache = MatchSetCache::Create(options).ValueOrDie();
  QGenResult cached = run_with_limit(cache.get());

  // Aborted searches are never inserted into the cache, so the cache stays
  // transparent even on a degraded run: byte-identical archive and counts.
  EXPECT_EQ(cached.stats.verified, plain.stats.verified);
  EXPECT_EQ(cached.stats.feasible, plain.stats.feasible);
  EXPECT_EQ(cached.stats.timed_out_instances, plain.stats.timed_out_instances);
  ASSERT_EQ(cached.pareto.size(), plain.pareto.size());
  for (size_t i = 0; i < plain.pareto.size(); ++i) {
    EXPECT_EQ(cached.pareto[i]->inst, plain.pareto[i]->inst);
    EXPECT_EQ(cached.pareto[i]->matches, plain.pareto[i]->matches);
    EXPECT_DOUBLE_EQ(cached.pareto[i]->obj.diversity,
                     plain.pareto[i]->obj.diversity);
    EXPECT_DOUBLE_EQ(cached.pareto[i]->obj.coverage,
                     plain.pareto[i]->obj.coverage);
  }
}

TEST(CancellationTest, OnlineQGenStopsProcessingOnCancel) {
  SmallScenario s;
  RunContext ctx;
  ctx.CancelAfterVerifications(3);
  QGenConfig config = s.Config(0.05);
  config.run_context = &ctx;
  OnlineConfig online;
  online.k = 5;
  OnlineQGen qgen(config, online);
  InstantiationEnumerator en(*s.tmpl, *s.domains);
  Instantiation inst;
  for (int i = 0; i < 10 && en.Next(&inst); ++i) {
    qgen.Process(inst);
  }
  EXPECT_LE(qgen.stats().verified, 3u);
  EXPECT_TRUE(qgen.stats().deadline_exceeded);
  QGenResult snap = qgen.Snapshot();
  ExpectParetoValid(snap.pareto, "online cancel@3");
  ExpectFullyVerified(snap.pareto, config, "online cancel@3");
}

}  // namespace
}  // namespace fairsqg
