#include "core/pareto_archive.h"

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace fairsqg {
namespace {

EvaluatedPtr MakePoint(double diversity, double coverage) {
  auto e = std::make_shared<EvaluatedInstance>();
  e->obj = {diversity, coverage};
  e->feasible = true;
  return e;
}

// A point bound to a one-variable instantiation, so equal objectives can
// still be told apart.
EvaluatedPtr MakeBoundPoint(double diversity, double coverage, int32_t binding) {
  auto e = std::make_shared<EvaluatedInstance>();
  e->inst = Instantiation({binding}, {});
  e->obj = {diversity, coverage};
  e->feasible = true;
  return e;
}

TEST(ParetoArchiveTest, FirstInstanceAddsNewBox) {
  ParetoArchive archive(0.1);
  EXPECT_EQ(archive.Update(MakePoint(1, 1)), UpdateOutcome::kAddedNewBox);
  EXPECT_EQ(archive.size(), 1u);
}

TEST(ParetoArchiveTest, DominatedBoxRejected) {
  ParetoArchive archive(0.1);
  archive.Update(MakePoint(10, 10));
  EXPECT_EQ(archive.Update(MakePoint(1, 1)), UpdateOutcome::kRejectedDominated);
  EXPECT_EQ(archive.size(), 1u);
}

TEST(ParetoArchiveTest, DominatingBoxEvictsAll) {
  ParetoArchive archive(0.1);
  archive.Update(MakePoint(1, 8));
  archive.Update(MakePoint(8, 1));
  ASSERT_EQ(archive.size(), 2u);
  EXPECT_EQ(archive.Update(MakePoint(20, 20)), UpdateOutcome::kReplacedBoxes);
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_DOUBLE_EQ(archive.Entries()[0]->obj.diversity, 20);
}

TEST(ParetoArchiveTest, SameBoxKeepsDominant) {
  ParetoArchive archive(0.5);  // Coarse boxes.
  EvaluatedPtr weak = MakePoint(1.00, 1.00);
  EvaluatedPtr strong = MakePoint(1.05, 1.05);  // Same box, dominates weak.
  ASSERT_EQ(BoxOf(weak->obj, 0.5).diversity, BoxOf(strong->obj, 0.5).diversity);
  archive.Update(weak);
  EXPECT_EQ(archive.Update(strong), UpdateOutcome::kReplacedInstance);
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_DOUBLE_EQ(archive.Entries()[0]->obj.diversity, 1.05);
  // Re-offering the weaker one is rejected within the same box.
  EXPECT_EQ(archive.Update(weak), UpdateOutcome::kRejectedSameBox);
}

TEST(ParetoArchiveTest, SameBoxIncomparableKeepsIncumbent) {
  ParetoArchive archive(0.5);
  EvaluatedPtr first = MakePoint(1.05, 1.00);
  EvaluatedPtr second = MakePoint(1.00, 1.05);  // Same box, incomparable.
  archive.Update(first);
  EXPECT_EQ(archive.Update(second), UpdateOutcome::kRejectedSameBox);
  EXPECT_DOUBLE_EQ(archive.Entries()[0]->obj.diversity, 1.05);
}

TEST(ParetoArchiveTest, SameBoxWinnerIndependentOfOrder) {
  // Incomparable box-mates: the larger diversity wins from either side.
  for (bool swap : {false, true}) {
    ParetoArchive archive(0.5);
    EvaluatedPtr more_d = MakePoint(1.05, 1.00);
    EvaluatedPtr more_f = MakePoint(1.00, 1.05);
    archive.Update(swap ? more_f : more_d);
    archive.Update(swap ? more_d : more_f);
    ASSERT_EQ(archive.size(), 1u);
    EXPECT_EQ(archive.Entries()[0], more_d) << "swap=" << swap;
  }
  // Equal objectives: the smaller instantiation wins from either side.
  for (bool swap : {false, true}) {
    ParetoArchive archive(0.5);
    EvaluatedPtr low = MakeBoundPoint(1, 1, 0);
    EvaluatedPtr high = MakeBoundPoint(1, 1, 2);
    EXPECT_EQ(archive.Update(swap ? high : low), UpdateOutcome::kAddedNewBox);
    EXPECT_EQ(archive.Update(swap ? low : high),
              swap ? UpdateOutcome::kReplacedInstance
                   : UpdateOutcome::kRejectedSameBox);
    EXPECT_EQ(archive.Classify(*high), UpdateOutcome::kRejectedSameBox);
    ASSERT_EQ(archive.size(), 1u);
    EXPECT_EQ(archive.Entries()[0], low) << "swap=" << swap;
  }
}

TEST(ParetoArchiveTest, IncomparableBoxesCoexist) {
  ParetoArchive archive(0.1);
  archive.Update(MakePoint(10, 1));
  EXPECT_EQ(archive.Update(MakePoint(1, 10)), UpdateOutcome::kAddedNewBox);
  EXPECT_EQ(archive.size(), 2u);
}

TEST(ParetoArchiveTest, ClassifyMatchesUpdateWithoutMutating) {
  ParetoArchive archive(0.1);
  archive.Update(MakePoint(5, 5));
  EvaluatedPtr q = MakePoint(1, 1);
  EXPECT_EQ(archive.Classify(*q), UpdateOutcome::kRejectedDominated);
  EXPECT_EQ(archive.size(), 1u);
  EvaluatedPtr big = MakePoint(50, 50);
  EXPECT_EQ(archive.Classify(*big), UpdateOutcome::kReplacedBoxes);
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_DOUBLE_EQ(archive.Entries()[0]->obj.diversity, 5);
}

TEST(ParetoArchiveTest, SortedEntriesByDiversityDesc) {
  ParetoArchive archive(0.01);
  archive.Update(MakePoint(1, 10));
  archive.Update(MakePoint(10, 1));
  archive.Update(MakePoint(5, 5));
  auto sorted = archive.SortedEntries();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0]->obj.diversity, 10);
  EXPECT_DOUBLE_EQ(sorted[2]->obj.diversity, 1);
}

TEST(ParetoArchiveTest, RemoveAndBestObjectives) {
  ParetoArchive archive(0.01);
  EvaluatedPtr a = MakePoint(1, 10);
  EvaluatedPtr b = MakePoint(10, 1);
  archive.Update(a);
  archive.Update(b);
  Objectives best = archive.BestObjectives();
  EXPECT_DOUBLE_EQ(best.diversity, 10);
  EXPECT_DOUBLE_EQ(best.coverage, 10);
  archive.Remove(a);
  EXPECT_EQ(archive.size(), 1u);
  archive.Remove(a);  // Idempotent.
  EXPECT_EQ(archive.size(), 1u);
}

TEST(ParetoArchiveTest, SetEpsilonMergesBoxes) {
  ParetoArchive archive(0.01);
  // A staircase of near-equal points: fine boxes keep many, coarse few.
  for (int i = 0; i < 20; ++i) {
    archive.Update(MakePoint(1.0 + 0.05 * i, 2.0 - 0.05 * i));
  }
  size_t fine = archive.size();
  archive.SetEpsilon(1.0);
  EXPECT_LT(archive.size(), fine);
  EXPECT_DOUBLE_EQ(archive.epsilon(), 1.0);
}

// ---------------------------------------------------------------------------
// Property suite: the archive's provable invariants under random streams.
// ---------------------------------------------------------------------------

class ArchivePropertyTest : public testing::TestWithParam<int> {};

TEST_P(ArchivePropertyTest, CoverageAntichainAndSizeBound) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 5);
  double eps = 0.05 + 0.3 * rng.NextDouble();
  double max_d = 30.0;
  double max_f = 20.0;
  ParetoArchive archive(eps);
  std::vector<EvaluatedPtr> seen;
  for (int i = 0; i < 400; ++i) {
    EvaluatedPtr p = MakePoint(rng.NextDouble() * max_d, rng.NextDouble() * max_f);
    seen.push_back(p);
    archive.Update(p);

    // Invariant 1: every point ever offered is ε-dominated by some member.
    if (i % 20 == 0 || i == 399) {
      auto members = archive.Entries();
      for (const EvaluatedPtr& x : seen) {
        bool covered = false;
        for (const EvaluatedPtr& m : members) {
          if (EpsilonDominates(m->obj, x->obj, eps + 1e-9)) {
            covered = true;
            break;
          }
        }
        EXPECT_TRUE(covered) << "uncovered point after " << i << " updates";
      }
      // Invariant 2: members form an antichain of boxes (one per box, no
      // box dominance between members).
      for (size_t a = 0; a < members.size(); ++a) {
        for (size_t b = 0; b < members.size(); ++b) {
          if (a == b) continue;
          BoxCoord ba = BoxOf(members[a]->obj, eps);
          BoxCoord bb = BoxOf(members[b]->obj, eps);
          EXPECT_FALSE(BoxDominatesOrEqual(ba, bb))
              << "archive members must occupy incomparable boxes";
        }
      }
    }
  }
  // Invariant 3: size bound from Theorem 2 — at most one member per
  // diversity box index along the antichain.
  double bound = std::log1p(max_d) / std::log1p(eps) + 1;
  EXPECT_LE(static_cast<double>(archive.size()), bound)
      << "eps=" << eps;
}

// Update is confluent: any order of one stream, sequential or spread over
// merged shards, yields the same members. Objectives come from a coarse
// grid, so the stream holds exact ties and incomparable box-mates.
TEST_P(ArchivePropertyTest, PermutedStreamsGiveIdenticalArchives) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 11);
  double eps = 0.05 + 0.3 * rng.NextDouble();
  std::vector<EvaluatedPtr> stream;
  for (int32_t i = 0; i < 300; ++i) {
    stream.push_back(MakeBoundPoint(0.5 * rng.NextInRange(0, 40),
                                    0.5 * rng.NextInRange(0, 20), i));
  }
  ParetoArchive reference(eps);
  for (const EvaluatedPtr& p : stream) reference.Update(p);
  std::vector<EvaluatedPtr> expected = reference.SortedEntries();

  for (int round = 0; round < 5; ++round) {
    rng.Shuffle(&stream);
    ParetoArchive sequential(eps);
    std::vector<ParetoArchive> sharded(4, ParetoArchive(eps));
    for (const EvaluatedPtr& p : stream) {
      sequential.Update(p);
      sharded[rng.NextBounded(4)].Update(p);
    }
    ParetoArchive merged(eps);
    for (const ParetoArchive& shard : sharded) merged.Merge(shard);
    EXPECT_EQ(sequential.SortedEntries(), expected) << "round " << round;
    EXPECT_EQ(merged.SortedEntries(), expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchivePropertyTest, testing::Range(0, 12));

// The suite keeps its name from the sharded-archive class that per-worker
// ParetoArchives plus Merge replaced; it still runs in the TSan job.
TEST(ConcurrentParetoArchiveTest, MergedCoversEveryShardedUpdate) {
  constexpr double kEps = 0.1;
  constexpr size_t kShards = 4;
  std::vector<ParetoArchive> shards(kShards, ParetoArchive(kEps));

  // Concurrent thread-private updates (the intended usage pattern; also
  // what TSan scrutinizes under -DFAIRSQG_SANITIZE=thread).
  std::vector<std::vector<EvaluatedPtr>> offered(kShards);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kShards; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(7 * (w + 1));
      for (int i = 0; i < 200; ++i) {
        EvaluatedPtr p =
            MakePoint(rng.NextDouble() * 50.0, rng.NextDouble() * 50.0);
        offered[w].push_back(p);
        shards[w].Update(p);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // The ε-box merge must box-dominate (hence ε-dominate) every instance
  // any shard was ever offered — the transitivity argument of DESIGN.md.
  ParetoArchive merged(kEps);
  for (const ParetoArchive& shard : shards) merged.Merge(shard);
  for (const std::vector<EvaluatedPtr>& shard_offered : offered) {
    for (const EvaluatedPtr& x : shard_offered) {
      BoxCoord bx = BoxOf(x->obj, kEps);
      bool covered = false;
      for (const ParetoArchive::Entry& e : merged.entries()) {
        if (BoxDominatesOrEqual(e.box, bx)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered);
    }
  }
}

TEST(ConcurrentParetoArchiveTest, EntriesViewMatchesAllocatingAccessor) {
  ParetoArchive archive(0.1);
  archive.Update(MakePoint(1, 8));
  archive.Update(MakePoint(8, 1));
  ASSERT_EQ(archive.entries().size(), archive.Entries().size());
  for (const ParetoArchive::Entry& e : archive.entries()) {
    EXPECT_EQ(e.box, BoxOf(e.instance->obj, archive.epsilon()));
  }
}

}  // namespace
}  // namespace fairsqg
