#include "core/match_cache.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bi_qgen.h"
#include "core/enum_qgen.h"
#include "core/kungs.h"
#include "core/parallel_qgen.h"
#include "core/rf_qgen.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

NodeSet Nodes(std::initializer_list<NodeId> ids) { return NodeSet(ids); }

TEST(MatchSetCacheTest, LookupReturnsInsertedSet) {
  MatchSetCache cache;
  NodeSet out;
  EXPECT_FALSE(cache.Lookup("k1", &out));
  cache.Insert("k1", Nodes({3, 7, 9}));
  ASSERT_TRUE(cache.Lookup("k1", &out));
  EXPECT_EQ(out, Nodes({3, 7, 9}));
  EXPECT_FALSE(cache.Lookup("k2", &out));
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(MatchSetCacheTest, CreateRejectsZeroByteBudget) {
  MatchSetCache::Options options;
  options.capacity_bytes = 0;
  Result<std::unique_ptr<MatchSetCache>> cache = MatchSetCache::Create(options);
  ASSERT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cache.status().message().find("capacity_bytes"), std::string::npos);
}

TEST(MatchSetCacheTest, CreateRejectsZeroShards) {
  MatchSetCache::Options options;
  options.num_shards = 0;
  Result<std::unique_ptr<MatchSetCache>> cache = MatchSetCache::Create(options);
  ASSERT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cache.status().message().find("num_shards"), std::string::npos);
}

TEST(MatchSetCacheTest, CreateAcceptsValidOptions) {
  MatchSetCache::Options options;
  options.capacity_bytes = 1 << 20;
  options.num_shards = 3;  // Rounded up to the next power of two.
  Result<std::unique_ptr<MatchSetCache>> cache = MatchSetCache::Create(options);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_EQ((*cache)->num_shards(), 4u);
  NodeSet out;
  (*cache)->Insert("k", Nodes({1, 2}));
  EXPECT_TRUE((*cache)->Lookup("k", &out));
}

MatchSetCache::Options TinyOptions(size_t capacity_bytes) {
  MatchSetCache::Options options;
  options.capacity_bytes = capacity_bytes;
  options.num_shards = 1;  // Single shard: eviction order is observable.
  return options;
}

TEST(MatchSetCacheTest, EvictsLeastRecentlyUsedWithinByteBudget) {
  // Each entry costs key(2) + 1 node id(4) + overhead(64) = 70 bytes; a
  // 150-byte budget holds two entries.
  MatchSetCache cache(TinyOptions(150));
  cache.Insert("k1", Nodes({1}));
  cache.Insert("k2", Nodes({2}));
  NodeSet out;
  ASSERT_TRUE(cache.Lookup("k1", &out));  // k1 now most recent.
  cache.Insert("k3", Nodes({3}));         // Evicts k2, the LRU entry.
  EXPECT_TRUE(cache.Lookup("k1", &out));
  EXPECT_FALSE(cache.Lookup("k2", &out));
  EXPECT_TRUE(cache.Lookup("k3", &out));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_LE(cache.GetStats().bytes, 150u);
}

TEST(MatchSetCacheTest, OversizedEntriesAreNotAdmitted) {
  MatchSetCache cache(TinyOptions(80));
  cache.Insert("big", Nodes({1, 2, 3, 4, 5, 6, 7, 8}));  // 64+3+32 > 80.
  NodeSet out;
  EXPECT_FALSE(cache.Lookup("big", &out));
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(MatchSetCacheTest, ReinsertRefreshesRecencyWithoutDuplicating) {
  MatchSetCache cache(TinyOptions(150));
  cache.Insert("k1", Nodes({1}));
  cache.Insert("k2", Nodes({2}));
  cache.Insert("k1", Nodes({1}));  // Refresh, not duplicate.
  EXPECT_EQ(cache.GetStats().entries, 2u);
  cache.Insert("k3", Nodes({3}));  // Now k2 is LRU.
  NodeSet out;
  EXPECT_TRUE(cache.Lookup("k1", &out));
  EXPECT_FALSE(cache.Lookup("k2", &out));
}

TEST(MatchSetCacheTest, KeySeparatesBindingsAndEdges) {
  SmallScenario s;
  auto key = [&](int32_t x0, int32_t x1, uint8_t e0) {
    QueryInstance q = QueryInstance::Materialize(
        *s.tmpl, *s.domains, Instantiation({x0, x1}, {e0}));
    return MatchSetCache::KeyFor(q);
  };
  EXPECT_EQ(key(0, 1, 0), key(0, 1, 0));
  EXPECT_NE(key(0, 1, 0), key(1, 1, 0));  // Different range binding.
  EXPECT_NE(key(0, 1, 0), key(0, 2, 0));
  EXPECT_NE(key(0, 1, 0), key(0, 1, 1));  // Different edge assignment.
  EXPECT_NE(key(kWildcardBinding, 1, 0), key(0, 1, 0));  // Wildcard drop.
}

/// Byte-identical comparison of two result sets: same instantiations in
/// the same order, same match sets, same objective values.
void ExpectIdenticalResults(const QGenResult& a, const QGenResult& b) {
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i]->inst, b.pareto[i]->inst) << "entry " << i;
    EXPECT_EQ(a.pareto[i]->matches, b.pareto[i]->matches) << "entry " << i;
    EXPECT_DOUBLE_EQ(a.pareto[i]->obj.diversity, b.pareto[i]->obj.diversity);
    EXPECT_DOUBLE_EQ(a.pareto[i]->obj.coverage, b.pareto[i]->obj.coverage);
    EXPECT_EQ(a.pareto[i]->feasible, b.pareto[i]->feasible);
  }
  EXPECT_EQ(a.stats.verified, b.stats.verified);
  EXPECT_EQ(a.stats.feasible, b.stats.feasible);
}

/// `consults_cache` is false for the generators that verify a tree
/// template from one LatticeIndex pass (EnumQGen, ParallelQGen, RfQGen,
/// BiQGen, Kungs): they never look the cache up, so only the byte-identity
/// assertions apply.
template <typename RunFn>
void CheckCacheTransparency(RunFn run, bool consults_cache = true) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  QGenResult off = run(config).ValueOrDie();
  EXPECT_EQ(off.stats.cache_hits + off.stats.cache_misses, 0u);

  MatchSetCache cache;
  config.match_cache = &cache;
  QGenResult on = run(config).ValueOrDie();
  ExpectIdenticalResults(off, on);
  EXPECT_EQ(on.stats.cache_hits + on.stats.cache_misses,
            consults_cache ? on.stats.verified : 0u);

  // A second run against the warm cache answers every lookup from memory
  // and still produces byte-identical results.
  QGenResult warm = run(config).ValueOrDie();
  ExpectIdenticalResults(off, warm);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  EXPECT_EQ(warm.stats.cache_hits, consults_cache ? warm.stats.verified : 0u);
}

TEST(MatchCacheEquivalenceTest, EnumQGenIdenticalWithCacheOnOrOff) {
  CheckCacheTransparency([](const QGenConfig& c) { return EnumQGen::Run(c); },
                         /*consults_cache=*/false);
}

TEST(MatchCacheEquivalenceTest, BiQGenIdenticalWithCacheOnOrOff) {
  CheckCacheTransparency([](const QGenConfig& c) { return BiQGen::Run(c); },
                         /*consults_cache=*/false);
}

TEST(MatchCacheEquivalenceTest, RfQGenIdenticalWithCacheOnOrOff) {
  CheckCacheTransparency([](const QGenConfig& c) { return RfQGen::Run(c); },
                         /*consults_cache=*/false);
}

TEST(MatchCacheEquivalenceTest, KungsIdenticalWithCacheOnOrOff) {
  CheckCacheTransparency([](const QGenConfig& c) { return Kungs::Run(c); },
                         /*consults_cache=*/false);
}

TEST(MatchCacheEquivalenceTest, ParallelQGenIdenticalWithCacheOnOrOff) {
  CheckCacheTransparency(
      [](const QGenConfig& c) { return ParallelQGen::Run(c, 4); },
      /*consults_cache=*/false);
}

TEST(MatchCacheEquivalenceTest, ParallelBiQGenIdenticalWithCacheOnOrOff) {
  CheckCacheTransparency(
      [](const QGenConfig& c) { return BiQGen::RunParallel(c, 4); },
      /*consults_cache=*/false);
}

TEST(MatchCacheEquivalenceTest, ScanAndIndexCandidatePathsAgree) {
  SmallScenario s;
  QGenConfig config = s.Config(0.05);
  config.use_candidate_index = true;
  QGenResult indexed = BiQGen::Run(config).ValueOrDie();
  config.use_candidate_index = false;
  QGenResult scanned = BiQGen::Run(config).ValueOrDie();
  ExpectIdenticalResults(indexed, scanned);
}

}  // namespace
}  // namespace fairsqg
