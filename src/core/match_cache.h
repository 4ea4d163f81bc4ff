#ifndef FAIRSQG_CORE_MATCH_CACHE_H_
#define FAIRSQG_CORE_MATCH_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "graph/types.h"
#include "query/instance.h"

namespace fairsqg {

/// \brief Sharded, thread-safe LRU cache from canonical query-instance
/// signatures to match sets q(G).
///
/// Distinct instantiations frequently materialize to the *same* query
/// instance (a wildcard on a node outside u_o's component, an edge toggle
/// that never changes the active component, or lattice paths meeting at a
/// common descendant), and the generation algorithms re-verify such
/// duplicates from different lattice directions. The cache keys on the
/// canonical signature of the materialized instance — the edge-variable
/// assignment plus every bound literal with its full value payload — so two
/// instantiations hit iff they denote the same instance. Keys are compared
/// as exact byte strings (never by hash alone): a hash collision can cost a
/// false miss shard-internally but can never return a wrong match set.
///
/// One cache is valid for a fixed configuration (graph, template, domains,
/// matching semantics); create one per QGenConfig. Sharding: a key hashes
/// to one of `num_shards` independently locked LRU lists, so parallel
/// workers contend only when touching the same shard. The byte budget
/// (`capacity_bytes`, split evenly across shards) counts key bytes plus
/// stored node ids plus a fixed per-entry overhead; least-recently used
/// entries are evicted per shard when its budget is exceeded.
///
/// Consulting the cache replaces only the subgraph-matcher invocation; the
/// measure pipeline consumes the cached set exactly as it would a freshly
/// computed one, so results are byte-identical with the cache on or off.
class MatchSetCache {
 public:
  struct Options {
    /// Total byte budget across all shards; must be non-zero (a zero
    /// budget would silently admit nothing — reject it instead).
    size_t capacity_bytes = size_t{64} << 20;
    /// Rounded up to a power of two; 1 disables sharding; must be
    /// non-zero.
    size_t num_shards = 16;
  };

  /// Rejects degenerate configurations (zero byte budget, zero shards)
  /// with kInvalidArgument instead of constructing a cache that caches
  /// nothing or divides by zero.
  static Status ValidateOptions(const Options& options);

  /// Validating factory: the preferred way to build a cache from
  /// user-supplied options (CLI flags, config files).
  static Result<std::unique_ptr<MatchSetCache>> Create(Options options);

  MatchSetCache() : MatchSetCache(Options()) {}
  /// CHECK-fails on options that ValidateOptions rejects; use Create for
  /// untrusted input.
  explicit MatchSetCache(Options options);
  MatchSetCache(const MatchSetCache&) = delete;
  MatchSetCache& operator=(const MatchSetCache&) = delete;

  /// Canonical byte signature of a materialized instance: edge-variable
  /// assignment plus every node's bound literals (attr, op, typed value).
  static std::string KeyFor(const QueryInstance& q);

  /// On hit, copies the cached match set into `*out` (sorted ascending,
  /// exactly as stored) and refreshes recency. Thread-safe.
  bool Lookup(const std::string& key, NodeSet* out);

  /// Inserts or refreshes `key -> matches`. Entries larger than a whole
  /// shard's budget are not admitted. Thread-safe.
  void Insert(const std::string& key, const NodeSet& matches);

  /// Point-in-time aggregate of the cache's own state over all shards.
  /// Hits and misses are counted per verifier and reported in GenStats.
  struct CacheStats {
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };
  CacheStats GetStats() const;

  size_t num_shards() const { return num_shards_; }
  size_t capacity_bytes() const { return shard_capacity_ * num_shards_; }

 private:
  struct Entry {
    std::string key;
    NodeSet matches;
    size_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // Front = most recently used.
    // Views point at Entry::key; std::list nodes never relocate.
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    size_t bytes = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(const std::string& key);

  size_t num_shards_ = 1;
  size_t shard_capacity_ = 0;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_MATCH_CACHE_H_
