#include "core/match_cache.h"

#include <cstring>
#include <functional>

#include "common/fault_injection.h"
#include "common/logging.h"

namespace fairsqg {

namespace {

/// Fixed accounting overhead per entry (list/map node bookkeeping).
constexpr size_t kEntryOverhead = 64;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

template <typename T>
void AppendPod(std::string* out, T v) {
  AppendRaw(out, &v, sizeof(v));
}

void AppendValue(std::string* out, const AttrValue& v) {
  if (v.is_int()) {
    out->push_back('i');
    AppendPod(out, v.as_int());
  } else if (v.is_double()) {
    out->push_back('d');
    AppendPod(out, v.as_double());
  } else {
    out->push_back('s');
    const std::string& s = v.as_string();
    AppendPod(out, static_cast<uint32_t>(s.size()));
    AppendRaw(out, s.data(), s.size());
  }
}

size_t EntryBytes(const std::string& key, const NodeSet& matches) {
  return key.size() + matches.size() * sizeof(NodeId) + kEntryOverhead;
}

}  // namespace

Status MatchSetCache::ValidateOptions(const Options& options) {
  if (options.capacity_bytes == 0) {
    return Status::InvalidArgument(
        "MatchSetCache capacity_bytes must be non-zero (a zero budget "
        "admits no entries; disable the cache instead)");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("MatchSetCache num_shards must be non-zero");
  }
  return Status::OK();
}

Result<std::unique_ptr<MatchSetCache>> MatchSetCache::Create(Options options) {
  FAIRSQG_RETURN_NOT_OK(ValidateOptions(options));
  return std::make_unique<MatchSetCache>(options);
}

MatchSetCache::MatchSetCache(Options options) {
  Status valid = ValidateOptions(options);
  FAIRSQG_CHECK(valid.ok()) << valid.ToString();
  num_shards_ = RoundUpPow2(options.num_shards);
  shard_capacity_ = options.capacity_bytes / num_shards_;
  shards_ = std::make_unique<Shard[]>(num_shards_);
}

std::string MatchSetCache::KeyFor(const QueryInstance& q) {
  const Instantiation& inst = q.instantiation();
  std::string key;
  // Fault site: allocation throttling — a kFail skips the size hint; the
  // key bytes (and hence every lookup) are unchanged.
  if (!FAIRSQG_FAULT_POINT("cache.reserve")) {
    key.reserve(16 + inst.num_edge_vars() +
                q.tmpl().literals().size() * (sizeof(AttrId) + 10));
  }
  // Edge-variable assignment (determines the active component and edges).
  for (EdgeVarId x = 0; x < inst.num_edge_vars(); ++x) {
    key.push_back(static_cast<char>(inst.edge_binding(x)));
  }
  key.push_back('|');
  // Bound literals per node, in template order, with full value payloads.
  for (QNodeId u = 0; u < q.tmpl().num_nodes(); ++u) {
    const std::vector<BoundLiteral>& lits = q.literals_of(u);
    if (lits.empty()) continue;
    key.push_back('N');
    AppendPod(&key, u);
    for (const BoundLiteral& l : lits) {
      AppendPod(&key, l.attr);
      key.push_back(static_cast<char>(l.op));
      AppendValue(&key, l.value);
    }
  }
  return key;
}

MatchSetCache::Shard& MatchSetCache::ShardFor(const std::string& key) {
  size_t h = std::hash<std::string_view>{}(std::string_view(key));
  return shards_[h & (num_shards_ - 1)];
}

bool MatchSetCache::Lookup(const std::string& key, NodeSet* out) {
  // Fault site: a kFail turns this lookup into a miss — the verifier must
  // recompute and produce byte-identical results (cache transparency).
  if (FAIRSQG_FAULT_POINT("cache.lookup")) return false;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(std::string_view(key));
  if (it == shard.index.end()) return false;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->matches;
  return true;
}

void MatchSetCache::Insert(const std::string& key, const NodeSet& matches) {
  // Fault site: a kFail simulates an admission failure (entry dropped).
  // Callers never depend on insertion succeeding.
  if (FAIRSQG_FAULT_POINT("cache.insert")) return;
  const size_t bytes = EntryBytes(key, matches);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(std::string_view(key));
  if (it != shard.index.end()) {
    // Raced re-computation of the same instance: refresh recency only (the
    // stored set is identical by construction).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (bytes > shard_capacity_) return;  // Never admissible; skip.
  shard.lru.push_front(Entry{key, matches, bytes});
  shard.index.emplace(std::string_view(shard.lru.front().key),
                      shard.lru.begin());
  shard.bytes += bytes;
  ++shard.insertions;
  while (shard.bytes > shard_capacity_) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(std::string_view(victim.key));
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

MatchSetCache::CacheStats MatchSetCache::GetStats() const {
  CacheStats total;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
    total.entries += shard.lru.size();
    total.bytes += shard.bytes;
  }
  return total;
}

}  // namespace fairsqg
