// Output check for one request of the benchmark.

#ifndef FAIRSQG_REQBENCH_CHECK_H_
#define FAIRSQG_REQBENCH_CHECK_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/evaluated.h"

namespace fairsqg::reqbench {

/// What the check keeps of a returned archive member: enough to verify it
/// later without holding its match set, so that stored results do not
/// inflate the process's peak memory.
struct MemberDigest {
  Instantiation inst;
  Objectives obj;
  bool feasible = false;
  uint64_t matches_hash = 0;
};

/// Order-sensitive hash of a sorted node set.
uint64_t HashNodes(const NodeSet& nodes);

std::vector<MemberDigest> DigestArchive(const std::vector<EvaluatedPtr>& archive);

/// The reference archive of a request: serial EnumQGen over the full
/// instance space with template refinement and incVerify off.
Result<std::vector<EvaluatedPtr>> ReferenceArchive(QGenConfig config);

/// Checks a returned archive against `config`'s inputs. Every member must
/// be feasible, its match set must hash like a fresh
/// SubgraphMatcher::MatchOutput, and its stored (δ, f) must agree within
/// 1e-9 relative with δ recomputed pair by pair from the public
/// DiversityEvaluator::Distance/Relevance and f from
/// CoverageEvaluator::Evaluate. The archive must also ε-cover (ε + 1e-9)
/// every member of `reference`. Returns an empty string when all holds,
/// else the first violation.
std::string CheckArchive(const QGenConfig& config,
                         const std::vector<MemberDigest>& archive,
                         const std::vector<EvaluatedPtr>& reference);

}  // namespace fairsqg::reqbench

#endif  // FAIRSQG_REQBENCH_CHECK_H_
