#ifndef FAIRSQG_CORE_MULTI_OUTPUT_H_
#define FAIRSQG_CORE_MULTI_OUTPUT_H_

#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/evaluated.h"
#include "core/qgen_result.h"
#include "matching/subgraph_matcher.h"

namespace fairsqg {

/// \brief Multiple-output-node query generation — the paper's future-work
/// extension (Section VI: "extend our work to multiple output nodes").
///
/// An instance's answer is the *union* of the match sets of all designated
/// output nodes, q(U_o, G) = ∪_{u ∈ U_o} q(u, G); diversity and coverage
/// are evaluated over that union. All designated outputs must carry the
/// same label (the measures' attribute cells and groups are per-label) and
/// every output must lie in the component of the template's primary output
/// node under the full edge set.
///
/// Lemma 2 lifts directly: refinement shrinks every per-node match set,
/// hence their union, so diversity decreases, feasibility is monotonically
/// lost, and the ε-Pareto machinery is unchanged.
class MultiOutputVerifier {
 public:
  /// `outputs` must be non-empty, unique, all with the primary output
  /// node's label.
  static Result<MultiOutputVerifier> Create(const QGenConfig& config,
                                            std::vector<QNodeId> outputs);

  /// Verifies one instantiation under union semantics.
  EvaluatedPtr Verify(const Instantiation& inst);

  const std::vector<QNodeId>& outputs() const { return outputs_; }
  uint64_t num_verified() const { return verify_seq_; }

 private:
  MultiOutputVerifier(const QGenConfig& config, std::vector<QNodeId> outputs);

  const QGenConfig* config_;
  std::vector<QNodeId> outputs_;
  SubgraphMatcher matcher_;
  DiversityEvaluator diversity_;
  CoverageEvaluator coverage_;
  uint64_t verify_seq_ = 0;
};

/// \brief EnumQGen under multi-output union semantics: enumerate I(Q),
/// verify with MultiOutputVerifier, archive with procedure Update. Polls
/// config.run_context before each instance; a run it stops sets
/// deadline_exceeded and follows the expiry policy.
Result<QGenResult> MultiOutputEnumQGen(const QGenConfig& config,
                                       std::vector<QNodeId> outputs);

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_MULTI_OUTPUT_H_
