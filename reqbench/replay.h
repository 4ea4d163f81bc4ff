// Layer replay for the traced run.
//
// The generators do their work inside the library, where this benchmark
// places no spans. To attribute a request's cost to layers, the replay
// re-drives the request's whole instance space in InstantiationEnumerator
// order through the same public calls the verifier makes — candidate
// build, match, diversity, coverage, refinement hints, archive update —
// with one span per call. Replay time never enters an end-to-end metric.

#ifndef FAIRSQG_REQBENCH_REPLAY_H_
#define FAIRSQG_REQBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>

#include "core/config.h"
#include "spans.h"

namespace fairsqg::reqbench {

/// Work counts of one replay, summed over its instances.
struct ReplayCounts {
  size_t instances = 0;
  size_t candidates_calls = 0;
  size_t match_calls = 0;
  size_t output_nodes = 0;  ///< Σ |q(G)|.
  size_t diversity_calls = 0;
  /// Σ |q(G)|(|q(G)|-1)/2 over calls that evaluate pairs (λ > 0).
  double diversity_pairs = 0;
  size_t hints_calls = 0;
  size_t archive_updates = 0;
  size_t archive_accepts = 0;

  void Add(const ReplayCounts& other);
};

/// Replays `config`'s instance space under a "replay" span. Refinement
/// hints are computed for feasible instances only when `with_hints` (the
/// generators that spawn through template refinement).
ReplayCounts ReplayRequest(const QGenConfig& config, bool with_hints,
                           SpanRecorder* spans, uint64_t request);

}  // namespace fairsqg::reqbench

#endif  // FAIRSQG_REQBENCH_REPLAY_H_
