#ifndef FAIRSQG_MATCHING_BRUTE_FORCE_H_
#define FAIRSQG_MATCHING_BRUTE_FORCE_H_

#include "matching/candidate_space.h"
#include "matching/subgraph_matcher.h"

namespace fairsqg {

/// \brief Reference implementation of output-node matching.
///
/// Enumerates every assignment of data nodes to the active query nodes —
/// injective ones only under isomorphism — and checks all labels, literals,
/// and edges directly. Exponential; only for cross-validating
/// SubgraphMatcher and LatticeIndex in tests and for tiny graphs.
NodeSet BruteForceMatchOutput(
    const Graph& g, const QueryInstance& q,
    MatchSemantics semantics = MatchSemantics::kIsomorphism);

}  // namespace fairsqg

#endif  // FAIRSQG_MATCHING_BRUTE_FORCE_H_
