#ifndef FAIRSQG_CORE_LATTICE_VERIFY_H_
#define FAIRSQG_CORE_LATTICE_VERIFY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/enumerate.h"
#include "core/evaluated.h"
#include "core/stats.h"
#include "core/verifier.h"

namespace fairsqg {

/// Largest instance space the lattice path walks: it lists every instance
/// by lattice level up front. Larger spaces keep the per-instance odometer.
inline constexpr uint64_t kMaxLatticeInstances = uint64_t{1} << 20;

/// True when the generators verify `config`'s instance space from one
/// LatticeIndex (EnumQGen, ParallelQGen, RfQGen, BiQGen, Kungs and CBM):
/// the domain levels fit the index's coordinates (LatticeIndex::Supports)
/// and |I(Q)| <= kMaxLatticeInstances. The template's shape does not
/// matter: a cyclic one is evaluated over a spanning tree. Otherwise they
/// fall back to per-instance verification. This file's drivers make the
/// choice; no generator does.
bool LatticeApplies(const QGenConfig& config);

/// \brief Verifies the whole instance space from one LatticeIndex pass
/// (DESIGN.md §14); the one driver of EnumQGen and ParallelQGen, and,
/// through EvaluateLattice, of RfQGen, BiQGen, Kungs and CBM.
///
/// Instances are visited by lattice level, most refined level first, and
/// in descending odometer rank within a level, so every instance's
/// immediate refinements are settled before it. Each instance x gets
///   I_x = known ∪ (the nodes of (F_x ∪ ⋃ D_c) \ known that match),
/// where c ranges over x's immediate refinements, known = ⋃ I_c, F_x is
/// x's frontier and D_c = H_c \ I_c the candidates that failed at c. Only
/// that remainder reaches the matcher (InstanceVerifier::VerifyPartial);
/// on a tree template under homomorphism the frontier needs no
/// certification at all. The sets are exact under both semantics and for
/// any template shape (I_x ⊆ H_x, and both are monotone by Lemma 2; a
/// cyclic template's H_x comes from a spanning tree, a superset). An
/// instance whose match aborted counts as I = ∅, D = H, so its
/// relaxations test every candidate it left open.
///
/// With a pool, the LatticeIndex pass is one ThreadPool::Run round and
/// the walk another: worker w claims the level's instances from a shared
/// cursor and verifies them with verifiers[w], and the workers meet at a
/// spinning barrier between levels, whose last arrival opens the next
/// level; without a pool, both run inline. Every claim polls the
/// RunContext under the cursor's lock, so a budget cuts the run at an
/// exact instance count, in this order.
/// The sets do not depend on which worker verified what.
///
/// Fills stats->generated, verified, feasible and deadline_exceeded, and
/// folds the verifiers (FoldVerifierStats); with a pool, also their
/// per-worker seconds and `enqueued` (the instances dispatched). The
/// verify axes are the verifiers' time alone; the pass shows as the
/// `lattice_index.build` span and in total_seconds. A pass stopped by hard
/// expiry verifies nothing.
void VerifyLattice(const QGenConfig& config, ThreadPool* pool,
                   std::span<InstanceVerifier* const> verifiers,
                   const InstanceSink& sink, GenStats* stats);

/// The one driver of EnumQGen and ParallelQGen: VerifyLattice when
/// LatticeApplies(config), else the per-instance odometer (VerifyOdometer),
/// under their shared contract.
void VerifyEveryInstance(const QGenConfig& config, ThreadPool* pool,
                         std::span<InstanceVerifier* const> verifiers,
                         const InstanceSink& sink, GenStats* stats);

/// The rank of `inst` in the odometer order of InstantiationEnumerator and
/// LatticeIndex: range variable 0 is the fastest digit, a range digit is
/// its binding + 1 (0 is the wildcard), an edge digit its binding.
uint64_t OdometerRank(const QueryTemplate& tmpl, const VariableDomains& domains,
                      const Instantiation& inst);

/// Every instance's evaluation from one VerifyLattice run with `pool` and
/// `verifiers`, indexed by OdometerRank. An entry is null when the run
/// settled no evaluation for it: the run stopped before its level (the
/// most refined levels are settled first), or its match aborted. The
/// entries do not depend on the pool. Requires LatticeApplies(config);
/// fills `stats` as VerifyLattice does. The evaluations of RfQGen, BiQGen,
/// Kungs and CBM.
std::vector<EvaluatedPtr> EvaluateLattice(
    const QGenConfig& config, ThreadPool* pool,
    std::span<InstanceVerifier* const> verifiers, GenStats* stats);

/// Every verified instance of I(Q), in odometer order: from EvaluateLattice
/// when LatticeApplies(config), else from the per-instance odometer
/// (VerifyAllInstances). Fills `stats` like either, and applies the
/// expiry policy. The instance space of Kungs and CBM.
Result<std::vector<EvaluatedPtr>> VerifyInstanceSpace(const QGenConfig& config,
                                                      InstanceVerifier* verifier,
                                                      GenStats* stats);

/// \brief The evaluations RfQGen's and BiQGen's searches read (DESIGN.md
/// §14.3): when LatticeApplies(config), one EvaluateLattice pass with
/// `verifiers` on `pool` (which may be null), run by the constructor;
/// otherwise a verification from scratch by verifiers[0] per instance.
class SearchEvaluations {
 public:
  SearchEvaluations(const QGenConfig& config, ThreadPool* pool,
                    std::span<InstanceVerifier* const> verifiers);

  /// The RunContext check before the search consumes an instance: polls a
  /// verification per instance, or, after a pass (which polled already),
  /// checks hard expiry. True when the search must stop.
  bool ShouldStop() const;

  /// Null when the match aborted, or a pass cut short did not settle it.
  EvaluatedPtr Evaluate(const Instantiation& inst);

  /// Folds the verifiers into `stats` once, after the search, with the
  /// pass's per-worker seconds and `enqueued`; sets deadline_exceeded when
  /// the pass or the RunContext expired. The search counts `generated`,
  /// `verified` and `feasible` itself.
  void FoldInto(GenStats* stats) const;

 private:
  const QGenConfig& config_;
  std::span<InstanceVerifier* const> verifiers_;
  /// By OdometerRank after a pass; empty on the per-instance path.
  std::vector<EvaluatedPtr> lattice_;
  GenStats pass_;  // The pass's own; its counts are not the search's.
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_LATTICE_VERIFY_H_
