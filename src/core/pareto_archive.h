#ifndef FAIRSQG_CORE_PARETO_ARCHIVE_H_
#define FAIRSQG_CORE_PARETO_ARCHIVE_H_

#include <cstdint>
#include <vector>

#include "core/evaluated.h"

namespace fairsqg {

/// Which case of procedure Update (Fig. 5) an instance triggered.
enum class UpdateOutcome {
  /// Case 1: the instance's box dominates existing boxes; they were evicted.
  kReplacedBoxes,
  /// Case 2: same box as an existing member and ranks above it; swapped in.
  kReplacedInstance,
  /// Case 2: same box as an existing member that ranks at least as high;
  /// dropped.
  kRejectedSameBox,
  /// Case 3: a new non-dominated box; added.
  kAddedNewBox,
  /// An existing member's box dominates the instance's box; dropped.
  kRejectedDominated,
};

/// \brief The order that picks a box's representative: a ranks above b iff
/// (δ, f) of a is lexicographically greater, or equal and a's
/// instantiation is smaller. It extends Pareto dominance (a dominating
/// instance always ranks above) and is total over distinct instantiations.
inline bool RanksAbove(const EvaluatedInstance& a, const EvaluatedInstance& b) {
  if (a.obj.diversity != b.obj.diversity) {
    return a.obj.diversity > b.obj.diversity;
  }
  if (a.obj.coverage != b.obj.coverage) return a.obj.coverage > b.obj.coverage;
  return a.inst < b.inst;
}

/// True if the outcome left the instance in the archive.
inline bool Accepted(UpdateOutcome outcome) {
  return outcome == UpdateOutcome::kReplacedBoxes ||
         outcome == UpdateOutcome::kReplacedInstance ||
         outcome == UpdateOutcome::kAddedNewBox;
}

/// \brief The ε-Pareto archive maintained by procedure Update (Section IV,
/// Fig. 5), extending Laumanns et al.'s box archiving.
///
/// The bi-objective space is discretized into boxes of the log-scale boxing
/// coordinates; the archive keeps exactly one representative instance per
/// non-dominated box. The representative is the box's highest-ranked
/// instance (RanksAbove): lexicographic (δ, f), then the smaller
/// Instantiation. That order extends Pareto dominance and is total, so the
/// archive depends only on the set of instances offered, not on their order
/// — a parallel run's per-worker archives merge to the same archive
/// whatever the scheduling. Invariant (provable, and asserted by the property
/// tests): for every instance ever offered to Update there is a current
/// member whose box dominates-or-equals its box — hence a member that
/// ε-dominates it — and the member count is bounded by the number of boxes
/// along an antichain, ≤ log(1+max δ)/log(1+ε) + log(1+C)/log(1+ε).
class ParetoArchive {
 public:
  /// A member plus its cached boxing coordinates (computed with the
  /// archive's current ε, so box-level checks need not recompute BoxOf).
  struct Entry {
    EvaluatedPtr instance;
    BoxCoord box;
  };

  explicit ParetoArchive(double epsilon);

  /// Applies procedure Update for a feasible instance.
  UpdateOutcome Update(EvaluatedPtr q);

  /// Dry-run: which case Update *would* take, without modifying anything.
  UpdateOutcome Classify(const EvaluatedInstance& q) const;

  /// Offers every member of `other` (same ε) to Update. Folding per-worker
  /// archives this way is sound: each box-dominates what its worker saw,
  /// and Update preserves box dominance transitively, so the result
  /// ε-covers the union. Update is order-independent, so it also equals
  /// the archive of the union offered sequentially, member for member.
  void Merge(const ParetoArchive& other);

  /// Current members (box representatives), unordered. Allocates a vector
  /// of shared_ptr copies; hot paths should iterate `entries()` instead.
  std::vector<EvaluatedPtr> Entries() const;

  /// Non-allocating view of the members with their cached boxes — the
  /// accessor for per-verification scans (Classify-style dry runs,
  /// nearest-neighbour searches).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Members sorted by descending diversity (ties: ascending coverage; two
  /// members never share both, since they would share a box).
  std::vector<EvaluatedPtr> SortedEntries() const;

  /// True when the archive already ε-dominates every instance a subtree
  /// rooted at a parent with diversity `max_diversity` can produce
  /// (children only lose diversity, and coverage never exceeds
  /// `max_coverage`, the total constraint C). RfQGen and BiQGen skip such a
  /// parent's refinements.
  ///
  /// The check is at box level: a member whose box dominates-or-equals the
  /// bound's box keeps covering the subtree across later archive
  /// replacements (replacements preserve box dominance), whereas a raw
  /// value-level ε-dominance check would degrade to 2ε under replacement.
  bool SubtreeCovered(double max_diversity, double max_coverage) const;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  double epsilon() const { return epsilon_; }

  /// Raises ε (OnlineQGen line 16) and re-boxes all members; members whose
  /// coarsened boxes now collide or dominate are merged, keeping each box's
  /// highest-ranked representative. ε may only grow (Lemma 4).
  void SetEpsilon(double epsilon);

  /// Removes a specific member (OnlineQGen replacement); no-op if absent.
  void Remove(const EvaluatedPtr& q);

  /// Best (max) diversity and coverage among members; zeros when empty.
  Objectives BestObjectives() const;

 private:
  double epsilon_;
  std::vector<Entry> entries_;
};

/// \brief Determinism fingerprint of an archive: a hash of its members,
/// sorted by instantiation, over each member's instantiation, the bit
/// patterns of (δ, f) and its match set. Equal archives — whatever their
/// order, thread count or verification path — give equal fingerprints.
/// GenStats is left out: its cache and timing counters vary between
/// runs that produce the same archive.
uint64_t ArchiveFingerprint(const std::vector<EvaluatedPtr>& archive);

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_PARETO_ARCHIVE_H_
