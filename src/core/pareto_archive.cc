#include "core/pareto_archive.h"

#include <algorithm>
#include <bit>

#include "common/hash.h"
#include "common/logging.h"

namespace fairsqg {

ParetoArchive::ParetoArchive(double epsilon) : epsilon_(epsilon) {
  FAIRSQG_CHECK(epsilon > 0) << "epsilon must be positive";
}

UpdateOutcome ParetoArchive::Classify(const EvaluatedInstance& q) const {
  BoxCoord box = BoxOf(q.obj, epsilon_);
  bool any_dominated = false;
  for (const Entry& e : entries_) {
    if (BoxDominates(box, e.box)) {
      any_dominated = true;
    } else if (e.box == box) {
      return RanksAbove(q, *e.instance) ? UpdateOutcome::kReplacedInstance
                                        : UpdateOutcome::kRejectedSameBox;
    } else if (BoxDominates(e.box, box)) {
      return UpdateOutcome::kRejectedDominated;
    }
  }
  return any_dominated ? UpdateOutcome::kReplacedBoxes : UpdateOutcome::kAddedNewBox;
}

bool ParetoArchive::SubtreeCovered(double max_diversity,
                                   double max_coverage) const {
  BoxCoord bound = BoxOf({max_diversity, max_coverage}, epsilon_);
  // The cached per-entry boxes make this a non-allocating scan on the
  // feasible-verification hot path.
  for (const Entry& e : entries_) {
    if (BoxDominatesOrEqual(e.box, bound)) return true;
  }
  return false;
}

UpdateOutcome ParetoArchive::Update(EvaluatedPtr q) {
  BoxCoord box = BoxOf(q->obj, epsilon_);

  // Case 1 scan: boxes strictly dominated by Box(q).
  std::vector<size_t> dominated;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (BoxDominates(box, entries_[i].box)) dominated.push_back(i);
  }
  if (!dominated.empty()) {
    // Remove all dominated representatives; add q.
    for (size_t k = dominated.size(); k-- > 0;) {
      entries_[dominated[k]] = entries_.back();
      entries_.pop_back();
    }
    entries_.push_back({std::move(q), box});
    return UpdateOutcome::kReplacedBoxes;
  }

  // Case 2: q falls into an occupied box; keep the higher-ranked instance.
  for (Entry& e : entries_) {
    if (e.box == box) {
      if (RanksAbove(*q, *e.instance)) {
        e.instance = std::move(q);
        return UpdateOutcome::kReplacedInstance;
      }
      return UpdateOutcome::kRejectedSameBox;
    }
  }

  // Case 3: add q unless an existing box dominates it.
  for (const Entry& e : entries_) {
    if (BoxDominates(e.box, box)) return UpdateOutcome::kRejectedDominated;
  }
  entries_.push_back({std::move(q), box});
  return UpdateOutcome::kAddedNewBox;
}

void ParetoArchive::Merge(const ParetoArchive& other) {
  FAIRSQG_CHECK(other.epsilon_ == epsilon_) << "Merge needs equal epsilon";
  for (const Entry& e : other.entries_) Update(e.instance);
}

std::vector<EvaluatedPtr> ParetoArchive::Entries() const {
  std::vector<EvaluatedPtr> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.instance);
  return out;
}

std::vector<EvaluatedPtr> ParetoArchive::SortedEntries() const {
  std::vector<EvaluatedPtr> out = Entries();
  std::sort(out.begin(), out.end(), [](const EvaluatedPtr& a, const EvaluatedPtr& b) {
    if (a->obj.diversity != b->obj.diversity) {
      return a->obj.diversity > b->obj.diversity;
    }
    return a->obj.coverage < b->obj.coverage;
  });
  return out;
}

void ParetoArchive::SetEpsilon(double epsilon) {
  FAIRSQG_CHECK(epsilon >= epsilon_) << "epsilon may only grow (Lemma 4)";
  if (epsilon == epsilon_) return;
  epsilon_ = epsilon;
  // Re-box all members and re-insert through Update to restore the
  // one-representative-per-box antichain invariant under the coarser grid.
  std::vector<Entry> old = std::move(entries_);
  entries_.clear();
  for (Entry& e : old) Update(std::move(e.instance));
}

void ParetoArchive::Remove(const EvaluatedPtr& q) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].instance == q) {
      entries_[i] = entries_.back();
      entries_.pop_back();
      return;
    }
  }
}

Objectives ParetoArchive::BestObjectives() const {
  Objectives best;
  for (const Entry& e : entries_) {
    best.diversity = std::max(best.diversity, e.instance->obj.diversity);
    best.coverage = std::max(best.coverage, e.instance->obj.coverage);
  }
  return best;
}

uint64_t ArchiveFingerprint(const std::vector<EvaluatedPtr>& archive) {
  std::vector<const EvaluatedInstance*> members;
  members.reserve(archive.size());
  for (const EvaluatedPtr& e : archive) members.push_back(e.get());
  std::sort(members.begin(), members.end(),
            [](const EvaluatedInstance* a, const EvaluatedInstance* b) {
              return a->inst < b->inst;
            });
  uint64_t h = Mix64(members.size());
  for (const EvaluatedInstance* m : members) {
    HashCombine(&h, m->inst.Hash());
    HashCombine(&h, std::bit_cast<uint64_t>(m->obj.diversity));
    HashCombine(&h, std::bit_cast<uint64_t>(m->obj.coverage));
    uint64_t matches = Mix64(m->matches.size());
    for (NodeId v : m->matches) HashCombine(&matches, Mix64(v));
    HashCombine(&h, matches);
  }
  return h;
}

}  // namespace fairsqg
