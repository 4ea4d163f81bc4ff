#ifndef FAIRSQG_QUERY_INSTANTIATION_H_
#define FAIRSQG_QUERY_INSTANTIATION_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "query/domains.h"
#include "query/query_template.h"

namespace fairsqg {

/// Wildcard binding '_' of a range variable (predicate dropped).
inline constexpr int32_t kWildcardBinding = -1;

/// \brief A total binding `I` of a template's variables (Section II).
///
/// Range variables are bound by an index into their VariableDomains value
/// list (relaxed -> refined order) or by kWildcardBinding. Edge variables
/// are bound to 0 (edge absent) or 1 (edge present). Both live in one
/// array — range bindings first, then edge bindings — stored inline for
/// up to kInlineBindings variables and in one heap block beyond that, so
/// the common instantiation is 16 bytes and allocates nothing: archives,
/// visited sets and work queues hold many of them.
class Instantiation {
 public:
  static constexpr size_t kInlineBindings = 3;

  Instantiation() = default;
  Instantiation(const std::vector<int32_t>& range_bindings,
                const std::vector<uint8_t>& edge_bindings);
  Instantiation(const Instantiation& other) { CopyFrom(other); }
  Instantiation(Instantiation&& other) noexcept { StealFrom(&other); }
  Instantiation& operator=(const Instantiation& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }
  Instantiation& operator=(Instantiation&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(&other);
    }
    return *this;
  }
  ~Instantiation() { Release(); }

  /// The most relaxed instantiation (lattice root q_r): every range
  /// variable wildcarded, every optional edge absent.
  static Instantiation MostRelaxed(const QueryTemplate& tmpl);

  /// The most refined instantiation (lattice bottom q_b): every range
  /// variable at its last domain index, every optional edge present.
  /// Variables with empty domains stay wildcarded (no constant to bind).
  static Instantiation MostRefined(const QueryTemplate& tmpl,
                                   const VariableDomains& domains);

  size_t num_range_vars() const { return num_range_; }
  size_t num_edge_vars() const { return size_ - num_range_; }

  int32_t range_binding(RangeVarId x) const { return data()[x]; }
  bool is_wildcard(RangeVarId x) const {
    return data()[x] == kWildcardBinding;
  }
  uint8_t edge_binding(EdgeVarId x) const {
    return static_cast<uint8_t>(data()[num_range_ + x]);
  }

  void set_range_binding(RangeVarId x, int32_t index) { data()[x] = index; }
  void set_edge_binding(EdgeVarId x, uint8_t value) {
    data()[num_range_ + x] = value;
  }

  /// \brief Refinement preorder `this >= other` (Section IV): every range
  /// variable of `this` is at least as selective as in `other`, and every
  /// edge present in `other` is present in `this`.
  bool Refines(const Instantiation& other) const;

  /// Strict refinement: Refines(other) and the bindings differ.
  bool StrictlyRefines(const Instantiation& other) const {
    return *this != other && Refines(other);
  }

  bool operator==(const Instantiation& other) const;
  bool operator!=(const Instantiation& other) const { return !(*this == other); }

  /// Canonical total order: by variable counts, then the bindings
  /// lexicographically (range bindings first). Breaks exact objective ties
  /// between archive candidates (ParetoArchive).
  bool operator<(const Instantiation& other) const;

  /// Stable hash for visited-set deduplication.
  uint64_t Hash() const;

  /// E.g. "[x0=10 x1=_ | e0=1 e1=0]" with values resolved via `domains`.
  std::string ToString(const QueryTemplate& tmpl,
                       const VariableDomains& domains) const;

  struct Hasher {
    size_t operator()(const Instantiation& i) const {
      return static_cast<size_t>(i.Hash());
    }
  };

 private:
  bool on_heap() const { return size_ > kInlineBindings; }
  /// The heap block, whose address words_ holds when on_heap(). It is
  /// copied out bytewise: words_ is only 4-byte aligned.
  int32_t* heap() const {
    int32_t* block;
    std::memcpy(&block, words_, sizeof(block));
    return block;
  }
  int32_t* data() { return on_heap() ? heap() : words_; }
  const int32_t* data() const { return on_heap() ? heap() : words_; }

  /// Sets the sizes and, past the inline capacity, allocates the heap
  /// block; the bindings are left unset. Requires a released instance.
  void Allocate(size_t size, size_t num_range);
  void CopyFrom(const Instantiation& other);
  void StealFrom(Instantiation* other);
  void Release();

  int32_t words_[kInlineBindings] = {};  // The bindings, or heap().
  uint16_t size_ = 0;                    // Range bindings, then edge bindings.
  uint16_t num_range_ = 0;
  static_assert(sizeof(int32_t*) <= sizeof(words_));
};

}  // namespace fairsqg

#endif  // FAIRSQG_QUERY_INSTANTIATION_H_
