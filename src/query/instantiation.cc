#include "query/instantiation.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/hash.h"
#include "common/logging.h"

namespace fairsqg {

Instantiation::Instantiation(const std::vector<int32_t>& range_bindings,
                             const std::vector<uint8_t>& edge_bindings) {
  Allocate(range_bindings.size() + edge_bindings.size(), range_bindings.size());
  int32_t* out = std::copy(range_bindings.begin(), range_bindings.end(), data());
  std::copy(edge_bindings.begin(), edge_bindings.end(), out);
}

void Instantiation::Allocate(size_t size, size_t num_range) {
  FAIRSQG_CHECK(size <= std::numeric_limits<uint16_t>::max())
      << "too many template variables: " << size;
  size_ = static_cast<uint16_t>(size);
  num_range_ = static_cast<uint16_t>(num_range);
  if (on_heap()) {
    int32_t* block = new int32_t[size];
    std::memcpy(words_, &block, sizeof(block));
  }
}

void Instantiation::CopyFrom(const Instantiation& other) {
  Allocate(other.size_, other.num_range_);
  std::copy(other.data(), other.data() + size_, data());
}

void Instantiation::StealFrom(Instantiation* other) {
  // The words hold either the bindings or the heap block's address; both
  // move by copying them.
  std::copy(other->words_, other->words_ + kInlineBindings, words_);
  size_ = other->size_;
  num_range_ = other->num_range_;
  other->size_ = 0;
  other->num_range_ = 0;
}

void Instantiation::Release() {
  if (on_heap()) delete[] heap();
  size_ = 0;
  num_range_ = 0;
}

bool Instantiation::operator==(const Instantiation& other) const {
  return num_range_ == other.num_range_ && size_ == other.size_ &&
         std::equal(data(), data() + size_, other.data());
}

bool Instantiation::operator<(const Instantiation& other) const {
  if (num_range_ != other.num_range_) return num_range_ < other.num_range_;
  if (size_ != other.size_) return size_ < other.size_;
  return std::lexicographical_compare(data(), data() + size_, other.data(),
                                      other.data() + other.size_);
}

Instantiation Instantiation::MostRelaxed(const QueryTemplate& tmpl) {
  return Instantiation(
      std::vector<int32_t>(tmpl.num_range_vars(), kWildcardBinding),
      std::vector<uint8_t>(tmpl.num_edge_vars(), 0));
}

Instantiation Instantiation::MostRefined(const QueryTemplate& tmpl,
                                         const VariableDomains& domains) {
  std::vector<int32_t> range(tmpl.num_range_vars(), kWildcardBinding);
  for (RangeVarId x = 0; x < tmpl.num_range_vars(); ++x) {
    if (domains.size(x) > 0) {
      range[x] = static_cast<int32_t>(domains.size(x)) - 1;
    }
  }
  return Instantiation(range, std::vector<uint8_t>(tmpl.num_edge_vars(), 1));
}

bool Instantiation::Refines(const Instantiation& other) const {
  const int32_t* mine = data();
  const int32_t* theirs = other.data();
  for (size_t x = 0; x < num_range_; ++x) {
    if (theirs[x] == kWildcardBinding) continue;  // '_' is most relaxed.
    if (mine[x] == kWildcardBinding) return false;
    if (mine[x] < theirs[x]) return false;
  }
  for (size_t x = num_range_; x < size_; ++x) {
    if (mine[x] < theirs[x]) return false;  // Edge present in other only.
  }
  return true;
}

uint64_t Instantiation::Hash() const {
  uint64_t h = 0x5851f42d4c957f2dULL;
  const int32_t* b = data();
  for (size_t x = 0; x < num_range_; ++x) {
    HashCombine(&h, Mix64(static_cast<uint64_t>(b[x]) + 2));
  }
  for (size_t x = num_range_; x < size_; ++x) {
    HashCombine(&h, Mix64(static_cast<uint8_t>(b[x]) + 11));
  }
  return h;
}

std::string Instantiation::ToString(const QueryTemplate& tmpl,
                                    const VariableDomains& domains) const {
  (void)tmpl;
  std::ostringstream out;
  out << "[";
  for (size_t x = 0; x < num_range_; ++x) {
    if (x > 0) out << " ";
    out << "x" << x << "=";
    if (is_wildcard(static_cast<RangeVarId>(x))) {
      out << "_";
    } else {
      out << domains.value(static_cast<RangeVarId>(x),
                           static_cast<size_t>(range_binding(
                               static_cast<RangeVarId>(x))))
                 .ToString();
    }
  }
  if (num_edge_vars() > 0) {
    out << " |";
    for (size_t x = 0; x < num_edge_vars(); ++x) {
      out << " e" << x << "=" << static_cast<int>(edge_binding(x));
    }
  }
  out << "]";
  return out.str();
}

}  // namespace fairsqg
