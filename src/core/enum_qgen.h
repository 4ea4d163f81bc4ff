#ifndef FAIRSQG_CORE_ENUM_QGEN_H_
#define FAIRSQG_CORE_ENUM_QGEN_H_

#include "common/result.h"
#include "core/config.h"
#include "core/qgen_result.h"

namespace fairsqg {

/// \brief EnumQGen (Theorem 1's naive algorithm): enumerate all of I(Q),
/// verify every instance, and feed the feasible ones through procedure
/// Update to obtain an ε-Pareto instance set.
///
/// Exact on the enumerated space; the baseline that RfQGen and BiQGen are
/// measured against. VerifyEveryInstance verifies the whole space from one
/// LatticeIndex pass (DESIGN.md §14), or, on a space the lattice cannot
/// list, one instance at a time in odometer order. ParallelQGen is this
/// body run on a thread pool.
class EnumQGen {
 public:
  static Result<QGenResult> Run(const QGenConfig& config);
};

}  // namespace fairsqg

#endif  // FAIRSQG_CORE_ENUM_QGEN_H_
