#ifndef FAIRSQG_COMMON_FAULT_INJECTION_H_
#define FAIRSQG_COMMON_FAULT_INJECTION_H_

#include <cstdint>
#include <string>

namespace fairsqg::fault {

/// \brief Compile-time-gated fault injection at named sites.
///
/// Production code marks degradable points with FAIRSQG_FAULT_POINT("site").
/// With the `FAIRSQG_FAULT_INJECTION` CMake option OFF (the default) the
/// macro expands to the constant `false` — zero code, zero cost. With the
/// option ON, tests arm sites with a FaultSpec and the macro reports/acts:
///
///  - `kFail`  : the macro returns true and the caller skips the optional
///               work (cache admission, a reserve() hint, ...);
///  - `kStall` : Hit() sleeps for `stall_micros` and returns false — the
///               caller proceeds, just late (models a wedged match step).
///
/// Sites currently compiled in:
///   matcher.step      backtracking inner loop (stall → pathological match)
///   cache.lookup      MatchSetCache::Lookup (fail → forced miss)
///   cache.insert      MatchSetCache::Insert (fail → admission refused)
///   cache.reserve     signature-buffer reserve (fail → allocation throttled)
///
/// The registry itself always compiles (so tests link in either mode);
/// only the call sites are gated. Arm/Disarm are thread-safe; Hit() on an
/// unarmed build is a single relaxed atomic load.
struct FaultSpec {
  enum class Action { kNone, kFail, kStall };
  Action action = Action::kNone;
  /// kStall: how long each firing sleeps.
  uint64_t stall_micros = 0;
  /// Fire only from the N-th hit on (1 = first hit; 0 behaves like 1).
  uint64_t trigger_after = 0;
  /// Stop firing after this many firings (0 = unlimited).
  uint64_t max_fires = 0;
};

/// Arms `site`; replaces any previous spec and resets its counters.
void Arm(const std::string& site, FaultSpec spec);
void Disarm(const std::string& site);
void DisarmAll();

/// Times the site was reached (armed or not) since it was last armed.
uint64_t HitCount(const std::string& site);

/// True when the library was built with -DFAIRSQG_FAULT_INJECTION=ON, i.e.
/// the fault points are compiled in and Arm() can take effect.
bool InjectionEnabled();

/// Implementation hook behind FAIRSQG_FAULT_POINT; see FaultSpec.
bool Hit(const char* site);

}  // namespace fairsqg::fault

#ifdef FAIRSQG_FAULT_INJECTION
#define FAIRSQG_FAULT_POINT(site) (::fairsqg::fault::Hit(site))
#else
#define FAIRSQG_FAULT_POINT(site) (false)
#endif

#endif  // FAIRSQG_COMMON_FAULT_INJECTION_H_
