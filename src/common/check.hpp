// check.hpp — precondition / invariant checking macros for the shep library.
//
// Following the C++ Core Guidelines (I.6/I.8: state preconditions and use
// Expects()-style assertions), every public entry point validates its
// arguments.  Violations indicate programmer error, so they throw
// std::invalid_argument / std::logic_error with a message that names the
// violated condition; hot inner loops use SHEP_DCHECK which compiles away in
// release builds.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace shep {

/// Builds a diagnostic message "<cond> violated at <file>:<line>: <detail>".
inline std::string CheckMessage(const char* cond, const char* file, int line,
                                const std::string& detail) {
  std::ostringstream os;
  os << "check `" << cond << "` failed at " << file << ":" << line;
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

/// Calls params.Validate() and returns params, so a constructor can check
/// its parameters in the member-initializer list, before it sizes any
/// storage from them.
template <class Params>
const Params& Validated(const Params& params) {
  params.Validate();
  return params;
}

}  // namespace shep

/// Precondition on arguments of a public function.  Always on.
#define SHEP_REQUIRE(cond, detail)                                         \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw std::invalid_argument(                                         \
          ::shep::CheckMessage(#cond, __FILE__, __LINE__, (detail)));      \
    }                                                                      \
  } while (false)

/// Internal invariant (logic error if it fires).  Always on.
#define SHEP_CHECK(cond, detail)                                           \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw std::logic_error(                                              \
          ::shep::CheckMessage(#cond, __FILE__, __LINE__, (detail)));      \
    }                                                                      \
  } while (false)

/// Debug-only invariant for hot paths; disappears when NDEBUG is defined.
#ifdef NDEBUG
#define SHEP_DCHECK(cond, detail) \
  do {                            \
  } while (false)
#else
#define SHEP_DCHECK(cond, detail) SHEP_CHECK(cond, detail)
#endif
