// predictor_program.hpp — the WCMA prediction routine compiled for MicroVm.
//
// Assembles Eq. 1/3/4/5 into MicroVm instructions the way an embedded
// implementation with a compile-time K would look: the Φ loop is unrolled,
// each θ(k) is an immediate load (priced like the table read it stands
// for), the night guard is a compare+branch, and the α = 0 / α = 1 corners
// drop the unused term at "compile" time (this is the mechanism behind
// Table IV's cheaper (K=7, α=0) row).  A program therefore depends only on
// (K, α).  Executing it yields both the prediction and its exact dynamic
// cycle cost under the platform's CycleCosts.
#pragma once

#include <cstddef>
#include <vector>

#include "common/constants.hpp"
#include "hw/vm.hpp"

namespace shep {

/// Memory map and compile-time parameters of the routine.
struct WcmaProgramLayout {
  int slots_k = 3;      ///< K: conditioning slots (unrolled; >= 1).
  double alpha = 0.7;   ///< α baked into the instruction stream.

  /// Data memory addresses (word-indexed).
  static constexpr std::size_t kAddrSample = 0;   ///< ẽ(n), input.
  static constexpr std::size_t kAddrMuNext = 1;   ///< μ_D(n+1), input.
  static constexpr std::size_t kAddrEpsilon = 2;  ///< night guard, input.
  static constexpr std::size_t kAddrOutput = 3;   ///< ê(n+1), output.
  static constexpr std::size_t kAddrRecentBase = 4;  ///< K samples.

  std::size_t recent_mu_base() const {
    return kAddrRecentBase + static_cast<std::size_t>(slots_k);
  }
  std::size_t memory_words() const {
    return kAddrRecentBase + 2 * static_cast<std::size_t>(slots_k);
  }

  /// Throws std::invalid_argument on bad parameters.
  void Validate() const;
};

/// Assembles the prediction routine for the layout.
VmProgram BuildWcmaPredictProgram(const WcmaProgramLayout& layout);

/// Inputs of one prediction (oldest-first windows of exactly K entries).
struct WcmaVmInputs {
  double sample = 0.0;                 ///< ẽ(n).
  double mu_next = 0.0;                ///< μ_D(n+1).
  std::vector<double> recent_samples;  ///< ẽ(n-K+1..n), oldest first.
  std::vector<double> recent_mus;      ///< μ_D at those slots.
};

/// Prediction + execution statistics of one VM run.
struct WcmaVmRun {
  double prediction = 0.0;
  VmResult vm;
};

/// Convenience: allocate a VM, poke inputs, run, read output.  A trap is an
/// internal error (std::logic_error), as in VmWcmaPredictor.
WcmaVmRun RunWcmaOnVm(const WcmaProgramLayout& layout,
                      const WcmaVmInputs& inputs,
                      const CycleCosts& costs = {});

/// The same computation in plain double arithmetic; ground truth for the
/// VM tests.  The default night guard matches core/wcma.cpp (1 mW).
double ReferenceWcmaPrediction(const WcmaProgramLayout& layout,
                               const WcmaVmInputs& inputs,
                               double night_epsilon = kNightEpsilonW);

}  // namespace shep
