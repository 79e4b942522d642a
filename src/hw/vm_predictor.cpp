#include "hw/vm_predictor.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "hw/predictor_program.hpp"

namespace shep {

VmWcmaPredictor::VmWcmaPredictor(const WcmaParams& params, int slots_per_day,
                                 const CycleCosts& costs)
    : params_(params.ValidFor(slots_per_day)),
      costs_(costs),
      state_(static_cast<std::size_t>(params_.days),
             static_cast<std::size_t>(slots_per_day),
             static_cast<std::size_t>(params_.slots_k)),
      vm_(WcmaProgramLayout{params_.slots_k, params_.alpha}.memory_words(),
          costs) {
  costs_.Validate();
  programs_.reserve(static_cast<std::size_t>(params_.slots_k));
  for (int k = 1; k <= params_.slots_k; ++k) {
    programs_.push_back(BuildWcmaPredictProgram({k, params_.alpha}));
  }
}

void VmWcmaPredictor::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  state_.Observe(boundary_sample);
}

double VmWcmaPredictor::PredictNext() const {
  SHEP_REQUIRE(state_.history().has_sample(),
               "PredictNext before any Observe");
  ++cost_.predictions;

  if (state_.history().stored_days() == 0) {
    // Boot transient: no μ_D exists yet.  Runs on the host (zero cycles
    // charged) through core/Wcma's own fallback, so the two backends stay
    // bit-comparable.
    return state_.Predict(params_.alpha);
  }

  const FixedRing<WcmaRecentSlot>& recent = state_.recent();
  const std::size_t k_avail = recent.size();
  SHEP_DCHECK(k_avail >= 1, "recent window empty despite a sample");
  const WcmaProgramLayout layout{static_cast<int>(k_avail), params_.alpha};

  vm_.Poke(WcmaProgramLayout::kAddrSample, state_.history().last_sample());
  vm_.Poke(WcmaProgramLayout::kAddrMuNext, state_.MuNext());
  vm_.Poke(WcmaProgramLayout::kAddrEpsilon, kNightEpsilonW);
  for (std::size_t i = 0; i < k_avail; ++i) {
    vm_.Poke(WcmaProgramLayout::kAddrRecentBase + i, recent[i].sample);
    vm_.Poke(layout.recent_mu_base() + i, recent[i].mu);
  }

  const VmResult run = vm_.Run(programs_[k_avail - 1]);
  SHEP_CHECK(run.ok(), std::string("WCMA VM routine trapped: ") +
                           VmTrapName(run.trap));
  cost_.cycles += run.cycles;
  cost_.ops += run.ops.total();
  return vm_.Peek(WcmaProgramLayout::kAddrOutput);
}


void VmWcmaPredictor::Reset() {
  state_.Clear();
  cost_ = PredictorComputeCost{};
}

std::string VmWcmaPredictor::Name() const {
  std::ostringstream os;
  os << "VmWCMA(a=" << params_.alpha << ",D=" << params_.days
     << ",K=" << params_.slots_k << ")";
  return os.str();
}

}  // namespace shep
