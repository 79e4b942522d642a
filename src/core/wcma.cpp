#include "core/wcma.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace shep {

void WcmaParams::Validate() const {
  SHEP_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
  SHEP_REQUIRE(days >= 1, "D must be >= 1");
  SHEP_REQUIRE(slots_k >= 1, "K must be >= 1");
}

const WcmaParams& WcmaParams::ValidFor(int slots_per_day) const {
  Validate();
  SHEP_REQUIRE(slots_per_day >= 2, "need at least two slots per day");
  SHEP_REQUIRE(slots_k < slots_per_day,
               "K must be smaller than the number of slots per day");
  return *this;
}

// ------------------------------------------------------------------ WcmaState

WcmaState::WcmaState(std::size_t days, std::size_t slots_per_day,
                     std::size_t window)
    : history_(days, slots_per_day), recent_(window) {}

void WcmaState::Observe(double sample) {
  double mu = sample;  // neutral when no history yet (η = 1)
  if (history_.stored_days() > 0) mu = MuNext();
  recent_.push_back(WcmaRecentSlot{sample, mu});
  history_.Append(sample);
}

void WcmaState::Clear() {
  history_.Clear();
  recent_.clear();
}

double WcmaState::Phi(std::size_t k) const {
  SHEP_DCHECK(k <= recent_.size(), "phi window exceeds the stored slots");
  if (k == 0) return 1.0;
  const std::size_t first = recent_.size() - k;
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    // i = 0 is the oldest slot in the window; the paper's index runs 1..K
    // with θ(K) = 1 at the most recent slot, θ(k) = k/K.
    const double theta = static_cast<double>(i + 1) / static_cast<double>(k);
    const WcmaRecentSlot& r = recent_[first + i];
    const double eta = r.mu > kNightEpsilonW ? r.sample / r.mu : 1.0;
    num += theta * eta;
    den += theta;
  }
  return num / den;
}

double WcmaState::Predict(double alpha) const {
  const double last = history_.last_sample();
  const double conditioned =
      history_.stored_days() == 0 ? last : MuNext() * Phi(recent_.size());
  return alpha * last + (1.0 - alpha) * conditioned;
}

// ----------------------------------------------------------------------- Wcma

Wcma::Wcma(const WcmaParams& params, int slots_per_day)
    : params_(params.ValidFor(slots_per_day)),
      state_(static_cast<std::size_t>(params_.days),
             static_cast<std::size_t>(slots_per_day),
             static_cast<std::size_t>(params_.slots_k)) {}

void Wcma::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  state_.Observe(boundary_sample);
}

double Wcma::CurrentPhi() const {
  return state_.Phi(state_.recent().size());
}

double Wcma::PredictNext() const {
  SHEP_REQUIRE(state_.history().has_sample(),
               "PredictNext before any Observe");
  return state_.Predict(params_.alpha);
}


void Wcma::Reset() { state_.Clear(); }

std::string Wcma::Name() const {
  std::ostringstream os;
  os << "WCMA(a=" << params_.alpha << ",D=" << params_.days
     << ",K=" << params_.slots_k << ")";
  return os.str();
}

}  // namespace shep
