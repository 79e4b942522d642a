#include "core/ar.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "common/mathutil.hpp"

namespace shep {

namespace {
/// Ratios are clamped into a sane band before entering the regression so
/// a single dawn outlier cannot destabilise the covariance.
constexpr double kMaxRatio = 5.0;
}  // namespace

void ArParams::Validate() const {
  SHEP_REQUIRE(order >= 1 && order <= 16, "AR order must be in [1,16]");
  SHEP_REQUIRE(days >= 1, "D must be >= 1");
  SHEP_REQUIRE(lambda > 0.0 && lambda <= 1.0,
               "forgetting factor must be in (0,1]");
  SHEP_REQUIRE(delta > 0.0, "initial covariance must be positive");
}

ArPredictor::ArPredictor(const ArParams& params, int slots_per_day)
    : params_(Validated(params)),
      history_(static_cast<std::size_t>(params_.days),
               static_cast<std::size_t>(std::max(slots_per_day, 1))),
      ratio_lags_(static_cast<std::size_t>(params_.order)) {
  SHEP_REQUIRE(slots_per_day >= 2, "need at least two slots per day");
  const auto dim = static_cast<std::size_t>(params_.order + 1);
  features_.assign(dim, 0.0);
  px_.assign(dim, 0.0);
  gain_.assign(dim, 0.0);
  Reset();
}

void ArPredictor::Features() const {
  features_[0] = 1.0;  // bias
  for (std::size_t lag = 0; lag < static_cast<std::size_t>(params_.order);
       ++lag) {
    if (lag < ratio_lags_.size()) {
      features_[lag + 1] = ratio_lags_[ratio_lags_.size() - 1 - lag];
    } else {
      features_[lag + 1] = 1.0;  // neutral ratio for missing history
    }
  }
}

void ArPredictor::RlsUpdate(double target) {
  Features();
  const std::vector<double>& x = features_;
  const auto dim = x.size();
  // k = P x / (λ + xᵀ P x)
  for (std::size_t i = 0; i < dim; ++i) {
    px_[i] = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      px_[i] += cov_[i * dim + j] * x[j];
    }
  }
  double denom = params_.lambda;
  for (std::size_t i = 0; i < dim; ++i) denom += x[i] * px_[i];
  SHEP_DCHECK(denom > 0.0, "RLS denominator must be positive");
  for (std::size_t i = 0; i < dim; ++i) gain_[i] = px_[i] / denom;

  // θ += k (target − θᵀx)
  double innovation = target;
  for (std::size_t i = 0; i < dim; ++i) innovation -= theta_[i] * x[i];
  for (std::size_t i = 0; i < dim; ++i) theta_[i] += gain_[i] * innovation;

  // P = (P − k (P x)ᵀ) / λ
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      cov_[i * dim + j] =
          (cov_[i * dim + j] - gain_[i] * px_[j]) / params_.lambda;
    }
  }
  ++updates_;
}

void ArPredictor::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");

  // De-seasonalise: ratio against the slot's historical average, when both
  // are daylight values.
  double mu = -1.0;
  if (history_.stored_days() > 0) mu = history_.Mu(history_.next_slot());
  const bool lit = mu > kNightEpsilonW && boundary_sample > kNightEpsilonW;
  if (lit) {
    const double ratio = Clamp(boundary_sample / mu, 0.0, kMaxRatio);
    // Learn: the features BEFORE pushing this ratio predict it.
    if (ratio_lags_.size() == ratio_lags_.capacity()) RlsUpdate(ratio);
    ratio_lags_.push_back(ratio);
  } else {
    // Crossing night resets the dynamics; stale evening ratios do not
    // describe the next morning.
    ratio_lags_.clear();
  }

  history_.Append(boundary_sample);
}

double ArPredictor::PredictNext() const {
  SHEP_REQUIRE(history_.has_sample(), "PredictNext before any Observe");
  if (history_.stored_days() == 0 || ratio_lags_.empty()) {
    return history_.last_sample();  // persistence fallback
  }
  const double mu_next = history_.Mu(history_.next_slot());
  if (mu_next <= kNightEpsilonW) return history_.last_sample();
  Features();
  double ratio_hat = 0.0;
  for (std::size_t i = 0; i < features_.size(); ++i) {
    ratio_hat += theta_[i] * features_[i];
  }
  ratio_hat = Clamp(ratio_hat, 0.0, kMaxRatio);
  return mu_next * ratio_hat;
}


void ArPredictor::Reset() {
  history_.Clear();
  ratio_lags_.clear();
  const auto dim = static_cast<std::size_t>(params_.order + 1);
  theta_.assign(dim, 0.0);
  theta_[1] = 1.0;  // start as "ratio persists" — a sensible prior
  cov_.assign(dim * dim, 0.0);
  for (std::size_t i = 0; i < dim; ++i) cov_[i * dim + i] = params_.delta;
  updates_ = 0;
}

std::string ArPredictor::Name() const {
  std::ostringstream os;
  os << "AR(" << params_.order << ",D=" << params_.days
     << ",lambda=" << params_.lambda << ")";
  return os.str();
}

}  // namespace shep
