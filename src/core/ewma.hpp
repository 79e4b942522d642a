// ewma.hpp — the EWMA predictor of Kansal et al. (paper ref. [2]).
//
// The first published solar predictor for harvesting nodes: keep one
// exponentially-weighted moving average per slot-of-day, updated once per
// day, and predict the next slot with its EWMA.  It exploits the 24-hour
// cycle but — unlike WCMA's Φ_K — has no notion of "today is cloudier than
// usual", so it lags weather changes by days.  Included as the baseline the
// paper's reference list positions WCMA against.
#pragma once

#include <string>
#include <vector>

#include "core/predictor.hpp"

namespace shep {

/// Per-slot exponentially weighted moving average predictor.
class Ewma final : public Predictor {
 public:
  /// \param weight         λ ∈ [0,1]: contribution of the newest
  ///                       observation (Kansal et al. use 0.5).
  /// \param slots_per_day  N of the deployment.
  Ewma(double weight, int slots_per_day);

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  void Reset() override;
  std::string Name() const override;

  double weight() const { return weight_; }

 private:
  double weight_;
  int slots_per_day_;
  std::vector<double> slot_ewma_;
  std::vector<bool> seeded_;   ///< first observation seeds the average.
  std::size_t next_slot_ = 0;
  double last_sample_ = 0.0;
  bool has_sample_ = false;
};

}  // namespace shep
