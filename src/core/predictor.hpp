// predictor.hpp — streaming predictor interface and evaluation harness.
//
// All predictors share the deployment contract of the paper's Fig. 5: once
// per slot the node wakes, ADC-samples the harvested power at the slot
// boundary, feeds it to the predictor, and reads back a prediction for the
// power at the NEXT slot boundary (which the energy manager multiplies by
// the slot length T to budget the upcoming slot's energy).
//
// Timing/indexing convention used throughout the library (paper Fig. 4):
// interval g lies between boundary samples e(g) and e(g+1).  After
// Observe(e(g)), PredictNext() returns ê(g+1).  That prediction is scored
// against the point sample e(g+1) (MAPE′, Eq. 6) or against the mean power
// e̅(g) of the interval it budgets (MAPE, Eq. 7) — see metrics/error.hpp.
//
// Every predictor class is `final`.  The node simulation
// (mgmt/node_sim_kernel.hpp) only runs on a concrete predictor type, so
// the per-slot calls are devirtualized; the virtual interface serves
// RunPredictor/ScorePredictor and the report code, which see a
// Predictor&.  A backend that models MCU cost (the src/hw builds) also
// has a plain `PredictorComputeCost ComputeCost() const` member, which
// the kernel detects at compile time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/error.hpp"
#include "timeseries/slotting.hpp"

namespace shep {

/// Abstract streaming one-step-ahead power predictor.
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Feeds the boundary sample of the slot that just started.  Called
  /// exactly once per slot, in time order, starting at slot 0 of day 0.
  virtual void Observe(double boundary_sample) = 0;

  /// Predicted power at the next slot boundary, ê(n+1).  Valid after the
  /// first Observe(); while a predictor lacks the history its model needs
  /// it falls back to persistence (returns the last observed sample).
  virtual double PredictNext() const = 0;

  /// Resets to the just-constructed state.
  virtual void Reset() = 0;

  /// Display name for reports, e.g. "WCMA(a=0.7,D=20,K=3)".
  virtual std::string Name() const = 0;
};

/// Cumulative modelled MCU compute cost of a predictor's prediction work
/// since construction or the last Reset(), as a cost-modelling backend's
/// ComputeCost() member reports it.
struct PredictorComputeCost {
  double cycles = 0.0;            ///< modelled MCU cycles, summed.
  std::uint64_t ops = 0;          ///< dynamic operations behind those cycles.
  std::uint64_t predictions = 0;  ///< PredictNext() calls the totals cover.

  double cycles_per_prediction() const {
    return predictions > 0 ? cycles / static_cast<double>(predictions) : 0.0;
  }
  double ops_per_prediction() const {
    return predictions > 0
               ? static_cast<double>(ops) / static_cast<double>(predictions)
               : 0.0;
  }
};

/// Runs `predictor` over every slot of `series` and collects one scored
/// point per predicted slot (size() - 1 points: the final boundary has no
/// successor).  The predictor is Reset() first, so the call is idempotent.
std::vector<PredictionPoint> RunPredictor(Predictor& predictor,
                                          const SlotSeries& series);

/// Convenience: run + score in one call, using the paper's protocol
/// defaults (days 21.., >= 10 % of the series' peak mean).
ErrorStats ScorePredictor(Predictor& predictor, const SlotSeries& series,
                          ErrorTarget target = ErrorTarget::kSlotMean,
                          const RoiFilter& filter = {});

}  // namespace shep
