// backend_parity.hpp — differential backend-parity measurement.
//
// The three WCMA backends (double-precision core/Wcma, Q16.16
// core/FixedWcma, MicroVm-executed hw/VmWcmaPredictor) claim to be the same
// algorithm.  "They all run" does not test that claim; backend-wiring bugs
// hide precisely in the values.  This module measures the divergence
// directly, at two altitudes:
//
//  * slot level — MeasurePredictionDivergence drives two predictors over
//    the SAME series, prediction by prediction, and reports the absolute
//    and peak-relative divergence envelope.  Float↔VM must agree to
//    FMA-contraction noise (ulps); float↔fixed to the Q16.16 quantisation
//    budget (~1 % of peak over the region of interest).
//
//  * fleet level — MapeDeltas matches the cells of two predictor labels in
//    a FleetSummary pairwise over (site, storage).  Because fleet weather
//    is paired per site, matched cells faced identical draws, so the
//    per-cell MAPE delta isolates the backend, not sampling noise.
//
// test_backend_parity.cpp, its only user, pins the bounds.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "fleet/aggregate.hpp"
#include "timeseries/slotting.hpp"

namespace shep {

/// Envelope of |prediction_a − prediction_b| over a shared series.
struct BackendDivergence {
  std::size_t slots = 0;      ///< predictions compared (after skip).
  double max_abs_w = 0.0;     ///< worst slot divergence, watts.
  double mean_abs_w = 0.0;    ///< average slot divergence, watts.
  double max_rel_peak = 0.0;  ///< max_abs_w normalised by the series peak.
};

/// Runs both predictors over every slot of `series` (each is Reset()
/// first) and measures the per-slot prediction divergence.  `skip_slots`
/// excludes the leading warm-up slots where backends intentionally differ
/// (e.g. FixedWcma's warm-up θ indexing — see wcma_fixed.hpp).
BackendDivergence MeasurePredictionDivergence(Predictor& a, Predictor& b,
                                              const SlotSeries& series,
                                              std::size_t skip_slots = 0);

/// One matched (site, storage) cell pair of two predictor labels.
struct CellMapeDelta {
  std::size_t cell_a = 0;  ///< index into FleetSummary::cells.
  std::size_t cell_b = 0;
  std::string site_code;
  double storage_j = 0.0;
  double mape_a = 0.0;
  double mape_b = 0.0;

  double abs_delta() const { return std::fabs(mape_a - mape_b); }
};

/// Pairs every (site, storage) cell of `label_a` with its `label_b`
/// counterpart.  Throws std::invalid_argument when a label is missing, a
/// counterpart cell does not exist, or a matched cell has no measured MAPE
/// (parity over unmeasured accuracy would be vacuous).
std::vector<CellMapeDelta> MapeDeltas(const FleetSummary& summary,
                                      const std::string& label_a,
                                      const std::string& label_b);

/// Convenience: the worst |Δ MAPE| over all matched pairs.
double MaxAbsMapeDelta(const std::vector<CellMapeDelta>& deltas);

}  // namespace shep
