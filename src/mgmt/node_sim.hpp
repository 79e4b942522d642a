// node_sim.hpp — full sensor-node simulation: predictor in the loop.
//
// Closes the loop of the paper's Fig. 1: trace -> predictor -> duty-cycle
// controller -> energy storage -> node.  Each slot the node predicts the
// upcoming harvest, commits to a duty cycle, then experiences the ACTUAL
// harvest (the slot's true mean power x T).  Prediction error therefore
// surfaces as real operational cost: brown-outs when the node over-commits
// (energy violations) and wasted harvest when it under-commits with a full
// store.  This module exists to demonstrate the paper's premise that
// "effectiveness of harvested-energy management is sensitive to accuracy
// of prediction algorithm" — see examples/node_simulation.cpp.
//
// This header holds the run's configuration and result; the simulation
// itself is SimulateNodeKernel (mgmt/node_sim_kernel.hpp), instantiated on
// a concrete predictor type.
#pragma once

#include <cstddef>

#include "core/predictor.hpp"
#include "mgmt/duty_cycle.hpp"
#include "mgmt/storage.hpp"

namespace shep {

/// Configuration of a node simulation run.
struct NodeSimConfig {
  DutyCycleConfig duty;         ///< controller parameters.
  StorageParams storage;        ///< store parameters.
  double initial_level_fraction = 0.5;
  std::size_t warmup_days = 20; ///< days before metrics accumulate
                                ///< (mirrors the evaluation protocol).
};

/// Aggregate outcome of a run.
struct NodeSimResult {
  std::size_t slots = 0;            ///< scored slots (after warm-up).
  std::size_t violations = 0;       ///< slots where the store ran empty.
  double violation_rate = 0.0;
  double mean_duty = 0.0;           ///< achieved average duty cycle.
  double duty_stddev = 0.0;         ///< stability (lower = smoother app).
  double overflow_j = 0.0;          ///< harvest lost to a full store.
  double delivered_j = 0.0;         ///< energy actually delivered to loads.
  double harvested_j = 0.0;         ///< total harvest offered in ROI.
  double min_level_fraction = 1.0;  ///< storage low-water mark.
  /// Prediction accuracy alongside the operational outcome: MAPE (Eq. 8) of
  /// the committed prediction against the slot mean it budgeted (Eq. 7),
  /// over post-warm-up slots whose mean clears the paper's 10 %-of-peak
  /// region-of-interest threshold.
  double mape = 0.0;
  std::size_t mape_points = 0;      ///< slots entering the MAPE average.
  /// Modelled MCU compute cost of the predictor over the WHOLE run
  /// (warm-up included; the predictor is Reset() at entry, so its
  /// cumulative counters cover exactly this simulation).  Populated only
  /// when the predictor has a ComputeCost() member (the fixed-point and VM
  /// backends of src/hw); float predictors leave has_compute_cost false
  /// and downstream aggregation reports their cost as "n/a", not zero.
  bool has_compute_cost = false;
  PredictorComputeCost compute;     ///< cycle/op/prediction totals.
  /// Graceful-degradation channel, populated only by fault-injected runs
  /// (fleet/faults.hpp); healthy runs leave `faulted` false and downstream
  /// aggregation renders no fault columns at all.  Outage slots are
  /// excluded from `slots` and every scored total above — a dark node is
  /// not violating, it is unavailable — and counted here instead.
  bool faulted = false;
  std::size_t downtime_slots = 0;   ///< post-warm-up slots spent in outage.
  std::size_t recoveries = 0;       ///< post-warm-up outage→up transitions.
  /// Scored slots inside the post-recovery window after each recovery, and
  /// the violations among them: the re-warm-up cost of an outage.
  std::size_t post_recovery_slots = 0;
  std::size_t post_recovery_violations = 0;
};

}  // namespace shep
