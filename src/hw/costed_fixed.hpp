// costed_fixed.hpp — the Q16.16 FixedWcma priced through a cycle table.
//
// core/FixedWcma counts every operation it performs but deliberately knows
// nothing about what an operation COSTS — the MSP430-flavoured cycle prices
// live here in hw (mcu_spec).  CostedFixedWcma composes the two: it
// forwards the Predictor contract to an inner FixedWcma unchanged (the
// prediction values are bit-identical to a bare FixedWcma) and its
// ComputeCost() member maps the predict-phase op counts through
// CycleCosts; the node-simulation kernel finds that member at compile
// time.  Only the predict phase is priced: that is the quantity the
// paper's Table IV reports and the one closest to VmWcmaPredictor, whose
// VM executes exactly the prediction routine.  The two figures are not
// identical by construction — the fixed build's predict phase includes the
// μ_D(n+1) lookup division, while the VM routine receives μ_D as an input
// word (its host computes the average) — so fixed reads roughly one
// software division higher per wake-up.  Day-rollover matrix maintenance
// is outside both figures; a bare FixedWcma still reports the full
// wake-up split (observe_ops()/predict_ops()).
#pragma once

#include <string>

#include "core/predictor.hpp"
#include "core/wcma.hpp"
#include "core/wcma_fixed.hpp"
#include "hw/mcu_spec.hpp"

namespace shep {

/// FixedWcma with its dynamic op counts priced as MCU cycles.
class CostedFixedWcma final : public Predictor {
 public:
  CostedFixedWcma(const WcmaParams& params, int slots_per_day,
                  const CycleCosts& costs = {});

  void Observe(double boundary_sample) override { inner_.Observe(boundary_sample); }
  double PredictNext() const override { return inner_.PredictNext(); }
  void Reset() override { inner_.Reset(); }
  std::string Name() const override { return inner_.Name(); }

  /// Predict-phase totals since Reset(), priced through the cycle table.
  PredictorComputeCost ComputeCost() const;

 private:
  FixedWcma inner_;
  CycleCosts costs_;
};

}  // namespace shep
