// vm_predictor.hpp — WCMA deployed as the compiled MicroVm routine.
//
// VmWcmaPredictor closes the gap between the hw layer's per-call
// cross-checks (predictor_program) and a full deployment: it implements the
// streaming Predictor contract, but every steady-state PredictNext()
// actually EXECUTES the compiled WCMA routine on the cycle-counted MicroVm
// instead of evaluating Eq. 1 in C++.  The host side plays the part of the
// firmware around the routine — it keeps the D×N history matrix and the
// K-slot recent window in the WcmaState that core/Wcma uses, pokes the
// routine's inputs into VM data memory each wake-up, and reads the
// prediction back —
// while the arithmetic that the paper's Table IV prices runs instruction by
// instruction on the VM, accumulating exact cycle and operation counts.
//
// Because the routine performs the same double-precision operations in the
// same order as core/Wcma::PredictNext, the VM-backed predictions track the
// float reference to within FMA-contraction noise (ulps); the backend parity
// harness (tests/backend_parity, tests/test_backend_parity) pins that bound.
//
// Warm-up corners match core/Wcma: with fewer than K elapsed slots the
// routine compiled for the available window size runs (θ ramps over
// k_avail), and before any full day exists the prediction is
// WcmaState::Predict's persistence fallback, evaluated on the host with
// zero cycles charged — the VM models the deployed steady-state routine,
// not the boot transient.
#pragma once

#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "core/wcma.hpp"
#include "hw/mcu_spec.hpp"
#include "hw/vm.hpp"

namespace shep {

/// WCMA whose prediction arithmetic runs on the MicroVm, with per-call
/// cycle/op accounting.
class VmWcmaPredictor final : public Predictor {
 public:
  VmWcmaPredictor(const WcmaParams& params, int slots_per_day,
                  const CycleCosts& costs = {});

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  void Reset() override;
  std::string Name() const override;

  /// Cycle/op totals of every VM-executed prediction since Reset(); the
  /// prediction count includes the warm-up fallbacks, which cost nothing.
  PredictorComputeCost ComputeCost() const { return cost_; }

 private:
  WcmaParams params_;
  CycleCosts costs_;
  WcmaState state_;

  /// Routine compiled once per available window size (index k_avail - 1);
  /// warm-up runs the shorter-window builds, steady state programs_[K-1].
  std::vector<VmProgram> programs_;
  /// Sized for the K-slot layout (the largest); shorter-window layouts use
  /// a prefix of the same data memory.  mutable: PredictNext() is logically
  /// const but must poke inputs and run the machine.
  mutable MicroVm vm_;

  mutable PredictorComputeCost cost_;
};

}  // namespace shep
