// visit_predictor.hpp — the one place a PredictorKind becomes a type.
//
// VisitPredictor builds the concrete predictor a PredictorSpec describes on
// the caller's stack and hands it to a generic callable, so every consumer
// sees the `final` class rather than a Predictor&.  The fleet's two
// consumers are thin callers of it:
//  * SimulateSpecNode (fleet/runner.cpp) instantiates the slot kernel on
//    each concrete type — static dispatch for every kind;
//  * PredictorSpec::Validate constructs it and discards it, so the
//    constructors' own checks are the validation.
#pragma once

#include "common/check.hpp"
#include "core/adaptive.hpp"
#include "core/ar.hpp"
#include "core/baselines.hpp"
#include "core/ewma.hpp"
#include "core/wcma.hpp"
#include "fleet/scenario.hpp"
#include "hw/costed_fixed.hpp"
#include "hw/vm_predictor.hpp"

namespace shep {

/// Constructs the predictor `spec` describes for N = `slots_per_day` and
/// returns f(predictor).  Constructor checks throw std::invalid_argument.
template <class F>
auto VisitPredictor(const PredictorSpec& spec, int slots_per_day, F&& f) {
  switch (spec.kind) {
    case PredictorKind::kWcma: {
      Wcma p(spec.wcma, slots_per_day);
      return f(p);
    }
    case PredictorKind::kWcmaFixed: {
      CostedFixedWcma p(spec.wcma, slots_per_day);
      return f(p);
    }
    case PredictorKind::kWcmaVm: {
      VmWcmaPredictor p(spec.wcma, slots_per_day);
      return f(p);
    }
    case PredictorKind::kEwma: {
      Ewma p(spec.ewma_weight, slots_per_day);
      return f(p);
    }
    case PredictorKind::kAr: {
      ArPredictor p(spec.ar, slots_per_day);
      return f(p);
    }
    case PredictorKind::kAdaptiveWcma: {
      AdaptiveWcma p(spec.adaptive, slots_per_day);
      return f(p);
    }
    case PredictorKind::kPersistence: {
      Persistence p;
      return f(p);
    }
    case PredictorKind::kPreviousDay: {
      PreviousDay p(slots_per_day);
      return f(p);
    }
  }
  SHEP_REQUIRE(false, "unknown predictor kind");
  throw std::logic_error("unreachable");
}

}  // namespace shep
