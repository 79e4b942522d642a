// layers.hpp — the traced run's per-layer measurements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Calls each layer's public functions as separate stages on the campaign
/// and paper inputs of `seed`, with a span around every call, and derives
/// the per-layer metrics from those spans and from exact allocation and
/// event counts.  Throws std::runtime_error when a stage's output disagrees
/// with its reference or a count leaves its expected range.
std::vector<Metric> RunLayerSuite(std::uint64_t seed, SpanRecorder& spans);

}  // namespace perfbench
