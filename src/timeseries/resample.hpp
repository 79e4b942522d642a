// resample.hpp — resolution conversion between traces.
//
// The paper's data sets come at 1-minute and 5-minute resolution (Table I);
// downsampling (block mean) lets the same synthetic site be rendered at
// either resolution, and lets tests verify resolution-sensitivity claims
// (Sec. III: "e̅ will be more accurate if solar power samples data is
// available at a high resolution").
#pragma once

#include <span>
#include <vector>

namespace shep {

/// Downsamples by block-averaging: each sample of `out` (resized to
/// in.size()/factor; `factor` must divide in.size()) is the mean of the
/// `factor` samples of `in` it covers, so total energy is preserved.
/// `factor` = new_resolution / old.  Allocation-free once `out` has grown:
/// callers that already hold day-aligned samples (trace synthesis,
/// per-worker fleet scratch) reuse it across traces.
void DownsampleMeanInto(std::span<const double> in, int factor,
                        std::vector<double>& out);

}  // namespace shep
