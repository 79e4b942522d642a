// synth.hpp — synthetic harvested-power trace generation.
//
// Combines the clear-sky backbone (solar/clearsky.hpp) with the stochastic
// weather process (solar/weather.hpp) and the site's panel parameters to
// produce a PowerTrace with the same shape as the NREL MIDC exports used in
// the paper: 365 days at 1-minute or 5-minute resolution.  Generation always
// runs at 1-minute resolution internally and block-averages down to the
// site's recording resolution, mirroring how real loggers average over the
// reporting interval.
#pragma once

#include <cstdint>
#include <vector>

#include "solar/sites.hpp"
#include "solar/weather.hpp"
#include "timeseries/trace.hpp"

namespace shep {

/// Options for trace synthesis.
struct SynthOptions {
  std::size_t days = 365;        ///< trace length (the paper uses 365).
  /// 1-based calendar start in [1, 366].  The synthetic year is the
  /// 365-day declination cycle, so day 366 (a leap year's Dec 31) wraps to
  /// day 1 — exactly the identity SolarDeclinationRad exhibits (366 and 1
  /// are one full period apart).
  int start_day_of_year = 1;
  std::uint64_t seed_offset = 0; ///< mixed into the site seed; lets tests
                                 ///< draw independent replicas of a site.
};

/// Reusable working storage for SynthesizeTrace.  A default-built value
/// works; reusing one across traces leaves only the returned PowerTrace's
/// own sample vector allocating per call — every per-day intermediate
/// (clear-sky profile, transmittance, smoothing window, cloud events,
/// minute-resolution staging) is served from the scratch or the process
/// -wide clear-sky memo.  Fleet workers hold one scratch each.
struct SynthScratch {
  std::vector<double> minute_samples;  ///< 1-minute staging buffer.
  std::vector<double> day_tau;         ///< one day of transmittance.
  WeatherModel::DayScratch weather;    ///< cloud events + smoothing window.
};

/// Synthesizes a harvested-power trace for `site`.  Deterministic in
/// (site.seed, options): same inputs -> bit-identical trace.
PowerTrace SynthesizeTrace(const SiteProfile& site,
                           const SynthOptions& options = {});

/// Scratch-threaded form: bit-identical to the two-argument overload, but
/// all intermediate buffers come from `scratch`, so a caller looping over
/// traces (the fleet runner's phase 1) performs one allocation per trace
/// instead of several per day.
PowerTrace SynthesizeTrace(const SiteProfile& site, const SynthOptions& options,
                           SynthScratch& scratch);

/// Convenience: synthesizes all six paper sites at their native resolution
/// (Table I shapes: 105,120 samples for the 5-minute sites, 525,600 for the
/// 1-minute sites when days == 365).
std::vector<PowerTrace> SynthesizePaperTraces(const SynthOptions& options = {});

}  // namespace shep
