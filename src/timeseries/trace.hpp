// trace.hpp — PowerTrace: a uniformly sampled harvested-power time series.
//
// This is the fundamental data type of the library.  A trace holds
// non-negative power samples (W, or W/m^2 irradiance — the algorithm is
// scale-free because errors are reported as MAPE) at a fixed resolution,
// organised as an integral number of days.  The NREL MIDC data sets used by
// the paper (Table I) are 365-day traces at 1-minute or 5-minute resolution;
// the synthetic substitute in src/solar produces the same shape.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace shep {

/// Seconds in one day; every trace is organised as whole days of samples.
inline constexpr int kSecondsPerDay = 86'400;

/// A uniformly sampled, day-aligned power time series.
class PowerTrace {
 public:
  /// Builds a trace from raw samples.
  ///
  /// \param name          identifier used in reports (e.g. "SPMD").
  /// \param samples       power samples in watts; all must be finite and
  ///                      non-negative.
  /// \param resolution_s  sampling period in seconds; must divide 86400.
  ///
  /// The number of samples must be a positive multiple of samples-per-day.
  PowerTrace(std::string name, std::vector<double> samples, int resolution_s);

  const std::string& name() const { return name_; }
  int resolution_s() const { return resolution_s_; }

  /// Samples recorded per day (86400 / resolution).
  std::size_t samples_per_day() const { return samples_per_day_; }

  /// Number of whole days in the trace.
  std::size_t days() const { return samples_.size() / samples_per_day_; }

  /// Total number of samples ("Observations" column of the paper's Table I).
  std::size_t size() const { return samples_.size(); }

  /// All samples, flat, day-major.
  std::span<const double> samples() const { return samples_; }

  /// Samples of one day (0-based day index).
  std::span<const double> day(std::size_t day_index) const;

  /// Sample at (0-based) day / offset-within-day.
  double at(std::size_t day_index, std::size_t offset) const;

  /// Maximum sample over the whole trace (the "peak" used for the paper's
  /// >= 10 %-of-peak region-of-interest filter).
  double peak() const { return peak_; }

  /// Energy received during one day in joules: sum(P)*dt.
  double day_energy_j(std::size_t day_index) const;

  /// Total energy over the full trace in joules.
  double total_energy_j() const;

 private:
  std::string name_;
  std::vector<double> samples_;
  int resolution_s_;
  std::size_t samples_per_day_;
  double peak_;
};

}  // namespace shep
