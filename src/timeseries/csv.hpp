// csv.hpp — CSV import for power traces.
//
// The paper uses NREL MIDC exports.  This loader accepts the common MIDC
// shape — optional header line(s), one sample per row, with the power value
// in a chosen column — as well as a plain single-column file, so real
// measurement data can replace the synthetic substitute without code
// changes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "timeseries/trace.hpp"

namespace shep {

/// Options controlling CSV parsing.
struct CsvOptions {
  char separator = ',';
  int value_column = 0;        ///< 0-based column holding the power sample.
  bool skip_header = true;     ///< ignore the first non-empty line.
  bool clamp_negative = true;  ///< MIDC night values can be slightly
                               ///< negative (sensor offset); clamp to 0.
};

/// Result of a CSV load: either a trace or a line-accurate error message.
struct CsvLoadResult {
  std::optional<PowerTrace> trace;
  std::string error;  ///< empty on success

  bool ok() const { return trace.has_value(); }
};

/// Parses CSV text into a trace.  The sample count must form whole days at
/// `resolution_s`; otherwise an error naming the offending count is
/// returned.  A negative `value_column` is an error, and so is a NaN or
/// infinite sample (reported with its line, never clamped).
[[nodiscard]] CsvLoadResult ParseCsv(const std::string& text,
                                     const std::string& name,
                                     int resolution_s,
                                     const CsvOptions& options = {});

/// Loads a trace from a CSV file on disk.
CsvLoadResult LoadCsv(const std::string& path, const std::string& name,
                      int resolution_s, const CsvOptions& options = {});

}  // namespace shep
