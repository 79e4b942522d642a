#include "timeseries/csv.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "common/strings.hpp"

namespace shep {

namespace {

CsvLoadResult Fail(std::string message) {
  CsvLoadResult r;
  r.error = std::move(message);
  return r;
}

}  // namespace

CsvLoadResult ParseCsv(const std::string& text, const std::string& name,
                       int resolution_s, const CsvOptions& options) {
  if (resolution_s <= 0 || kSecondsPerDay % resolution_s != 0) {
    return Fail("resolution must be positive and divide one day");
  }
  if (options.value_column < 0) {
    return Fail("value column must be non-negative, got " +
                std::to_string(options.value_column));
  }
  std::vector<double> samples;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  bool header_pending = options.skip_header;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    if (header_pending) {
      header_pending = false;
      continue;
    }
    const auto fields = Split(trimmed, options.separator);
    if (options.value_column >= static_cast<int>(fields.size())) {
      std::ostringstream os;
      os << "line " << line_no << ": missing column "
         << options.value_column;
      return Fail(os.str());
    }
    const auto value =
        ParseDouble(fields[static_cast<std::size_t>(options.value_column)]);
    if (!value) {
      std::ostringstream os;
      os << "line " << line_no << ": not a number: '"
         << fields[static_cast<std::size_t>(options.value_column)] << "'";
      return Fail(os.str());
    }
    double v = *value;
    if (!std::isfinite(v)) {
      std::ostringstream os;
      os << "line " << line_no << ": non-finite power sample";
      return Fail(os.str());
    }
    if (v < 0.0) {
      if (!options.clamp_negative) {
        std::ostringstream os;
        os << "line " << line_no << ": negative power sample " << v;
        return Fail(os.str());
      }
      v = 0.0;
    }
    samples.push_back(v);
  }
  const std::size_t per_day =
      static_cast<std::size_t>(kSecondsPerDay / resolution_s);
  if (samples.empty() || samples.size() % per_day != 0) {
    std::ostringstream os;
    os << "sample count " << samples.size()
       << " does not form whole days of " << per_day << " samples";
    return Fail(os.str());
  }
  CsvLoadResult r;
  r.trace.emplace(name, std::move(samples), resolution_s);
  return r;
}

CsvLoadResult LoadCsv(const std::string& path, const std::string& name,
                      int resolution_s, const CsvOptions& options) {
  std::ifstream f(path);
  if (!f) return Fail("cannot open file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return ParseCsv(buf.str(), name, resolution_s, options);
}

}  // namespace shep
