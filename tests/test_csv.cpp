// Tests for timeseries/csv.hpp.
#include "timeseries/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace shep {
namespace {

std::string HourlyCsv(int days) {
  std::ostringstream os;
  os << "power_w\n";
  for (int d = 0; d < days; ++d) {
    for (int i = 0; i < 24; ++i) os << (i * 0.1) << "\n";
  }
  return os.str();
}

/// ParseCsv's error for one day at 6-hour resolution, or a note that it
/// accepted the text or threw instead of returning an error.
std::string ErrorOf(const std::string& text, const CsvOptions& options) {
  try {
    const auto r = ParseCsv(text, "T", 21600, options);
    return r.ok() ? "accepted" : r.error;
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

TEST(ParseCsv, SingleColumnWithHeader) {
  const auto r = ParseCsv(HourlyCsv(2), "T", 3600);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.trace->days(), 2u);
  EXPECT_DOUBLE_EQ(r.trace->at(0, 3), 0.3);
}

TEST(ParseCsv, SkipsBlankAndCommentLines) {
  const std::string text =
      "# MIDC export\npower_w\n\n1.0\n2.0\n# midway comment\n3.0\n4.0\n";
  CsvOptions opt;
  const auto r = ParseCsv(text, "T", 21600, opt);  // 4 samples/day
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.trace->size(), 4u);
}

TEST(ParseCsv, SelectsValueColumn) {
  std::ostringstream os;
  os << "time,ghi\n";
  for (int i = 0; i < 4; ++i) os << i << "," << (i + 0.5) << "\n";
  CsvOptions opt;
  opt.value_column = 1;
  const auto r = ParseCsv(os.str(), "T", 21600, opt);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_DOUBLE_EQ(r.trace->at(0, 2), 2.5);
}

TEST(ParseCsv, ClampsNegativeNightValuesByDefault) {
  const std::string text = "h\n-0.4\n1.0\n2.0\n3.0\n";
  const auto r = ParseCsv(text, "T", 21600);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_DOUBLE_EQ(r.trace->at(0, 0), 0.0);
}

TEST(ParseCsv, RejectsNegativeWhenClampDisabled) {
  CsvOptions opt;
  opt.clamp_negative = false;
  const auto r = ParseCsv("h\n-0.4\n1\n2\n3\n", "T", 21600, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("negative"), std::string::npos);
}

TEST(ParseCsv, ReportsLineNumberOnGarbage) {
  const auto r = ParseCsv("h\n1.0\nnot-a-number\n3.0\n4.0\n", "T", 21600);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("line 3"), std::string::npos);
}

TEST(ParseCsv, ReportsMissingColumn) {
  CsvOptions opt;
  opt.value_column = 3;
  const auto r = ParseCsv("h\n1,2\n", "T", 21600, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("column"), std::string::npos);
}

TEST(ParseCsv, RejectsNegativeColumn) {
  CsvOptions opt;
  opt.value_column = -1;
  EXPECT_EQ(ErrorOf("h\n1,2\n3,4\n5,6\n7,8\n", opt),
            "value column must be non-negative, got -1");
}

TEST(ParseCsv, RejectsNonFiniteSamplesWithLineNumber) {
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    for (const bool clamp : {true, false}) {
      CsvOptions opt;
      opt.clamp_negative = clamp;
      EXPECT_EQ(ErrorOf("h\n1.0\n" + bad + "\n3.0\n4.0\n", opt),
                "line 3: non-finite power sample")
          << bad << " clamp_negative=" << clamp;
    }
  }
}

TEST(ParseCsv, RejectsPartialDay) {
  const auto r = ParseCsv("h\n1\n2\n3\n", "T", 21600);  // needs 4/day
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("whole days"), std::string::npos);
}

TEST(ParseCsv, RejectsBadResolution) {
  const auto r = ParseCsv("h\n1\n", "T", 7);
  EXPECT_FALSE(r.ok());
}

TEST(SaveAndLoadCsv, RoundTrips) {
  std::vector<double> v(24);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<double>(i) * 0.25;
  const PowerTrace t("T", v, 3600);
  const std::string path = "/tmp/shep_test_roundtrip.csv";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << "power_w\n";
    for (double s : t.samples()) out << s << '\n';
  }
  const auto r = LoadCsv(path, "T2", 3600);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.trace->size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.trace->samples()[i], t.samples()[i]);
  }
  std::remove(path.c_str());
}

TEST(LoadCsv, MissingFileIsAnError) {
  const auto r = LoadCsv("/nonexistent/definitely_missing.csv", "T", 3600);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace shep
