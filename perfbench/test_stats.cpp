// test_stats.cpp — self-test of the benchmark's statistics helpers and
// metric-name rule.  Expected quartiles are Python's
// statistics.quantiles(values, n=4) on the same inputs.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  Expect(Median({3.0}) == 3.0, "median of one sample");
  Expect(Median({5.0, 1.0, 3.0}) == 3.0, "median of an odd sample");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even sample");
  bool threw = false;
  try {
    Median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  Expect(threw, "median of no samples throws");

  // quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == [2.75, 5.5, 8.25]
  Quartiles q = ComputeQuartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  Expect(Near(q.q1, 2.75) && Near(q.q2, 5.5) && Near(q.q3, 8.25),
         "quartiles of 1..10");
  // quantiles([1, 2]) == [0.75, 1.5, 2.25]
  q = ComputeQuartiles({2.0, 1.0});
  Expect(Near(q.q1, 0.75) && Near(q.q2, 1.5) && Near(q.q3, 2.25),
         "quartiles of two samples extrapolate like Python");
  // quantiles([1, 2, 3, 4, 5]) == [1.5, 3.0, 4.5]
  q = ComputeQuartiles(Range(5));
  Expect(Near(q.q1, 1.5) && Near(q.q2, 3.0) && Near(q.q3, 4.5),
         "quartiles of 1..5");
  q = ComputeQuartiles({7.0});
  Expect(q.q1 == 7.0 && q.q2 == 7.0 && q.q3 == 7.0, "quartiles of one sample");
  Expect(ComputeQuartiles(Range(11)).q2 == Median(Range(11)),
         "second quartile is the median");

  // The tail needs >= 10 samples beyond it: none below 40 samples.
  Expect(!HighestTail(Range(39)).has_value(), "no tail from 39 samples");
  auto tail = HighestTail(Range(40));
  Expect(tail && tail->percentile == 75.0 && tail->value == 30.0 &&
             tail->beyond == 10,
         "p75 of 40 samples has exactly 10 beyond");
  tail = HighestTail(Range(100));
  Expect(tail && tail->percentile == 90.0 && tail->value == 90.0 &&
             tail->beyond == 10,
         "p90 of 100 samples");
  tail = HighestTail(Range(199));
  Expect(tail && tail->percentile == 90.0 && tail->beyond >= kMinBeyond,
         "p95 of 199 samples leaves only 9 beyond, so p90");
  tail = HighestTail(Range(200));
  Expect(tail && tail->percentile == 95.0 && tail->value == 190.0 &&
             tail->beyond == 10,
         "p95 of 200 samples");
  tail = HighestTail(Range(10000));
  Expect(tail && tail->percentile == 99.9 && tail->value == 9990.0 &&
             tail->beyond == 10,
         "p99.9 of 10000 samples");

  Expect(IsValidMetricName("wall_s"), "plain name");
  Expect(IsValidMetricName("mgmt.kernel_ns_per_slot.FixedWCMA"), "dotted");
  Expect(IsValidMetricName("core.wcma_ns_per_slot.D2"), "digits");
  Expect(IsValidMetricName("a-b"), "hyphen");
  Expect(IsValidMetricName("9lives"), "leading digit");
  Expect(!IsValidMetricName(""), "empty name");
  Expect(!IsValidMetricName("_wall"), "leading underscore");
  Expect(!IsValidMetricName(".wall"), "leading dot");
  Expect(!IsValidMetricName("wall s"), "space");
  Expect(!IsValidMetricName("wall/s"), "slash");
  Expect(!IsValidMetricName("latency\"ms"), "quote");
  Expect(IsValidMetricName(std::string(64, 'a')), "64 characters");
  Expect(!IsValidMetricName(std::string(65, 'a')), "65 characters");

  if (g_failures == 0) std::cout << "perfbench_selftest: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
