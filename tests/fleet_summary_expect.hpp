// fleet_summary_expect.hpp — the one bit-identity comparator the fleet
// suites share.
//
// Two fleet runs agree only when every CellAccumulator field does: all
// nine moments (count, mean, M2, min, max), both histograms (geometry,
// bins, total, NaN count) and all four integer totals.  The rendered table
// and CSV are compared as well, but they round, so a one-ulp drift in a
// partial's wire form shows up in the fields alone.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "fleet/aggregate.hpp"

namespace shep {

inline void ExpectMomentsBitIdentical(const StreamingMoments& a,
                                      const StreamingMoments& b,
                                      const char* field) {
  SCOPED_TRACE(field);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.m2, b.m2);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
}

inline void ExpectHistogramBitIdentical(const FixedHistogram& a,
                                        const FixedHistogram& b,
                                        const char* field) {
  SCOPED_TRACE(field);
  EXPECT_EQ(a.lo(), b.lo());
  EXPECT_EQ(a.hi(), b.hi());
  EXPECT_EQ(a.bins(), b.bins());
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.nan_count(), b.nan_count());
}

inline void ExpectCellBitIdentical(const CellAccumulator& a,
                                   const CellAccumulator& b) {
  ExpectMomentsBitIdentical(a.violation_rate, b.violation_rate,
                            "violation_rate");
  ExpectMomentsBitIdentical(a.mean_duty, b.mean_duty, "mean_duty");
  ExpectMomentsBitIdentical(a.wasted_fraction, b.wasted_fraction,
                            "wasted_fraction");
  ExpectMomentsBitIdentical(a.min_soc, b.min_soc, "min_soc");
  ExpectMomentsBitIdentical(a.mape, b.mape, "mape");
  ExpectMomentsBitIdentical(a.cycles_per_wakeup, b.cycles_per_wakeup,
                            "cycles_per_wakeup");
  ExpectMomentsBitIdentical(a.ops_per_wakeup, b.ops_per_wakeup,
                            "ops_per_wakeup");
  ExpectMomentsBitIdentical(a.availability, b.availability, "availability");
  ExpectMomentsBitIdentical(a.post_recovery_violation_rate,
                            b.post_recovery_violation_rate,
                            "post_recovery_violation_rate");
  ExpectHistogramBitIdentical(a.violation_hist, b.violation_hist,
                              "violation_hist");
  ExpectHistogramBitIdentical(a.cycles_hist, b.cycles_hist, "cycles_hist");
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.scored_slots, b.scored_slots);
  EXPECT_EQ(a.downtime_slots, b.downtime_slots);
  EXPECT_EQ(a.recoveries, b.recoveries);
}

inline void ExpectSummaryBitIdentical(const FleetSummary& a,
                                      const FleetSummary& b) {
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    ExpectCellBitIdentical(a.stats[i], b.stats[i]);
  }
  EXPECT_EQ(a.ToTable(), b.ToTable());
  EXPECT_EQ(a.ToCsv(), b.ToCsv());
}

}  // namespace shep
