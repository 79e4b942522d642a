// Trace-record serialization: the telemetry layer's exactness contract.
//
// Trace files cross process and machine boundaries like fleet partials
// do, so their records must round-trip doubles BIT-identically — including
// the representation's edge cases (signed zero, subnormals, infinities,
// NaN), mirroring tests/test_serdes.cpp for the shared hexfloat helpers.
// The suite also pins the ring buffer's loss accounting: a full ring DROPS
// and COUNTS, it never blocks and never lies.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "trace/record.hpp"
#include "trace/ring_buffer.hpp"
#include "trace/trace_file.hpp"

namespace shep {
namespace {

// EXPECT_EQ(0.0, -0.0) passes; comparing the bit patterns is the real
// exactness claim (and the only way to compare NaNs at all).
void ExpectBitIdentical(double expected, double actual) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected),
            std::bit_cast<std::uint64_t>(actual))
      << "expected " << expected << ", got " << actual;
}

/// The adversarial doubles: both zeros, the subnormal range's ends, a
/// subnormal with a busy mantissa, the finite extrema, and both infinities
/// (NaN is exercised separately — its bit pattern is not unique).
std::vector<double> EdgeValues() {
  return {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(std::uint64_t{0x000FFFFFFFFFFFFFull}),
      std::bit_cast<double>(std::uint64_t{0x000FEDCBA9876543ull}),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      1.0 / 3.0,
  };
}

TraceRecord RoundTrip(const TraceRecord& r) {
  std::stringstream ss;
  r.Serialize(ss);
  return TraceRecord::Deserialize(ss);
}

TraceDayRecord RoundTrip(const TraceDayRecord& r) {
  std::stringstream ss;
  r.Serialize(ss);
  return TraceDayRecord::Deserialize(ss);
}

TEST(TraceRecordSerde, SlotRecordRoundTripsDoubleEdges) {
  for (double value : EdgeValues()) {
    TraceRecord r;
    r.node = 123456789ull;
    r.cell = 42;
    r.slot = 4095;
    r.trigger_mask = kTraceTriggerSocLowWater | kTraceTriggerDivergence;
    r.violated = true;
    r.soc = value;
    r.predicted_w = -value;
    r.actual_w = value;
    r.duty = value;
    const TraceRecord back = RoundTrip(r);
    EXPECT_EQ(back.node, r.node);
    EXPECT_EQ(back.cell, r.cell);
    EXPECT_EQ(back.slot, r.slot);
    EXPECT_EQ(back.trigger_mask, r.trigger_mask);
    EXPECT_EQ(back.violated, r.violated);
    ExpectBitIdentical(r.soc, back.soc);
    ExpectBitIdentical(r.predicted_w, back.predicted_w);
    ExpectBitIdentical(r.actual_w, back.actual_w);
    ExpectBitIdentical(r.duty, back.duty);
  }
}

TEST(TraceRecordSerde, NanSurvivesAsNan) {
  TraceRecord r;
  r.predicted_w = std::numeric_limits<double>::quiet_NaN();
  const TraceRecord back = RoundTrip(r);
  EXPECT_TRUE(std::isnan(back.predicted_w));
}

TEST(TraceRecordSerde, DayRecordRoundTripsDoubleEdges) {
  for (double value : EdgeValues()) {
    TraceDayRecord r;
    r.node = 7;
    r.cell = 3;
    r.day = 29;
    r.slots = 48;
    r.violations = 48;
    r.min_soc = value;
    r.mean_duty = -value;
    r.max_abs_error_w = value;
    const TraceDayRecord back = RoundTrip(r);
    EXPECT_EQ(back.day, r.day);
    EXPECT_EQ(back.slots, r.slots);
    EXPECT_EQ(back.violations, r.violations);
    ExpectBitIdentical(r.min_soc, back.min_soc);
    ExpectBitIdentical(r.mean_duty, back.mean_duty);
    ExpectBitIdentical(r.max_abs_error_w, back.max_abs_error_w);
  }
}

TEST(TraceRecordSerde, RejectsMalformedRecords) {
  // Wrong leading token.
  {
    std::istringstream is("slit 1 2 3 0 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0");
    EXPECT_THROW((void)TraceRecord::Deserialize(is), std::exception);
  }
  // Unknown trigger bit (16 is outside the defined mask).
  {
    std::istringstream is("slot 1 2 3 16 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0");
    EXPECT_THROW((void)TraceRecord::Deserialize(is), std::exception);
  }
  // Violation flag must be 0/1.
  {
    std::istringstream is("slot 1 2 3 0 2 0x0p+0 0x0p+0 0x0p+0 0x0p+0");
    EXPECT_THROW((void)TraceRecord::Deserialize(is), std::exception);
  }
  // More violations than slots in a day summary.
  {
    std::istringstream is("day 1 2 3 10 11 0x0p+0 0x0p+0 0x0p+0");
    EXPECT_THROW((void)TraceDayRecord::Deserialize(is), std::exception);
  }
  // Truncated record.
  {
    std::istringstream is("slot 1 2 3 0 0 0x0p+0");
    EXPECT_THROW((void)TraceRecord::Deserialize(is), std::exception);
  }
}

TEST(TraceRecordSerde, TriggerNamesRoundTrip) {
  for (const TraceTrigger t :
       {kTraceTriggerViolationBurst, kTraceTriggerSocLowWater,
        kTraceTriggerDivergence, kTraceTriggerOutage}) {
    EXPECT_EQ(TraceTriggerFromName(TraceTriggerName(t)), t);
  }
  EXPECT_EQ(TraceTriggerFromName("not-a-trigger"), 0u);
  EXPECT_EQ(TraceTriggerMaskName(0), "-");
  EXPECT_EQ(
      TraceTriggerMaskName(kTraceTriggerViolationBurst |
                           kTraceTriggerDivergence | kTraceTriggerOutage),
      "violation-burst+divergence+outage");
}

TEST(TraceFileSerde, ShardFileRoundTripsExactly) {
  TraceShardFile file;
  file.scenario_name = "edges";
  file.fingerprint = 0xFEEDFACECAFEBEEFull;
  file.shard = 17;
  file.slots_per_day = 48;
  file.days = 30;
  file.cells.push_back({4, "HSU", "WCMA", 1500.0});
  file.cells.push_back({5, "PFCI", "WCMA#1", 6000.0});
  for (double value : EdgeValues()) {
    TraceRecord r;
    r.node = 12;
    r.cell = 4;
    r.slot = 100;
    r.trigger_mask = kTraceTriggerViolationBurst;
    r.soc = value;
    file.records.push_back(r);
    TraceDayRecord d;
    d.node = 13;
    d.cell = 5;
    d.day = 2;
    d.slots = 48;
    d.min_soc = value;
    file.day_records.push_back(d);
  }
  file.dropped_events = 9;

  std::stringstream ss;
  file.Serialize(ss);
  const TraceShardFile back = TraceShardFile::Parse(ss);
  EXPECT_EQ(back.scenario_name, file.scenario_name);
  EXPECT_EQ(back.fingerprint, file.fingerprint);
  EXPECT_EQ(back.shard, file.shard);
  EXPECT_EQ(back.slots_per_day, file.slots_per_day);
  EXPECT_EQ(back.days, file.days);
  ASSERT_EQ(back.cells.size(), file.cells.size());
  EXPECT_EQ(back.cells[1].site_code, "PFCI");
  EXPECT_EQ(back.cells[1].predictor_label, "WCMA#1");
  ExpectBitIdentical(file.cells[0].storage_j, back.cells[0].storage_j);
  ASSERT_EQ(back.records.size(), file.records.size());
  ASSERT_EQ(back.day_records.size(), file.day_records.size());
  for (std::size_t i = 0; i < file.records.size(); ++i) {
    ExpectBitIdentical(file.records[i].soc, back.records[i].soc);
    ExpectBitIdentical(file.day_records[i].min_soc,
                       back.day_records[i].min_soc);
  }
  EXPECT_EQ(back.dropped_events, 9u);

  // The round-tripped file re-serializes byte-identically.
  std::ostringstream again;
  back.Serialize(again);
  std::ostringstream first;
  file.Serialize(first);
  EXPECT_EQ(again.str(), first.str());
}

/// A shard file built by hand: two cells, a slot record and a day record
/// whose doubles sit at the edges of the representation (signed zero, a
/// subnormal, the finite extrema, an infinity, a NaN).
TraceShardFile PinnedShardFile() {
  TraceShardFile file;
  file.scenario_name = "pinned";
  file.fingerprint = 0xFEEDFACECAFEBEEFull;
  file.shard = 17;
  file.slots_per_day = 48;
  file.days = 30;
  file.cells.push_back({4, "HSU", "WCMA", 1500.0});
  file.cells.push_back({5, "PFCI", "WCMA#1", 0.1});
  TraceRecord r;
  r.node = 12;
  r.cell = 4;
  r.slot = 4095;
  r.trigger_mask = kTraceTriggerSocLowWater | kTraceTriggerOutage;
  r.violated = true;
  r.soc = -0.0;
  r.predicted_w = std::numeric_limits<double>::denorm_min();
  r.actual_w = std::numeric_limits<double>::quiet_NaN();
  r.duty = std::numeric_limits<double>::max();
  file.records.push_back(r);
  TraceDayRecord d;
  d.node = 13;
  d.cell = 5;
  d.day = 2;
  d.slots = 48;
  d.violations = 3;
  d.min_soc = std::numeric_limits<double>::min();
  d.mean_duty = 1.0 / 3.0;
  d.max_abs_error_w = -std::numeric_limits<double>::infinity();
  file.day_records.push_back(d);
  file.dropped_events = 9;
  return file;
}

/// The committed bytes of PinnedShardFile().Serialize(): the .shtr files
/// already on disk, which any rewrite of the serializer must reproduce.
const std::string kPinnedShardFileText = R"(shep-trace v1
scenario pinned
fingerprint 18369614221190020847
shard 17
slots_per_day 48
days 30
cells 2
cell 4 HSU WCMA 0x1.77p+10
cell 5 PFCI WCMA#1 0x1.999999999999ap-4
records 1
slot 12 4 4095 10 1 -0x0p+0 0x0.0000000000001p-1022 nan 0x1.fffffffffffffp+1023
day_records 1
day 13 5 2 48 3 0x1p-1022 0x1.5555555555555p-2 -inf
dropped 9
end
)";

TEST(TraceFileSerde, SerializeMatchesCommittedText) {
  std::ostringstream os;
  PinnedShardFile().Serialize(os);
  EXPECT_EQ(os.str(), kPinnedShardFileText);
  std::istringstream is(kPinnedShardFileText);
  std::ostringstream again;
  TraceShardFile::Parse(is).Serialize(again);
  EXPECT_EQ(again.str(), kPinnedShardFileText);
}

/// kPinnedShardFileText with its first `from` replaced by `to`, parsed.
TraceShardFile ParsePinnedWith(const std::string& from, const std::string& to) {
  std::string text = kPinnedShardFileText;
  text.replace(text.find(from), from.size(), to);
  std::istringstream is(text);
  return TraceShardFile::Parse(is);
}

// Counts and widths come off the wire, so a lie in one must end in
// std::invalid_argument: never in an allocation sized by the lie, never in
// a value silently narrowed to fit its field.
TEST(TraceFileSerde, ParseRejectsLyingCountsAndOverwideFields) {
  for (const std::string count : {"cells 2", "records 1", "day_records 1"}) {
    const std::string lie =
        count.substr(0, count.size() - 1) + "99999999999999";
    EXPECT_THROW((void)ParsePinnedWith(count, lie), std::invalid_argument)
        << lie;
  }
  // 2^32 + 48 and 2^32 + 30: one bit past what the 32-bit fields hold.
  EXPECT_THROW((void)ParsePinnedWith("slots_per_day 48",
                                     "slots_per_day 4294967344"),
               std::invalid_argument);
  EXPECT_THROW((void)ParsePinnedWith("days 30", "days 4294967326"),
               std::invalid_argument);
  // The unmodified text parses: the cases above fail on their lie alone.
  EXPECT_EQ(ParsePinnedWith("days 30", "days 30").days, 30u);
}

TEST(TraceRing, OverflowDropsAndCountsExactly) {
  TraceRing ring(8);  // rounds to capacity 8.
  ASSERT_EQ(ring.capacity(), 8u);
  TraceEvent e;
  std::size_t accepted = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    e.slot = i;
    if (ring.TryPush(e)) ++accepted;
  }
  // Exactly capacity events fit; every refusal is counted, never silent.
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(ring.dropped(), 12u);

  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.PopBatch(out, 100), 8u);
  ASSERT_EQ(out.size(), 8u);
  // FIFO order, and the survivors are the FIRST pushes (drops are the
  // latecomers, so a full ring preserves the oldest context).
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].slot, i);
  EXPECT_TRUE(ring.empty());

  // Space freed by the pop is reusable and the drop counter is monotonic.
  EXPECT_TRUE(ring.TryPush(e));
  EXPECT_EQ(ring.dropped(), 12u);
}

TEST(TraceRing, PopBatchHonorsMax) {
  TraceRing ring(8);
  TraceEvent e;
  for (std::uint32_t i = 0; i < 6; ++i) {
    e.slot = i;
    ASSERT_TRUE(ring.TryPush(e));
  }
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.PopBatch(out, 4), 4u);
  EXPECT_EQ(ring.PopBatch(out, 4), 2u);
  ASSERT_EQ(out.size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) EXPECT_EQ(out[i].slot, i);
}

}  // namespace
}  // namespace shep
