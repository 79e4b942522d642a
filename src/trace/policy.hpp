// policy.hpp — selective persistence: which observed slots are worth
// keeping at full resolution.
//
// The policy walks one node's complete slot sequence and flags trigger
// slots — violation bursts, SoC low-water crossings, predictor-divergence
// spikes — then persists a full-resolution window of slots around each
// trigger (the slots that EXPLAIN the event, before and after).  Slots
// outside every window collapse into per-day TraceDayRecords, so the
// timeline stays gap-free at coarse resolution.
//
// ApplyTracePolicy is a pure function of (events, slots_per_day): no
// clocks, no randomness, no global state, no options.  The same node
// sequence always yields the same records, which is what makes per-shard
// trace files reproducible across thread counts and process boundaries.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "trace/ring_buffer.hpp"

namespace shep {

/// What counts as "interesting".  These are constants, not options: every
/// traced run (in process, sharded, or through the coordinator, whose
/// workers cannot carry a policy) must persist the same slots, so trace
/// files of one campaign never depend on how it was run.
///
/// Full-resolution slots kept on EACH side of a trigger slot.
inline constexpr std::uint32_t kTraceWindowSlots = 6;
/// SoC fraction whose downward crossing triggers a window.
inline constexpr double kTraceSocLowWater = 0.15;
/// Relative prediction error |predicted − actual| / actual above which a
/// slot counts as a divergence spike (actual must be daylight — above the
/// night epsilon — for the ratio to mean anything).
inline constexpr double kTraceDivergenceMape = 0.75;
/// A burst is this many violations...
inline constexpr std::uint32_t kTraceBurstViolations = 3;
/// ...inside a trailing window of this many slots.
inline constexpr std::uint32_t kTraceBurstWindowSlots = 8;

/// Distills one node's in-order slot events into full-resolution records
/// (inside trigger windows) plus per-day summaries (everywhere else),
/// appending to `records` / `day_records`.  `events` must all be kSlot
/// events of a single node, ascending by slot; `slots_per_day` buckets the
/// summaries.
void ApplyTracePolicy(const std::vector<TraceEvent>& events,
                      std::uint32_t slots_per_day,
                      std::vector<TraceRecord>& records,
                      std::vector<TraceDayRecord>& day_records);

}  // namespace shep
