// history.hpp — the E_{D×N} matrix of past days' slot samples (paper Fig. 3),
// fed one slot at a time.
//
// The prediction algorithm keeps the boundary samples of the last D days in a
// D×N matrix and uses the per-slot column averages μ_D(j) (Eq. 2).  On the
// target microcontroller this matrix is the predictor's dominant memory cost
// (D*N 16-bit words), which is why the paper's guideline "D ≈ 10–11 suffices"
// matters.  HistoryMatrix is the streaming state every history-based
// predictor shares: a day-granular ring buffer of completed days, plus
// today's partial day, the slot cursor and the last sample.  Append feeds
// one boundary sample; completing a day pushes it into the ring, evicting
// the oldest day in O(N).  Storage is sized once, at construction.
#pragma once

#include <cstddef>
#include <vector>

namespace shep {

/// Ring buffer of the last `capacity_days` completed days of per-slot
/// samples, plus the day in progress.
class HistoryMatrix {
 public:
  /// \param capacity_days  D: how many past days are retained (>= 1).
  /// \param slots_per_day  N: slots per day (>= 1).
  HistoryMatrix(std::size_t capacity_days, std::size_t slots_per_day);

  std::size_t capacity_days() const { return capacity_; }
  std::size_t slots_per_day() const { return slots_; }

  /// Number of completed days currently stored (saturates at capacity).
  std::size_t stored_days() const { return stored_; }

  /// Records the boundary sample of slot next_slot() of the current day.
  /// The sample that completes a day pushes that day into the matrix,
  /// evicting the oldest day when at capacity, and the cursor wraps to 0.
  void Append(double sample) {
    current_day_[next_slot_] = sample;
    last_sample_ = sample;
    has_sample_ = true;
    if (++next_slot_ == slots_) PushCurrentDay();
  }

  /// Slot-of-day the next Append fills.
  std::size_t next_slot() const { return next_slot_; }

  /// True once any sample has been appended.
  bool has_sample() const { return has_sample_; }

  /// The most recently appended sample (0 before the first Append).
  double last_sample() const { return last_sample_; }

  /// Back to the just-constructed state, reusing the storage.
  void Clear();

  /// Sample of slot `slot` on the `age`-th most recent completed day (age 0
  /// = the most recently completed day).  Requires age < stored_days().
  double at_age(std::size_t age, std::size_t slot) const;

  /// μ_D(slot): average of the slot's samples over the most recent
  /// min(capacity, stored) days (Eq. 2), so before the matrix fills it
  /// averages the days stored so far (the paper starts evaluation at day 21
  /// so that the matrix is full for D = 20).  Requires stored_days() > 0.
  double Mu(std::size_t slot) const;

 private:
  /// Copies the completed current day into the ring; rewinds the cursor.
  void PushCurrentDay();

  std::size_t capacity_;
  std::size_t slots_;
  std::size_t stored_ = 0;
  std::size_t next_row_ = 0;          // ring-buffer write position
  std::vector<double> data_;          // capacity x slots, row-major
  std::vector<double> current_day_;   // today's samples so far
  std::size_t next_slot_ = 0;
  double last_sample_ = 0.0;
  bool has_sample_ = false;
};

}  // namespace shep
