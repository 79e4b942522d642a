// Tests for timeseries/history.hpp — the E_{D×N} matrix.
#include "timeseries/history.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace shep {
namespace {

std::vector<double> DayOf(double value, std::size_t n) {
  return std::vector<double>(n, value);
}

// Appends one whole day, slot by slot.
void PushDay(HistoryMatrix& h, const std::vector<double>& day) {
  for (double v : day) h.Append(v);
}
void PushDay(HistoryMatrix& h, std::initializer_list<double> day) {
  PushDay(h, std::vector<double>(day));
}

TEST(HistoryMatrix, StartsEmpty) {
  HistoryMatrix h(3, 4);
  EXPECT_EQ(h.stored_days(), 0u);
  EXPECT_EQ(h.capacity_days(), 3u);
  EXPECT_EQ(h.slots_per_day(), 4u);
}

TEST(HistoryMatrix, FillsToCapacity) {
  HistoryMatrix h(2, 4);
  PushDay(h, DayOf(1.0, 4));
  EXPECT_EQ(h.stored_days(), 1u);
  PushDay(h, DayOf(2.0, 4));
  EXPECT_EQ(h.stored_days(), 2u);
  PushDay(h, DayOf(3.0, 4));
  EXPECT_EQ(h.stored_days(), 2u);  // saturates
}

TEST(HistoryMatrix, AtAgeOrdersNewestFirst) {
  HistoryMatrix h(3, 2);
  PushDay(h, {1.0, 10.0});
  PushDay(h, {2.0, 20.0});
  PushDay(h, {3.0, 30.0});
  EXPECT_DOUBLE_EQ(h.at_age(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(h.at_age(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(h.at_age(2, 1), 10.0);
}

TEST(HistoryMatrix, EvictsOldestWhenFull) {
  HistoryMatrix h(2, 1);
  PushDay(h, {1.0});
  PushDay(h, {2.0});
  PushDay(h, {3.0});  // evicts 1.0
  EXPECT_DOUBLE_EQ(h.at_age(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(h.at_age(1, 0), 2.0);
  EXPECT_THROW(h.at_age(2, 0), std::invalid_argument);
}

TEST(HistoryMatrix, MuIsColumnAverage) {
  // Eq. 2: μ_D(j) = Σ e(i,j) / D.
  HistoryMatrix h(3, 2);
  PushDay(h, {1.0, 4.0});
  PushDay(h, {2.0, 5.0});
  PushDay(h, {3.0, 6.0});
  EXPECT_DOUBLE_EQ(h.Mu(0), 2.0);
  EXPECT_DOUBLE_EQ(h.Mu(1), 5.0);
}

TEST(HistoryMatrix, MuOfASmallerMatrixUsesNewestDays) {
  // The same three days through matrices of capacity 1, 2 and 3: each
  // averages only the days it still holds.
  const auto mu = [](std::size_t capacity) {
    HistoryMatrix h(capacity, 1);
    PushDay(h, {1.0});
    PushDay(h, {2.0});
    PushDay(h, {9.0});
    return h.Mu(0);
  };
  EXPECT_DOUBLE_EQ(mu(1), 9.0);
  EXPECT_DOUBLE_EQ(mu(2), 5.5);
  EXPECT_DOUBLE_EQ(mu(3), 4.0);
}

TEST(HistoryMatrix, MuBeforeFullUsesStoredDaysOnly) {
  HistoryMatrix h(5, 1);
  PushDay(h, {4.0});
  PushDay(h, {8.0});
  EXPECT_DOUBLE_EQ(h.Mu(0), 6.0);  // averages the stored days only
}

TEST(HistoryMatrix, MuValidation) {
  HistoryMatrix h(2, 2);
  EXPECT_THROW(h.Mu(0), std::invalid_argument);  // empty
  PushDay(h, {1.0, 2.0});
  EXPECT_THROW(h.Mu(2), std::invalid_argument);  // bad slot
}

TEST(HistoryMatrix, AppendRollsTheDayOverAtItsLastSlot) {
  HistoryMatrix h(2, 3);
  EXPECT_FALSE(h.has_sample());
  h.Append(1.0);
  h.Append(2.0);
  EXPECT_TRUE(h.has_sample());
  EXPECT_DOUBLE_EQ(h.last_sample(), 2.0);
  EXPECT_EQ(h.next_slot(), 2u);
  EXPECT_EQ(h.stored_days(), 0u);  // the day is still in progress
  h.Append(3.0);
  EXPECT_EQ(h.next_slot(), 0u);
  EXPECT_EQ(h.stored_days(), 1u);
  EXPECT_DOUBLE_EQ(h.at_age(0, 2), 3.0);
  h.Append(4.0);  // slot 0 of the next day
  EXPECT_DOUBLE_EQ(h.Mu(0), 1.0);  // today's sample is not history yet
}

TEST(HistoryMatrix, ClearRestoresTheConstructedState) {
  HistoryMatrix h(2, 2);
  PushDay(h, {1.0, 2.0});
  PushDay(h, {3.0, 4.0});
  h.Append(5.0);
  h.Clear();
  EXPECT_EQ(h.stored_days(), 0u);
  EXPECT_EQ(h.next_slot(), 0u);
  EXPECT_FALSE(h.has_sample());
  EXPECT_DOUBLE_EQ(h.last_sample(), 0.0);
  PushDay(h, {7.0, 8.0});
  EXPECT_EQ(h.stored_days(), 1u);
  EXPECT_DOUBLE_EQ(h.Mu(0), 7.0);
  EXPECT_DOUBLE_EQ(h.Mu(1), 8.0);
}

TEST(HistoryMatrix, RejectsZeroDimensions) {
  EXPECT_THROW(HistoryMatrix(0, 4), std::invalid_argument);
  EXPECT_THROW(HistoryMatrix(4, 0), std::invalid_argument);
}

// Property: after pushing many days into a D-capacity ring, Mu equals the
// arithmetic mean of the last min(D, pushed) values, for any D.
class HistoryWindowTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HistoryWindowTest, MuMatchesDirectAverage) {
  const std::size_t capacity = GetParam();
  HistoryMatrix h(capacity, 1);
  std::vector<double> pushed;
  for (int day = 0; day < 30; ++day) {
    const double v = 0.5 * day + (day % 3);
    PushDay(h, {v});
    pushed.push_back(v);
    const std::size_t w = std::min(capacity, pushed.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < w; ++i) acc += pushed[pushed.size() - 1 - i];
    EXPECT_NEAR(h.Mu(0), acc / static_cast<double>(w), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, HistoryWindowTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace shep
