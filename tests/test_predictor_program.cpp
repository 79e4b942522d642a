// Tests for hw/predictor_program.hpp — the VM build of Eq. 1.
#include "hw/predictor_program.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

namespace shep {
namespace {

WcmaVmInputs RandomInputs(int k, Rng& rng) {
  WcmaVmInputs in;
  in.sample = rng.Uniform(0.0, 1.5);
  in.mu_next = rng.Uniform(0.01, 1.5);
  for (int i = 0; i < k; ++i) {
    in.recent_samples.push_back(rng.Uniform(0.0, 1.5));
    in.recent_mus.push_back(rng.Uniform(0.01, 1.5));
  }
  return in;
}

// Property: the VM-executed routine equals the double-precision formula
// for every K and a spread of α values.
class ProgramEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ProgramEquivalenceTest, VmMatchesReferenceFormula) {
  const auto [k, alpha] = GetParam();
  WcmaProgramLayout layout;
  layout.slots_k = k;
  layout.alpha = alpha;
  Rng rng(static_cast<std::uint64_t>(k * 1000 + alpha * 100));
  for (int rep = 0; rep < 50; ++rep) {
    const auto in = RandomInputs(k, rng);
    const auto run = RunWcmaOnVm(layout, in);
    ASSERT_TRUE(run.vm.ok());
    EXPECT_NEAR(run.prediction, ReferenceWcmaPrediction(layout, in), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KAlphaGrid, ProgramEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7),
                       ::testing::Values(0.0, 0.3, 0.7, 1.0)));

TEST(PredictorProgram, NightGuardBranchTaken) {
  WcmaProgramLayout layout;
  layout.slots_k = 2;
  layout.alpha = 0.5;
  WcmaVmInputs in;
  in.sample = 1.0;
  in.mu_next = 0.8;
  in.recent_samples = {0.5, 1.0};
  in.recent_mus = {0.0, 1.0};  // first slot is "night": η must become 1
  const auto run = RunWcmaOnVm(layout, in);
  ASSERT_TRUE(run.vm.ok());
  EXPECT_NEAR(run.prediction, ReferenceWcmaPrediction(layout, in), 1e-12);
  // And the reference treats η(0) as 1: Φ = (1/2·1 + 1·1)/1.5 = 1.
  EXPECT_NEAR(run.prediction, 0.5 * 1.0 + 0.5 * 0.8 * 1.0, 1e-12);
}

TEST(PredictorProgram, CyclesGrowMonotonicallyWithK) {
  // Table IV mechanism on the VM: each extra conditioning slot costs about
  // one more software division.
  WcmaProgramLayout layout;
  layout.alpha = 0.7;
  Rng rng(7);
  double prev_cycles = 0.0;
  const CycleCosts costs;
  for (int k = 1; k <= 7; ++k) {
    layout.slots_k = k;
    const auto in = RandomInputs(k, rng);
    const auto run = RunWcmaOnVm(layout, in, costs);
    ASSERT_TRUE(run.vm.ok());
    if (k > 1) {
      EXPECT_GT(run.vm.cycles, prev_cycles + 0.8 * costs.div) << "K=" << k;
    }
    prev_cycles = run.vm.cycles;
  }
}

TEST(PredictorProgram, AlphaZeroIsCheaperThanBlend) {
  Rng rng(11);
  const auto in = RandomInputs(7, rng);
  WcmaProgramLayout blend;
  blend.slots_k = 7;
  blend.alpha = 0.7;
  WcmaProgramLayout zero = blend;
  zero.alpha = 0.0;
  const auto run_blend = RunWcmaOnVm(blend, in);
  const auto run_zero = RunWcmaOnVm(zero, in);
  ASSERT_TRUE(run_blend.vm.ok() && run_zero.vm.ok());
  EXPECT_LT(run_zero.vm.cycles, run_blend.vm.cycles);
}

TEST(PredictorProgram, AlphaOneIsAlmostFree) {
  Rng rng(13);
  const auto in = RandomInputs(3, rng);
  WcmaProgramLayout one;
  one.slots_k = 3;
  one.alpha = 1.0;
  const auto run = RunWcmaOnVm(one, in);
  ASSERT_TRUE(run.vm.ok());
  EXPECT_DOUBLE_EQ(run.prediction, in.sample);
  EXPECT_EQ(run.vm.ops.div, 0u);
  EXPECT_LT(run.vm.instructions, 5u);
}

TEST(PredictorProgram, ValidatesInputs) {
  WcmaProgramLayout layout;
  layout.slots_k = 0;
  EXPECT_THROW(BuildWcmaPredictProgram(layout), std::invalid_argument);
  layout.slots_k = 2;
  layout.alpha = 1.5;
  EXPECT_THROW(BuildWcmaPredictProgram(layout), std::invalid_argument);

  layout = WcmaProgramLayout{};
  layout.slots_k = 3;
  WcmaVmInputs in;
  in.recent_samples = {1.0};  // wrong size
  in.recent_mus = {1.0, 1.0, 1.0};
  EXPECT_THROW(RunWcmaOnVm(layout, in), std::invalid_argument);
}

// Pins the routine's exact dynamic cost (and its prediction bits) for
// every (K, α) Table IV can ask for, with the night guard never and always
// taken.  Constants were captured from the interpreter before any change to
// the routine's encoding; a refactor of the VM or the program builder must
// leave every row untouched.
struct CostRow {
  int k;
  double alpha;
  bool night;  ///< every recent μ below the night guard (η forced to 1).
  double cycles;
  std::uint64_t instructions;
  OpCounts ops;
  double prediction;
};

WcmaVmInputs PinInputs(int k, bool night) {
  WcmaVmInputs in;
  in.sample = 0.9;
  in.mu_next = 1.1;
  for (int i = 0; i < k; ++i) {
    in.recent_samples.push_back(0.5 + 0.1 * i);
    in.recent_mus.push_back(night ? 0.0 : 0.6 + 0.05 * i);
  }
  return in;
}

TEST(PredictorProgram, CostsMatchCommittedTable) {
  // {K, α, night, cycles, instructions,
  //  {add, mul, div, load, store, branch}, prediction}
  const CostRow kRows[] = {
      {1, 0.0, false, 1180.0, 17, {2, 2, 2, 8, 1, 1}, 0x1.d555555555556p-1},
      {1, 0.0, true, 625.0, 18, {3, 2, 1, 8, 1, 2}, 0x1.199999999999ap+0},
      {1, 0.7, false, 1216.0, 23, {3, 4, 2, 11, 1, 1}, 0x1.cf5c28f5c28f6p-1},
      {1, 0.7, true, 661.0, 24, {4, 4, 1, 11, 1, 2}, 0x1.eb851eb851eb9p-1},
      {1, 1.0, false, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {1, 1.0, true, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {2, 0.0, false, 1769.0, 25, {4, 3, 3, 11, 1, 2}, 0x1.f707707707708p-1},
      {2, 0.0, true, 659.0, 27, {6, 3, 1, 11, 1, 4}, 0x1.199999999999ap+0},
      {2, 0.7, false, 1805.0, 31, {5, 5, 3, 14, 1, 2}, 0x1.d977fde644cacp-1},
      {2, 0.7, true, 695.0, 33, {7, 5, 1, 14, 1, 4}, 0x1.eb851eb851eb9p-1},
      {2, 1.0, false, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {2, 1.0, true, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {3, 0.0, false, 2358.0, 33, {6, 4, 4, 14, 1, 3}, 0x1.0a8ea8ea8ea8fp+0},
      {3, 0.0, true, 693.0, 36, {9, 4, 1, 14, 1, 6}, 0x1.199999999999ap+0},
      {3, 0.7, false, 2394.0, 39, {7, 6, 4, 17, 1, 3}, 0x1.e27e8e4f4b5b2p-1},
      {3, 0.7, true, 729.0, 42, {10, 6, 1, 17, 1, 6}, 0x1.eb851eb851eb9p-1},
      {3, 1.0, false, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {3, 1.0, true, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {4, 0.0, false, 2947.0, 41, {8, 5, 5, 17, 1, 4}, 0x1.18156cdbec771p+0},
      {4, 0.0, true, 727.0, 45, {12, 5, 1, 17, 1, 8}, 0x1.199999999999ap+0},
      {4, 0.7, false, 2983.0, 47, {9, 7, 5, 20, 1, 4}, 0x1.ea9c371350707p-1},
      {4, 0.7, true, 763.0, 51, {13, 7, 1, 20, 1, 8}, 0x1.eb851eb851eb9p-1},
      {4, 1.0, false, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {4, 1.0, true, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {5, 0.0, false, 3536.0, 49, {10, 6, 6, 20, 1, 5}, 0x1.24528cd6e1e91p+0},
      {5, 0.0, true, 761.0, 54, {15, 6, 1, 20, 1, 10}, 0x1.199999999999ap+0},
      {5, 0.7, false, 3572.0, 55, {11, 8, 6, 23, 1, 5}, 0x1.f1f417104a1b4p-1},
      {5, 0.7, true, 797.0, 60, {16, 8, 1, 23, 1, 10}, 0x1.eb851eb851eb9p-1},
      {5, 1.0, false, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {5, 1.0, true, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {6, 0.0, false, 4125.0, 57, {12, 7, 7, 23, 1, 6}, 0x1.2f750c65db72dp+0},
      {6, 0.0, true, 795.0, 63, {18, 7, 1, 23, 1, 12}, 0x1.199999999999ap+0},
      {6, 0.7, false, 4161.0, 63, {13, 9, 7, 26, 1, 6}, 0x1.f8a26399463abp-1},
      {6, 0.7, true, 831.0, 69, {19, 9, 1, 26, 1, 12}, 0x1.eb851eb851eb9p-1},
      {6, 1.0, false, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {6, 1.0, true, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {7, 0.0, false, 4714.0, 65, {14, 8, 8, 26, 1, 7}, 0x1.39a32a026ff6dp+0},
      {7, 0.0, true, 829.0, 72, {21, 8, 1, 26, 1, 14}, 0x1.199999999999ap+0},
      {7, 0.7, false, 4750.0, 71, {15, 10, 8, 29, 1, 7}, 0x1.febe0ef738f04p-1},
      {7, 0.7, true, 865.0, 78, {22, 10, 1, 29, 1, 14}, 0x1.eb851eb851eb9p-1},
      {7, 1.0, false, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
      {7, 1.0, true, 7.0, 3, {0, 0, 0, 1, 1, 0}, 0x1.ccccccccccccdp-1},
  };
  for (const CostRow& row : kRows) {
    WcmaProgramLayout layout;
    layout.slots_k = row.k;
    layout.alpha = row.alpha;
    const auto run = RunWcmaOnVm(layout, PinInputs(row.k, row.night));
    SCOPED_TRACE(::testing::Message() << "K=" << row.k << " a=" << row.alpha
                                      << " night=" << row.night);
    EXPECT_EQ(run.vm.cycles, row.cycles);
    EXPECT_EQ(run.vm.instructions, row.instructions);
    EXPECT_EQ(run.vm.ops.add, row.ops.add);
    EXPECT_EQ(run.vm.ops.mul, row.ops.mul);
    EXPECT_EQ(run.vm.ops.div, row.ops.div);
    EXPECT_EQ(run.vm.ops.load, row.ops.load);
    EXPECT_EQ(run.vm.ops.store, row.ops.store);
    EXPECT_EQ(run.vm.ops.branch, row.ops.branch);
    EXPECT_EQ(run.prediction, row.prediction);
  }
}

TEST(PredictorProgram, MemoryLayoutIsCompact) {
  WcmaProgramLayout layout;
  layout.slots_k = 4;
  EXPECT_EQ(layout.recent_mu_base(), 8u);
  EXPECT_EQ(layout.memory_words(), 12u);  // 4 + 2K: θ is immediate.
  // The routine touches exactly the layout's words, so VmWcmaPredictor's
  // VM, sized from the layout, passes Run's one memory check.
  EXPECT_EQ(BuildWcmaPredictProgram(layout).memory_words(),
            layout.memory_words());
}

}  // namespace
}  // namespace shep
