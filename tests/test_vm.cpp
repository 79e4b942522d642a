// Tests for hw/vm.hpp — VmProgram validation, MicroVm semantics and cycle
// accounting.
#include "hw/vm.hpp"

#include <gtest/gtest.h>

#include <string>

namespace shep {
namespace {

TEST(MicroVm, LoadStoreRoundTrip) {
  MicroVm vm(8);
  vm.Poke(2, 42.5);
  const VmProgram prog({
      {Op::kLoad, 0, 2, 0, 0.0},
      {Op::kStore, 0, 3, 0, 0.0},
      {Op::kHalt, 0, 0, 0, 0.0},
  });
  const auto r = vm.Run(prog);
  ASSERT_TRUE(r.ok()) << VmTrapName(r.trap);
  EXPECT_DOUBLE_EQ(vm.Peek(3), 42.5);
  EXPECT_EQ(r.instructions, 3u);
}

TEST(MicroVm, ArithmeticOps) {
  MicroVm vm(8);
  const VmProgram prog({
      {Op::kLoadImm, 0, 0, 0, 6.0}, {Op::kLoadImm, 1, 0, 0, 4.0},
      {Op::kAdd, 2, 0, 1, 0.0},     {Op::kStore, 2, 0, 0, 0.0},
      {Op::kSub, 2, 0, 1, 0.0},     {Op::kStore, 2, 1, 0, 0.0},
      {Op::kMul, 2, 0, 1, 0.0},     {Op::kStore, 2, 2, 0, 0.0},
      {Op::kDiv, 2, 0, 1, 0.0},     {Op::kStore, 2, 3, 0, 0.0},
      {Op::kMov, 3, 2, 0, 0.0},     {Op::kStore, 3, 4, 0, 0.0},
      {Op::kHalt, 0, 0, 0, 0.0},
  });
  const auto r = vm.Run(prog);
  ASSERT_TRUE(r.ok()) << VmTrapName(r.trap);
  EXPECT_DOUBLE_EQ(vm.Peek(0), 10.0);
  EXPECT_DOUBLE_EQ(vm.Peek(1), 2.0);
  EXPECT_DOUBLE_EQ(vm.Peek(2), 24.0);
  EXPECT_DOUBLE_EQ(vm.Peek(3), 1.5);
  EXPECT_DOUBLE_EQ(vm.Peek(4), 1.5);
}

TEST(MicroVm, BranchesAndLoop) {
  // Sum 1..5 with a jgt loop.
  MicroVm vm(4);
  const VmProgram prog({
      {Op::kLoadImm, 0, 0, 0, 0.0},  // acc
      {Op::kLoadImm, 1, 0, 0, 5.0},  // i = 5
      {Op::kLoadImm, 2, 0, 0, 0.0},  // zero
      {Op::kLoadImm, 3, 0, 0, 1.0},  // one
      // loop:
      {Op::kAdd, 0, 0, 1, 0.0},      // acc += i
      {Op::kSub, 1, 1, 3, 0.0},      // i -= 1
      {Op::kJgt, 4, 1, 2, 0.0},      // if i > 0 goto loop
      {Op::kStore, 0, 0, 0, 0.0},
      {Op::kHalt, 0, 0, 0, 0.0},
  });
  const auto r = vm.Run(prog);
  ASSERT_TRUE(r.ok()) << VmTrapName(r.trap);
  EXPECT_DOUBLE_EQ(vm.Peek(0), 15.0);
}

TEST(MicroVm, CycleAccountingUsesCosts) {
  CycleCosts costs;
  costs.load = 3;
  costs.store = 4;
  costs.add = 2;
  MicroVm vm(4, costs);
  const VmProgram prog({
      {Op::kLoadImm, 0, 0, 0, 1.0},  // load: 3
      {Op::kAdd, 0, 0, 0, 0.0},      // add: 2
      {Op::kStore, 0, 0, 0, 0.0},    // store: 4
      {Op::kHalt, 0, 0, 0, 0.0},
  });
  const auto r = vm.Run(prog);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.cycles, 9.0);
  EXPECT_EQ(r.ops.load, 1u);
  EXPECT_EQ(r.ops.add, 1u);
  EXPECT_EQ(r.ops.store, 1u);
}

TEST(MicroVm, DivisionCostsDominateInMix) {
  CycleCosts costs;  // defaults: div >> mul
  MicroVm vm(4, costs);
  const VmProgram prog({
      {Op::kLoadImm, 0, 0, 0, 6.0},
      {Op::kLoadImm, 1, 0, 0, 3.0},
      {Op::kDiv, 2, 0, 1, 0.0},
      {Op::kHalt, 0, 0, 0, 0.0},
  });
  const auto r = vm.Run(prog);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.cycles, costs.div);
  EXPECT_LT(r.cycles, costs.div + 10.0);
}

TEST(MicroVm, TrapsOnDivideByZero) {
  MicroVm vm(4);
  const VmProgram prog({
      {Op::kLoadImm, 0, 0, 0, 1.0},
      {Op::kLoadImm, 1, 0, 0, 0.0},
      {Op::kDiv, 2, 0, 1, 0.0},
      {Op::kHalt, 0, 0, 0, 0.0},
  });
  const auto r = vm.Run(prog);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.trap, VmTrap::kDivisionByZero);
  EXPECT_EQ(std::string(VmTrapName(r.trap)), "division by zero");
  EXPECT_EQ(r.instructions, 3u);  // the trapping divide counts, unpriced.
  EXPECT_EQ(r.ops.div, 0u);
}

TEST(MicroVm, TrapsOnRunawayProgram) {
  MicroVm vm(4);
  const VmProgram prog({
      {Op::kJmp, 0, 0, 0, 0.0},  // infinite loop
  });
  const auto r = vm.Run(prog, 1000);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.trap, VmTrap::kStepLimit);
  EXPECT_EQ(r.instructions, 1000u);
}

TEST(MicroVm, RejectsProgramLargerThanItsMemory) {
  MicroVm vm(4);
  const VmProgram prog({
      {Op::kLoad, 0, 99, 0, 0.0},
      {Op::kHalt, 0, 0, 0, 0.0},
  });
  EXPECT_EQ(prog.memory_words(), 100u);
  EXPECT_THROW(vm.Run(prog), std::invalid_argument);
  MicroVm big(100);
  EXPECT_TRUE(big.Run(prog).ok());
}

TEST(MicroVm, PokePeekValidation) {
  MicroVm vm(4);
  EXPECT_THROW(vm.Poke(4, 1.0), std::invalid_argument);
  EXPECT_THROW(vm.Peek(4), std::invalid_argument);
  EXPECT_THROW(MicroVm(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// VmProgram: every malformed program is refused when it is built.
// ---------------------------------------------------------------------------

TEST(VmProgram, RecordsHighestAddress) {
  EXPECT_EQ(VmProgram({{Op::kHalt, 0, 0, 0, 0.0}}).memory_words(), 0u);
  const VmProgram prog({
      {Op::kLoad, 0, 5, 0, 0.0},
      {Op::kStore, 0, 2, 0, 0.0},
      {Op::kHalt, 0, 0, 0, 0.0},
  });
  EXPECT_EQ(prog.memory_words(), 6u);
  EXPECT_EQ(prog.code().size(), 3u);
}

TEST(VmProgram, RejectsBadRegister) {
  EXPECT_THROW(VmProgram({{Op::kLoadImm, 77, 0, 0, 1.0},
                          {Op::kHalt, 0, 0, 0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(VmProgram({{Op::kAdd, 0, 1, -1, 0.0},
                          {Op::kHalt, 0, 0, 0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(VmProgram({{Op::kJgt, 0, MicroVm::kRegisters, 0, 0.0},
                          {Op::kHalt, 0, 0, 0, 0.0}}),
               std::invalid_argument);
}

TEST(VmProgram, RejectsNegativeAddress) {
  EXPECT_THROW(VmProgram({{Op::kStore, 0, -1, 0, 0.0},
                          {Op::kHalt, 0, 0, 0, 0.0}}),
               std::invalid_argument);
}

TEST(VmProgram, RejectsJumpOutsideTheProgram) {
  // One past the end used to be a legal target that trapped at run time.
  EXPECT_THROW(VmProgram({{Op::kJmp, 1, 0, 0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(VmProgram({{Op::kJgt, -1, 0, 1, 0.0},
                          {Op::kHalt, 0, 0, 0, 0.0}}),
               std::invalid_argument);
}

TEST(VmProgram, RejectsEmptyProgram) {
  EXPECT_THROW(VmProgram({}), std::invalid_argument);
}

TEST(VmProgram, RejectsProgramThatCanRunOffItsEnd) {
  EXPECT_THROW(VmProgram({{Op::kLoadImm, 0, 0, 0, 1.0}}),
               std::invalid_argument);
  // A conditional branch falls through when not taken.
  EXPECT_THROW(VmProgram({{Op::kHalt, 0, 0, 0, 0.0},
                          {Op::kJgt, 0, 0, 1, 0.0}}),
               std::invalid_argument);
}

TEST(VmProgram, RejectsUnknownOpcode) {
  EXPECT_THROW(VmProgram({{static_cast<Op>(200), 0, 0, 0, 0.0},
                          {Op::kHalt, 0, 0, 0, 0.0}}),
               std::invalid_argument);
}

TEST(VmProgram, ErrorNamesTheInstruction) {
  try {
    const VmProgram prog({{Op::kHalt, 0, 0, 0, 0.0},
                          {Op::kMul, 1, 2, 30, 0.0},
                          {Op::kHalt, 0, 0, 0, 0.0}});
    FAIL() << "malformed program accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pc=1 (mul   r1, r2, r30)"),
              std::string::npos)
        << e.what();
  }
}

TEST(ToStringInstr, RendersAllOpcodes) {
  EXPECT_NE(ToString({Op::kLoadImm, 1, 0, 0, 2.5}).find("loadi"),
            std::string::npos);
  EXPECT_NE(ToString({Op::kDiv, 1, 2, 3, 0.0}).find("div"),
            std::string::npos);
  EXPECT_NE(ToString({Op::kJgt, 5, 1, 2, 0.0}).find("jgt"),
            std::string::npos);
  EXPECT_NE(ToString({Op::kHalt, 0, 0, 0, 0.0}).find("halt"),
            std::string::npos);
}

}  // namespace
}  // namespace shep
