// vm.hpp — MicroVm: a cycle-counted register machine in the MSP430's image.
//
// The paper measures the predictor's computation cost by running it on the
// real MSP430F1611.  Our substitute executes the same routine on a small
// virtual machine whose instruction set mirrors what the MSP430 toolchain
// would emit for fixed-point C code: register/memory moves, add/sub, a
// hardware-multiplier multiply, a SLOW software divide, compares and
// branches.  Each executed instruction is charged its CycleCosts price, so
// a program's cycle count — and through ActiveCycleEnergyJ() its energy —
// falls out of actually running the algorithm rather than from a hand
// estimate.  A program is validated once, when its VmProgram is built, so
// the interpreter loop holds only the semantics and the cycle accounting;
// its only run-time traps are a division by zero and the step limit.
// tests/test_vm.cpp pins the semantics; test_predictor_program cross-checks
// the VM-computed prediction against the double-precision WCMA formula and
// pins the routine's exact costs.
//
// Values are doubles for semantic clarity (the cost model, not the bit
// width, is what we need from the VM); the fixed-point rounding story is
// covered separately by core/wcma_fixed.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/mcu_spec.hpp"

namespace shep {

/// MicroVm opcodes.  Three-address form: fields a, b, c are register
/// indices or memory addresses depending on the opcode.  Every address is
/// static, so validating a program covers all of its memory accesses.
enum class Op : std::uint8_t {
  kLoadImm,  ///< r[a] = imm
  kLoad,     ///< r[a] = mem[b]
  kStore,    ///< mem[b] = r[a]
  kMov,      ///< r[a] = r[b]
  kAdd,      ///< r[a] = r[b] + r[c]
  kSub,      ///< r[a] = r[b] - r[c]
  kMul,      ///< r[a] = r[b] * r[c]   (hardware multiplier)
  kDiv,      ///< r[a] = r[b] / r[c]   (software divide; traps on /0)
  kJmp,      ///< pc = a
  kJgt,      ///< if (r[b] > r[c]) pc = a
  kHalt,     ///< stop
};

/// One instruction.  `imm` is used by kLoadImm only.
struct Instr {
  Op op = Op::kHalt;
  int a = 0;
  int b = 0;
  int c = 0;
  double imm = 0.0;
};

/// Human-readable rendering for validation errors and test messages.
std::string ToString(const Instr& instr);

/// A MicroVm program, checked once when it is built: register indices in
/// [0, MicroVm::kRegisters), addresses non-negative, jump targets inside
/// the program, and a non-empty body ending in kHalt or kJmp so execution
/// cannot run off its end.  Throws std::invalid_argument otherwise.
class VmProgram {
 public:
  explicit VmProgram(std::vector<Instr> code);

  const std::vector<Instr>& code() const { return code_; }
  /// Data words the program touches: one past its highest load/store
  /// address (0 when it touches none).
  std::size_t memory_words() const { return memory_words_; }

 private:
  std::vector<Instr> code_;
  std::size_t memory_words_ = 0;
};

/// Why a run stopped early: the only run-time traps, since everything else
/// a program could get wrong is rejected when its VmProgram is built.
enum class VmTrap : std::uint8_t { kNone, kDivisionByZero, kStepLimit };

/// Lowercase name of a trap, for messages.
const char* VmTrapName(VmTrap trap);

/// Outcome of a program run.
struct VmResult {
  VmTrap trap = VmTrap::kNone;
  double cycles = 0.0;           ///< cycle-cost sum of executed instructions.
  std::uint64_t instructions = 0;
  OpCounts ops;                  ///< dynamic op mix (for energy accounting).

  bool ok() const { return trap == VmTrap::kNone; }
};

/// The virtual machine.  Construct with a memory size, Poke inputs, Run a
/// program, Peek outputs.
class MicroVm {
 public:
  static constexpr int kRegisters = 16;

  /// \param memory_words  data memory size.
  /// \param costs         cycle prices per instruction class.
  explicit MicroVm(std::size_t memory_words, const CycleCosts& costs = {});

  void Poke(std::size_t address, double value);
  double Peek(std::size_t address) const;

  /// Executes `program` from pc=0 until kHalt, a trap, or `max_steps`.
  /// Registers are zeroed at entry.  Memory persists across runs.  Throws
  /// std::invalid_argument if the program addresses more memory than the
  /// VM has; allocates nothing.
  VmResult Run(const VmProgram& program, std::uint64_t max_steps = 1'000'000);

 private:
  std::vector<double> memory_;
  CycleCosts costs_;
};

}  // namespace shep
