#include "hw/vm.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace shep {

std::string ToString(const Instr& instr) {
  std::ostringstream os;
  switch (instr.op) {
    case Op::kLoadImm:
      os << "loadi r" << instr.a << ", " << instr.imm;
      break;
    case Op::kLoad:
      os << "load  r" << instr.a << ", [" << instr.b << "]";
      break;
    case Op::kStore:
      os << "store [" << instr.b << "], r" << instr.a;
      break;
    case Op::kMov:
      os << "mov   r" << instr.a << ", r" << instr.b;
      break;
    case Op::kAdd:
      os << "add   r" << instr.a << ", r" << instr.b << ", r" << instr.c;
      break;
    case Op::kSub:
      os << "sub   r" << instr.a << ", r" << instr.b << ", r" << instr.c;
      break;
    case Op::kMul:
      os << "mul   r" << instr.a << ", r" << instr.b << ", r" << instr.c;
      break;
    case Op::kDiv:
      os << "div   r" << instr.a << ", r" << instr.b << ", r" << instr.c;
      break;
    case Op::kJmp:
      os << "jmp   " << instr.a;
      break;
    case Op::kJgt:
      os << "jgt   " << instr.a << ", r" << instr.b << ", r" << instr.c;
      break;
    case Op::kHalt:
      os << "halt";
      break;
  }
  return os.str();
}

namespace {

bool IsRegister(int r) { return r >= 0 && r < MicroVm::kRegisters; }

std::string At(std::size_t pc, const Instr& instr) {
  return "pc=" + std::to_string(pc) + " (" + ToString(instr) + ")";
}

}  // namespace

VmProgram::VmProgram(std::vector<Instr> code) : code_(std::move(code)) {
  SHEP_REQUIRE(!code_.empty(), "VM program must not be empty");
  for (std::size_t pc = 0; pc < code_.size(); ++pc) {
    const Instr& in = code_[pc];
    bool regs_ok = true;
    switch (in.op) {
      case Op::kLoadImm:
        regs_ok = IsRegister(in.a);
        break;
      case Op::kLoad:
      case Op::kStore:
        regs_ok = IsRegister(in.a);
        SHEP_REQUIRE(in.b >= 0, "negative address at " + At(pc, in));
        memory_words_ =
            std::max(memory_words_, static_cast<std::size_t>(in.b) + 1);
        break;
      case Op::kMov:
        regs_ok = IsRegister(in.a) && IsRegister(in.b);
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
        regs_ok = IsRegister(in.a) && IsRegister(in.b) && IsRegister(in.c);
        break;
      case Op::kJgt:
        regs_ok = IsRegister(in.b) && IsRegister(in.c);
        [[fallthrough]];
      case Op::kJmp:
        SHEP_REQUIRE(in.a >= 0 && static_cast<std::size_t>(in.a) < code_.size(),
                     "jump target outside the program at " + At(pc, in));
        break;
      case Op::kHalt:
        break;
      default:
        SHEP_REQUIRE(false, "unknown opcode at pc=" + std::to_string(pc));
    }
    SHEP_REQUIRE(regs_ok, "bad register at " + At(pc, in));
  }
  const Op last = code_.back().op;
  SHEP_REQUIRE(last == Op::kHalt || last == Op::kJmp,
               "VM program must end in halt or jmp, or it can run off its end");
}

const char* VmTrapName(VmTrap trap) {
  static constexpr const char* kNames[] = {"none", "division by zero",
                                           "step limit"};
  return kNames[static_cast<std::size_t>(trap)];
}

MicroVm::MicroVm(std::size_t memory_words, const CycleCosts& costs)
    : memory_(memory_words, 0.0), costs_(costs) {
  SHEP_REQUIRE(memory_words > 0, "VM memory must be non-empty");
  costs_.Validate();
}

void MicroVm::Poke(std::size_t address, double value) {
  SHEP_REQUIRE(address < memory_.size(), "Poke address out of range");
  memory_[address] = value;
}

double MicroVm::Peek(std::size_t address) const {
  SHEP_REQUIRE(address < memory_.size(), "Peek address out of range");
  return memory_[address];
}

// The program was validated when it was built and its addresses are checked
// against this VM's memory once below, so the loop indexes registers, memory
// and code without per-instruction checks.
// shep-lint: root(hot-path-alloc)
VmResult MicroVm::Run(const VmProgram& program, std::uint64_t max_steps) {
  SHEP_REQUIRE(program.memory_words() <= memory_.size(),
               "program addresses more memory than the VM has");
  VmResult result;
  double regs[kRegisters] = {};
  double* const mem = memory_.data();
  const Instr* const code = program.code().data();

  std::size_t pc = 0;
  for (std::uint64_t step = 0; step < max_steps; ++step) {
    const Instr& in = code[pc];
    ++result.instructions;
    switch (in.op) {
      case Op::kLoadImm:
        regs[in.a] = in.imm;
        result.cycles += costs_.load;
        result.ops.load += 1;
        ++pc;
        break;
      case Op::kLoad:
        regs[in.a] = mem[in.b];
        result.cycles += costs_.load;
        result.ops.load += 1;
        ++pc;
        break;
      case Op::kStore:
        mem[in.b] = regs[in.a];
        result.cycles += costs_.store;
        result.ops.store += 1;
        ++pc;
        break;
      case Op::kMov:
        regs[in.a] = regs[in.b];
        result.cycles += costs_.add;  // register move ~ one ALU slot
        result.ops.add += 1;
        ++pc;
        break;
      case Op::kAdd:
      case Op::kSub:
        regs[in.a] = in.op == Op::kAdd ? regs[in.b] + regs[in.c]
                                       : regs[in.b] - regs[in.c];
        result.cycles += costs_.add;
        result.ops.add += 1;
        ++pc;
        break;
      case Op::kMul:
        regs[in.a] = regs[in.b] * regs[in.c];
        result.cycles += costs_.mul;
        result.ops.mul += 1;
        ++pc;
        break;
      case Op::kDiv:
        if (regs[in.c] == 0.0) {
          result.trap = VmTrap::kDivisionByZero;
          return result;
        }
        regs[in.a] = regs[in.b] / regs[in.c];
        result.cycles += costs_.div;
        result.ops.div += 1;
        ++pc;
        break;
      case Op::kJmp:
        result.cycles += costs_.branch;
        result.ops.branch += 1;
        pc = static_cast<std::size_t>(in.a);
        break;
      case Op::kJgt:
        result.cycles += costs_.branch;
        result.ops.branch += 1;
        pc = regs[in.b] > regs[in.c] ? static_cast<std::size_t>(in.a) : pc + 1;
        break;
      case Op::kHalt:
        return result;
    }
  }
  result.trap = VmTrap::kStepLimit;
  return result;
}

}  // namespace shep
