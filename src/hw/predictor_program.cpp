#include "hw/predictor_program.hpp"

#include <string>
#include <utility>

#include "common/check.hpp"

namespace shep {

void WcmaProgramLayout::Validate() const {
  SHEP_REQUIRE(slots_k >= 1, "K must be >= 1");
  SHEP_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
}

VmProgram BuildWcmaPredictProgram(const WcmaProgramLayout& layout) {
  layout.Validate();
  const int k_total = layout.slots_k;
  const bool alpha_zero = layout.alpha == 0.0;
  const bool alpha_one = layout.alpha == 1.0;

  // Register allocation:
  //   r0 num, r1 den, r2 sample, r3 mu, r4 eta/scratch, r5 theta,
  //   r6 epsilon, r7 accumulator/result, r8 constant 1.0.
  std::vector<Instr> p;
  auto emit = [&p](Op op, int a = 0, int b = 0, int c = 0, double imm = 0.0) {
    p.push_back(Instr{op, a, b, c, imm});
    return static_cast<int>(p.size()) - 1;
  };

  if (alpha_one) {
    // ê = ẽ(n): no conditioning at all.
    emit(Op::kLoad, 7, static_cast<int>(WcmaProgramLayout::kAddrSample));
    emit(Op::kStore, 7, static_cast<int>(WcmaProgramLayout::kAddrOutput));
    emit(Op::kHalt);
    return VmProgram(std::move(p));
  }

  emit(Op::kLoadImm, 0, 0, 0, 0.0);  // num = 0
  emit(Op::kLoadImm, 1, 0, 0, 0.0);  // den = 0
  emit(Op::kLoadImm, 8, 0, 0, 1.0);  // const 1
  emit(Op::kLoad, 6, static_cast<int>(WcmaProgramLayout::kAddrEpsilon));

  for (int k = 0; k < k_total; ++k) {
    const int addr_sample =
        static_cast<int>(WcmaProgramLayout::kAddrRecentBase) + k;
    const int addr_mu = static_cast<int>(layout.recent_mu_base()) + k;
    const double theta =
        static_cast<double>(k + 1) / static_cast<double>(k_total);

    emit(Op::kLoad, 2, addr_sample);
    emit(Op::kLoad, 3, addr_mu);
    // if (mu > eps) goto ratio; eta = 1; goto accumulate;
    const int jgt_at = emit(Op::kJgt, /*target=*/0, 3, 6);
    emit(Op::kMov, 4, 8);                  // eta = 1
    const int jmp_at = emit(Op::kJmp, 0);  // goto accumulate
    p[static_cast<std::size_t>(jgt_at)].a = static_cast<int>(p.size());
    emit(Op::kDiv, 4, 2, 3);               // eta = sample / mu
    p[static_cast<std::size_t>(jmp_at)].a = static_cast<int>(p.size());
    emit(Op::kLoadImm, 5, 0, 0, theta);
    emit(Op::kMul, 4, 5, 4);               // theta * eta
    emit(Op::kAdd, 0, 0, 4);               // num += ...
    emit(Op::kAdd, 1, 1, 5);               // den += theta
  }

  emit(Op::kDiv, 7, 0, 1);  // phi = num / den
  emit(Op::kLoad, 2, static_cast<int>(WcmaProgramLayout::kAddrMuNext));
  emit(Op::kMul, 7, 7, 2);  // conditioned = mu_next * phi

  if (!alpha_zero) {
    emit(Op::kLoadImm, 4, 0, 0, layout.alpha);
    emit(Op::kLoad, 5, static_cast<int>(WcmaProgramLayout::kAddrSample));
    emit(Op::kMul, 5, 4, 5);  // alpha * sample
    emit(Op::kLoadImm, 4, 0, 0, 1.0 - layout.alpha);
    emit(Op::kMul, 7, 4, 7);  // (1-alpha) * conditioned
    emit(Op::kAdd, 7, 7, 5);
  }
  emit(Op::kStore, 7, static_cast<int>(WcmaProgramLayout::kAddrOutput));
  emit(Op::kHalt);
  return VmProgram(std::move(p));
}

WcmaVmRun RunWcmaOnVm(const WcmaProgramLayout& layout,
                      const WcmaVmInputs& inputs, const CycleCosts& costs) {
  layout.Validate();
  const auto k = static_cast<std::size_t>(layout.slots_k);
  SHEP_REQUIRE(inputs.recent_samples.size() == k,
               "recent_samples must contain exactly K entries");
  SHEP_REQUIRE(inputs.recent_mus.size() == k,
               "recent_mus must contain exactly K entries");

  MicroVm vm(layout.memory_words(), costs);
  vm.Poke(WcmaProgramLayout::kAddrSample, inputs.sample);
  vm.Poke(WcmaProgramLayout::kAddrMuNext, inputs.mu_next);
  vm.Poke(WcmaProgramLayout::kAddrEpsilon, kNightEpsilonW);
  for (std::size_t i = 0; i < k; ++i) {
    vm.Poke(WcmaProgramLayout::kAddrRecentBase + i, inputs.recent_samples[i]);
    vm.Poke(layout.recent_mu_base() + i, inputs.recent_mus[i]);
  }

  WcmaVmRun run;
  run.vm = vm.Run(BuildWcmaPredictProgram(layout));
  SHEP_CHECK(run.vm.ok(), std::string("WCMA VM routine trapped: ") +
                              VmTrapName(run.vm.trap));
  run.prediction = vm.Peek(WcmaProgramLayout::kAddrOutput);
  return run;
}

double ReferenceWcmaPrediction(const WcmaProgramLayout& layout,
                               const WcmaVmInputs& inputs,
                               double night_epsilon) {
  layout.Validate();
  const auto k = static_cast<std::size_t>(layout.slots_k);
  SHEP_REQUIRE(inputs.recent_samples.size() == k &&
                   inputs.recent_mus.size() == k,
               "input windows must contain exactly K entries");
  if (layout.alpha == 1.0) return inputs.sample;
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double theta =
        static_cast<double>(i + 1) / static_cast<double>(k);
    const double eta = inputs.recent_mus[i] > night_epsilon
                           ? inputs.recent_samples[i] / inputs.recent_mus[i]
                           : 1.0;
    num += theta * eta;
    den += theta;
  }
  const double conditioned = inputs.mu_next * (num / den);
  return layout.alpha * inputs.sample + (1.0 - layout.alpha) * conditioned;
}

}  // namespace shep
