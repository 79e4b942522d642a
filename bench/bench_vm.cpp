// bench_vm — google-benchmark of the MicroVm interpreter and the WCMA
// prediction routine it executes (host-side speed; the modelled MCU cycle
// counts are what repro_table4 reports).
#include <benchmark/benchmark.h>

#include "common/constants.hpp"
#include "hw/predictor_program.hpp"
#include "hw/vm.hpp"

namespace {

using namespace shep;

WcmaVmInputs Inputs(int k) {
  WcmaVmInputs in;
  in.sample = 0.9;
  in.mu_next = 1.0;
  for (int i = 0; i < k; ++i) {
    in.recent_samples.push_back(0.8);
    in.recent_mus.push_back(0.95);
  }
  return in;
}

// Times the routine alone: the program is assembled and validated, the VM
// allocated and its inputs poked once, outside the timed loop, as
// VmWcmaPredictor does per wake-up.
void BM_WcmaRoutineByK(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  WcmaProgramLayout layout;
  layout.slots_k = k;
  layout.alpha = 0.7;
  const auto in = Inputs(k);
  const VmProgram program = BuildWcmaPredictProgram(layout);
  MicroVm vm(layout.memory_words());
  vm.Poke(WcmaProgramLayout::kAddrSample, in.sample);
  vm.Poke(WcmaProgramLayout::kAddrMuNext, in.mu_next);
  vm.Poke(WcmaProgramLayout::kAddrEpsilon, kNightEpsilonW);
  for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i) {
    vm.Poke(WcmaProgramLayout::kAddrRecentBase + i, in.recent_samples[i]);
    vm.Poke(layout.recent_mu_base() + i, in.recent_mus[i]);
  }
  const WcmaVmRun reference = RunWcmaOnVm(layout, in);
  VmResult run = vm.Run(program);
  if (!run.ok() ||
      vm.Peek(WcmaProgramLayout::kAddrOutput) != reference.prediction) {
    state.SkipWithError("prebuilt run disagrees with RunWcmaOnVm");
    return;
  }
  for (auto _ : state) {
    run = vm.Run(program);
    benchmark::DoNotOptimize(run.cycles);
  }
  state.counters["modelled_msp430_cycles"] = run.cycles;
}
BENCHMARK(BM_WcmaRoutineByK)->DenseRange(1, 7, 1);

void BM_InterpreterLoop(benchmark::State& state) {
  // Tight arithmetic loop to measure raw interpreter dispatch cost.
  MicroVm vm(4);
  const VmProgram prog({
      {Op::kLoadImm, 0, 0, 0, 0.0},    {Op::kLoadImm, 1, 0, 0, 1000.0},
      {Op::kLoadImm, 2, 0, 0, 0.0},    {Op::kLoadImm, 3, 0, 0, 1.0},
      {Op::kAdd, 0, 0, 3, 0.0},        {Op::kSub, 1, 1, 3, 0.0},
      {Op::kJgt, 4, 1, 2, 0.0},        {Op::kStore, 0, 0, 0, 0.0},
      {Op::kHalt, 0, 0, 0, 0.0},
  });
  for (auto _ : state) {
    const auto r = vm.Run(prog, 100000);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 3000);
}
BENCHMARK(BM_InterpreterLoop);

}  // namespace
