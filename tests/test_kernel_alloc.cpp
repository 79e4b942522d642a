// The slot kernel allocates nothing (the `root(hot-path-alloc)` contract of
// mgmt/node_sim_kernel.hpp), checked at run time: this binary replaces
// every form of the global operator new/delete with a counting forwarder to
// malloc/free, and asserts that a whole SimulateNodeKernel run — Reset()
// at entry, warm-up, fault recoveries and all — makes zero allocations, for
// every PredictorKind, with and without the trace probe and fault model.
// Construction may allocate; only the kernel call is counted.  Because
// every form forwards to malloc/free, the sanitizer builds run it as is.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "fleet/faults.hpp"
#include "fleet/visit_predictor.hpp"
#include "mgmt/node_sim_kernel.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"
#include "trace/probe.hpp"
#include "trace/ring_buffer.hpp"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      size == 0 ? alignment : (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return CountedAlignedAlloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return CountedAlignedAlloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace shep {
namespace {

constexpr std::size_t kDays = 30;

SlotSeries MakeSeries() {
  SynthOptions opt;
  opt.days = kDays;
  return SlotSeries(SynthesizeTrace(SiteByCode("HSU"), opt), 48);
}

NodeSimConfig MakeConfig() {
  NodeSimConfig c;
  c.duty.slot_seconds = 1800.0;
  c.duty.active_power_w = 0.40;
  c.storage.capacity_j = 3000.0;
  c.warmup_days = 20;
  return c;
}

PredictorSpec SpecOf(PredictorKind kind) {
  PredictorSpec spec;
  spec.kind = kind;
  spec.wcma.alpha = 0.7;
  spec.wcma.days = 10;
  spec.wcma.slots_k = 3;
  spec.ar.order = 3;
  spec.ar.days = 10;
  return spec;
}

/// Allocations made by one kernel run (the predictor already exists).
template <class P, class Probe, class Faults>
std::uint64_t KernelAllocations(P& predictor, const SlotSeries& series,
                                const NodeSimConfig& config,
                                const Probe& probe, Faults faults,
                                NodeSimResult& result) {
  const std::uint64_t before = t_allocations;
  result = SimulateNodeKernel(predictor, series, config, probe, faults);
  return t_allocations - before;
}

TEST(KernelAllocations, CounterSeesHeapAllocations) {
  const std::uint64_t before = t_allocations;
  {
    std::unique_ptr<double[]> block(new double[64]);
    volatile double* escape = block.get();  // keeps the allocation alive.
    escape[0] = 1.0;
  }
  EXPECT_EQ(t_allocations - before, 1u);
}

TEST(KernelAllocations, EveryKindRunsAllocationFreeProbedAndFaulted) {
  const SlotSeries series = MakeSeries();
  const NodeSimConfig config = MakeConfig();

  FaultSpec faults;
  faults.outage_rate_per_day = 1.0;
  faults.outage_mean_slots = 6.0;
  faults.dropout_rate_per_day = 1.0;
  faults.dropout_mean_slots = 4.0;
  faults.panel_decay_per_day = 0.001;
  faults.battery_aging_per_day = 0.002;
  FaultSchedule schedule;
  BuildFaultSchedule(faults, 0xFA17u, kDays, 48, schedule);
  ASSERT_FALSE(schedule.outages.empty());
  ASSERT_FALSE(schedule.dropouts.empty());

  // A ring smaller than the run: the probe both pushes and drops.
  TraceRing ring(256);
  std::uint64_t dropped = 0;
  NodeTraceProbe probe;
  probe.ring = &ring;
  probe.dropped = &dropped;

  for (PredictorKind kind :
       {PredictorKind::kWcma, PredictorKind::kWcmaFixed,
        PredictorKind::kWcmaVm, PredictorKind::kEwma, PredictorKind::kAr,
        PredictorKind::kAdaptiveWcma, PredictorKind::kPersistence,
        PredictorKind::kPreviousDay}) {
    SCOPED_TRACE(PredictorKindName(kind));
    VisitPredictor(SpecOf(kind), 48, [&](auto& predictor) {
      NodeSimResult r;
      EXPECT_EQ(KernelAllocations(predictor, series, config, NoSlotProbe{},
                                  NoFaultModel{}, r),
                0u)
          << "healthy, untraced";
      EXPECT_GT(r.slots, 0u);
      EXPECT_EQ(KernelAllocations(predictor, series, config, probe,
                                  NoFaultModel{}, r),
                0u)
          << "healthy, traced";
      EXPECT_EQ(KernelAllocations(predictor, series, config, NoSlotProbe{},
                                  FaultModel(schedule), r),
                0u)
          << "faulted, untraced";
      EXPECT_GT(r.recoveries, 0u);  // Reset() ran mid-run.
      EXPECT_EQ(KernelAllocations(predictor, series, config, probe,
                                  FaultModel(schedule), r),
                0u)
          << "faulted, traced";
    });
  }
  EXPECT_GT(dropped, 0u);
}

}  // namespace
}  // namespace shep
