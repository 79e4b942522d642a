// probe.hpp — the hook the node-sim kernel calls once per slot when
// tracing is on.
//
// SimulateNodeKernel takes its probe as a template parameter guarded by
// `if constexpr (Probe::kEnabled)`: with the default NoSlotProbe
// (mgmt/node_sim_kernel.hpp) the call sites vanish at compile time and the
// kernel is bit-for-bit the untraced build.  NodeTraceProbe is the enabled
// flavour the fleet runner instantiates — it packages each slot into a
// TraceEvent and TryPushes it onto the worker's ring, counting refusals —
// or, when the sink opts into block_on_full, yielding until the drain
// makes room so the event stream stays complete.
#pragma once

#include <cstdint>
#include <thread>

#include "trace/ring_buffer.hpp"

namespace shep {

/// Enabled per-slot probe bound to one node of one shard.  operator() is
/// the entire hot-path cost of tracing: build a POD, two atomic loads, one
/// release store.
struct NodeTraceProbe {
  static constexpr bool kEnabled = true;

  TraceRing* ring = nullptr;
  std::uint64_t shard = 0;
  std::uint64_t node = 0;
  std::uint64_t cell = 0;
  /// Shard-local refusal counter (owned by the runner's shard loop); the
  /// total rides the shard-end marker into the trace file footer.
  std::uint64_t* dropped = nullptr;
  /// Mirrors TraceSinkOptions::block_on_full: wait for the drain instead
  /// of dropping.  The drain's idle sleep is bounded (kDrainIdle, 200 µs),
  /// so the spin always resolves.
  bool block_on_full = false;

  void operator()(std::uint32_t slot, bool violated, double soc,
                  double predicted_w, double actual_w, double duty,
                  bool outage) const {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kSlot;
    event.violated = violated;
    event.outage = outage;
    event.slot = slot;
    event.shard = shard;
    event.node = node;
    event.cell = cell;
    event.soc = soc;
    event.predicted_w = predicted_w;
    event.actual_w = actual_w;
    event.duty = duty;
    if (ring->TryPush(event)) return;
    if (!block_on_full) {
      ++*dropped;
      return;
    }
    do {
      std::this_thread::yield();
    } while (!ring->TryPush(event));
  }
};

}  // namespace shep
