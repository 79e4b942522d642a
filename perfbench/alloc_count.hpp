// alloc_count.hpp — heap allocations made by the calling thread.
#pragma once

#include <cstdint>

namespace perfbench {

/// Calls to the global operator new (any form) made by the calling thread
/// since it started.  Take the difference around a call for its count.
std::uint64_t ThreadAllocations();

}  // namespace perfbench
