// Heap-allocation counter backed by the replaceable global operator new
// defined in alloc_counter.cpp. Each thread bumps its own cache-line
// slot, so the LP engine's workers do not contend on one counter.
#pragma once

#include <cstdint>

namespace perfbench {

// Allocations made by every thread so far. Exact when the other threads
// are idle (between RunUntil calls); otherwise a lower bound.
[[nodiscard]] std::uint64_t AllocationCount();

}  // namespace perfbench
