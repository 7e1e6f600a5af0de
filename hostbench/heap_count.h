// Counting global operator new for the benchmark binary: every heap
// allocation the process makes bumps one counter.
#pragma once

#include <cstdint>

namespace hostbench {

/// Heap allocations made by this process so far.
[[nodiscard]] std::uint64_t heap_allocs();

}  // namespace hostbench
