// Heap-allocation counting for the traced run. The benchmark binaries
// replace the global operator new (alloc_counter.cpp); counting is off
// unless a traced run switches it on around the calls it attributes.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

void set_alloc_counting(bool on);
AllocCount alloc_count();

}  // namespace perfbench
