#include "common/arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace osrs {

void ReleaseAligned(void* pointer, size_t bytes, size_t alignment) {
  if (bytes >= kReleasedBlockBytes) {
    // Only pages wholly inside the block, which hold nothing but the
    // caller's data: whatever malloc writes there after the free faults in
    // a zero page, and malloc never reads what it did not write.
    static const uintptr_t page =
        static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    const uintptr_t start = reinterpret_cast<uintptr_t>(pointer);
    const uintptr_t begin = (start + page - 1) / page * page;
    const uintptr_t end = (start + bytes) / page * page;
    if (end > begin) {
      madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
    }
  }
  ::operator delete(pointer, std::align_val_t(alignment));
}

Arena& PerThreadSolveArena() {
  // One arena per thread, warmed across solves. thread_local construction
  // is lazy, so threads that never solve pay nothing.
  thread_local Arena arena;
  return arena;
}

}  // namespace osrs
