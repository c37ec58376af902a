#ifndef OSRS_COMMON_ARENA_H_
#define OSRS_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/logging.h"

namespace osrs {

/// Bump allocator for per-solve scratch (rounding weights and draws,
/// local-search swap state). Greedy keeps its scratch in its GreedyRun
/// instead, because a run outlives the solve that started it. Every allocation is 64-byte aligned —
/// one cache line, and the alignment the SIMD kernels (common/simd.h)
/// want for streaming lane loads — and costs one pointer bump; memory is
/// reclaimed wholesale by rewinding to a mark, never per object.
///
/// Lifetime rules (see DESIGN.md, "Performance architecture"):
///   - Only trivially destructible element types: nothing is destroyed at
///     rewind, the bytes are simply reused (enforced by static_assert).
///   - Arena-backed storage must never escape the ArenaFrame that
///     allocated it. In particular no Status/Result payload and no
///     SummaryResult field may point into the arena — copy into owned
///     containers before returning.
///   - Frames nest: a solver called inside another's open frame opens
///     its own, which rewinds first (LIFO).
///
/// Blocks grow geometrically and are retained across rewinds, so a warmed
/// arena allocates nothing at steady state. One instance is not
/// thread-safe; use PerThreadSolveArena() for the per-thread singleton the
/// solvers and the serving layer's worker pool share.
class Arena {
 public:
  static constexpr size_t kAlignment = 64;

  explicit Arena(size_t initial_bytes = 1 << 16)
      : initial_bytes_(initial_bytes < kAlignment ? kAlignment
                                                  : initial_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// A rewind point: everything allocated after Position() is reclaimed by
  /// Rewind(). Marks must be rewound in LIFO order (ArenaFrame enforces
  /// this structurally).
  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };

  Mark Position() const { return Mark{current_block_, CurrentUsed()}; }

  void Rewind(const Mark& mark) {
    OSRS_DCHECK_LE(mark.block, blocks_.size());
    for (size_t b = mark.block + 1; b < blocks_.size(); ++b) {
      blocks_[b].used = 0;
    }
    if (mark.block < blocks_.size()) {
      blocks_[mark.block].used = mark.used;
    }
    current_block_ = mark.block;
  }

  /// Uninitialized 64-byte-aligned array of `count` Ts. T must be
  /// trivially destructible: the arena never runs destructors.
  template <typename T>
  std::span<T> AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena scratch is reclaimed without running destructors");
    static_assert(alignof(T) <= kAlignment);
    T* data = static_cast<T*>(AllocateBytes(count * sizeof(T)));
    return {data, count};
  }

  /// Raw 64-byte-aligned storage of `bytes` bytes.
  void* AllocateBytes(size_t bytes) {
    if (bytes == 0) bytes = kAlignment;  // distinct non-null allocations
    size_t rounded = RoundUp(bytes);
    while (current_block_ < blocks_.size()) {
      Block& block = blocks_[current_block_];
      if (block.used + rounded <= block.size) {
        void* out = block.aligned + block.used;
        block.used += rounded;
        return out;
      }
      if (current_block_ + 1 == blocks_.size()) break;
      ++current_block_;
      OSRS_DCHECK_EQ(blocks_[current_block_].used, 0u);
    }
    AddBlock(rounded);
    Block& block = blocks_[current_block_];
    void* out = block.aligned + block.used;
    block.used += rounded;
    return out;
  }

  /// Total bytes reserved across all blocks (diagnostic).
  size_t TotalReserved() const {
    size_t total = 0;
    for (const Block& block : blocks_) total += block.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> storage;  // over-allocated by kAlignment
    std::byte* aligned = nullptr;
    size_t size = 0;
    size_t used = 0;
  };

  static size_t RoundUp(size_t bytes) {
    return (bytes + kAlignment - 1) & ~(kAlignment - 1);
  }

  size_t CurrentUsed() const {
    return current_block_ < blocks_.size() ? blocks_[current_block_].used : 0;
  }

  void AddBlock(size_t min_bytes) {
    size_t size = blocks_.empty() ? initial_bytes_ : blocks_.back().size * 2;
    if (size < min_bytes) size = RoundUp(min_bytes);
    Block block;
    block.storage = std::make_unique<std::byte[]>(size + kAlignment);
    auto raw = reinterpret_cast<uintptr_t>(block.storage.get());
    block.aligned = block.storage.get() +
                    ((kAlignment - raw % kAlignment) % kAlignment);
    block.size = size;
    block.used = 0;
    blocks_.push_back(std::move(block));
    current_block_ = blocks_.size() - 1;
  }

  size_t initial_bytes_;
  std::vector<Block> blocks_;
  size_t current_block_ = 0;
};

/// RAII frame over an arena: records the position on entry and rewinds on
/// exit. Everything a solver allocates inside its frame is scratch; the
/// bytes are recycled for the next solve on the same thread.
class ArenaFrame {
 public:
  explicit ArenaFrame(Arena& arena)
      : arena_(arena), mark_(arena.Position()) {}
  ~ArenaFrame() { arena_.Rewind(mark_); }

  ArenaFrame(const ArenaFrame&) = delete;
  ArenaFrame& operator=(const ArenaFrame&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// The per-thread solve arena. Solvers open an ArenaFrame on it per solve;
/// because it is thread-local, the serving layer's long-lived worker
/// threads (and BatchSummarizer workers) reuse the same warmed blocks
/// across every solve they run, eliminating steady-state scratch
/// allocation entirely.
Arena& PerThreadSolveArena();

/// Frees AlignedAllocator storage. A block of at least kReleasedBlockBytes
/// first hands its whole pages back to the kernel (MADV_DONTNEED): such
/// blocks are the coverage graphs' CSR lanes, large and long-lived, and
/// freed by whichever thread drops the graph last. Left in the per-thread
/// malloc arenas, their pages would keep the process's resident memory
/// near its high-water mark after the graphs are gone.
void ReleaseAligned(void* pointer, size_t bytes, size_t alignment);
inline constexpr size_t kReleasedBlockBytes = size_t{1} << 20;

/// Allocator placing std::vector storage on 64-byte boundaries — used for
/// the structure-of-arrays CSR lanes of the coverage graph so SIMD kernels
/// see cache-line-aligned lane starts.
template <typename T, size_t Alignment = Arena::kAlignment>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}  // NOLINT

  T* allocate(size_t count) {
    return static_cast<T*>(
        ::operator new(count * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* pointer, size_t count) {
    ReleaseAligned(pointer, count * sizeof(T), Alignment);
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace osrs

#endif  // OSRS_COMMON_ARENA_H_
