// Arena lifecycle: bump allocation and alignment, reset semantics
// (reuse-after-reset bit-identity of the data path, watermark growth and slab
// consolidation, reuse_ratio convergence), the pmr memory_resource contract
// consumed by Tensor/KvCache/RowNormWorkspace, node/interleave binding as a
// crash-free hint, the thread-local ScratchScope routing with
// HAAN_NUMA=off falling back to the legacy heap path, the ArenaPool that
// recycles whole arenas, and (ASan builds) poisoning of reset scratch.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "mem/arena.hpp"
#include "mem/scratch.hpp"
#include "mem/topology.hpp"

#ifdef HAAN_ARENA_POISONING
#include <sanitizer/asan_interface.h>
#endif

namespace haan::mem {
namespace {

TEST(Arena, AllocationsRespectAlignment) {
  Arena arena;
  for (const std::size_t alignment : {1u, 2u, 8u, 16u, 64u, 256u, 4096u}) {
    void* p = arena.allocate(3, alignment);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignment, 0u)
        << "alignment " << alignment;
  }
  EXPECT_EQ(arena.stats().allocations, 7u);
}

TEST(Arena, ReuseAfterResetIsBitIdentical) {
  // The same allocation sequence replayed after reset() lands on the same
  // slab bytes and computes the same values — the property the serving path
  // relies on when it recycles a worker's scratch arena pack after pack.
  Arena arena(ArenaOptions{std::size_t{1} << 16});
  std::vector<float> first_cycle;
  void* first_base = nullptr;
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::span<float> a = arena.allocate_span<float>(512);
    std::span<float> b = arena.allocate_span<float>(256);
    if (cycle == 0) first_base = a.data();
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<float>(i) * 0.25f + 1.0f;
    }
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = a[i] - a[i + 256];
    if (cycle == 0) {
      first_cycle.assign(b.begin(), b.end());
    } else {
      EXPECT_EQ(a.data(), first_base) << "cycle " << cycle;
      EXPECT_EQ(std::memcmp(b.data(), first_cycle.data(),
                            b.size() * sizeof(float)),
                0)
          << "cycle " << cycle;
    }
    arena.reset();
  }
  EXPECT_EQ(arena.stats().resets, 3u);
}

TEST(Arena, WatermarkGrowthConsolidatesAndReuseConverges) {
  // Start far below the workload's footprint: the first cycle maps extra
  // slabs; reset() consolidates to one slab covering the peak, after which
  // identical cycles never map again and reuse_ratio climbs toward 1.
  Arena arena(ArenaOptions{std::size_t{1} << 12});  // one page
  const auto cycle = [&arena] {
    for (int i = 0; i < 8; ++i) arena.allocate(std::size_t{1} << 14);
    arena.reset();
  };
  cycle();
  const ArenaStats warm = arena.stats();
  EXPECT_GT(warm.slab_allocations, 0u);
  EXPECT_GE(warm.peak_bytes, 8u * (std::size_t{1} << 14));
  EXPECT_GE(warm.reserved_bytes, warm.peak_bytes);

  for (int i = 0; i < 32; ++i) cycle();
  const ArenaStats steady = arena.stats();
  EXPECT_EQ(steady.slab_allocations, warm.slab_allocations)
      << "post-consolidation cycles must not map new slabs";
  EXPECT_GE(steady.reuse_ratio(), 0.95);
  EXPECT_EQ(steady.used_bytes, 0u);  // just reset
  EXPECT_EQ(steady.allocations, 33u * 8u);
}

TEST(Arena, StatsSinceCountsOnlyGrowth) {
  Arena arena(ArenaOptions{std::size_t{1} << 12});
  arena.allocate(std::size_t{1} << 14);
  arena.reset();
  const ArenaStats before = arena.stats();
  arena.allocate(64);
  arena.allocate(64);
  arena.reset();
  const ArenaStats delta = arena.stats().since(before);
  EXPECT_EQ(delta.allocations, 2u);
  EXPECT_EQ(delta.slab_allocations, 0u);  // the consolidated slab fits
  EXPECT_EQ(delta.resets, 1u);
  EXPECT_EQ(delta.reserved_bytes, 0u);  // levels are not deltas

  ArenaStats sum;
  sum.add_counters(delta);
  sum.add_counters(delta);
  EXPECT_EQ(sum.allocations, 4u);
  EXPECT_EQ(sum.resets, 2u);
}

TEST(ArenaPool, RecyclesLastReleasedArenaWithItsSlab) {
  ArenaPool pool;
  std::unique_ptr<Arena> a = pool.acquire(ArenaOptions{std::size_t{1} << 16});
  std::unique_ptr<Arena> b = pool.acquire(ArenaOptions{std::size_t{1} << 16});
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(pool.idle(), 0u);
  void* a_block = a->allocate(std::size_t{1} << 18);  // maps a 256 KiB slab
  const Arena* a_raw = a.get();
  const Arena* b_raw = b.get();
  a->reset();
  b->reset();
  const std::size_t a_reserved = a->stats().reserved_bytes;
  pool.release(std::move(b));
  pool.release(std::move(a));
  EXPECT_EQ(pool.idle(), 2u);
  EXPECT_EQ(pool.reserved_bytes(), a_reserved + b_raw->stats().reserved_bytes);

  // LIFO: the most recently released arena comes back first, consolidated,
  // so the same workload lands on the same bytes without mapping again.
  std::unique_ptr<Arena> again = pool.acquire(ArenaOptions{});
  EXPECT_EQ(again.get(), a_raw);
  const std::uint64_t slabs = again->stats().slab_allocations;
  EXPECT_EQ(again->allocate(std::size_t{1} << 18), a_block);
  EXPECT_EQ(again->stats().slab_allocations, slabs);
  EXPECT_EQ(pool.acquire(ArenaOptions{}).get(), b_raw);
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_EQ(pool.reserved_bytes(), 0u);
}

#ifdef HAAN_ARENA_POISONING
TEST(ArenaDeathTest, ReadAfterResetIsReportedUnderAsan) {
  // Reset poisons the slab: a read of the previous cycle's scratch is a
  // use-after-poison report, not a silent stale value.
  EXPECT_DEATH(
      {
        Arena arena;
        std::span<float> block = arena.allocate_span<float>(256);
        block[7] = 1.0f;
        arena.reset();
        volatile float stale = block[7];
        (void)stale;
      },
      "use-after-poison");
}

TEST(Arena, AllocateUnpoisonsOnlyTheBlock) {
  Arena arena;
  std::span<char> block = arena.allocate_span<char>(40);
  EXPECT_FALSE(__asan_address_is_poisoned(block.data()));
  EXPECT_FALSE(__asan_address_is_poisoned(block.data() + 39));
  EXPECT_TRUE(__asan_address_is_poisoned(block.data() + 4096));
  arena.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(block.data()));
}
#endif

TEST(Arena, NodeAndInterleaveBindingAreCrashFreeHints) {
  // mbind failures (sandbox, single node, bogus node id) are ignored by
  // contract: allocation and first-touch must work under every option.
  for (const ArenaOptions options :
       {ArenaOptions{std::size_t{1} << 16, 0, false},
        ArenaOptions{std::size_t{1} << 16, -1, true},
        ArenaOptions{std::size_t{1} << 16, 999, false}}) {
    Arena arena(options);
    std::span<double> s = arena.allocate_span<double>(1024);
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
    EXPECT_EQ(s[1023], 1023.0);
  }
}

TEST(Arena, PmrContainersAllocateFromArenaAndOutliveDeallocate) {
  Arena arena;
  {
    std::pmr::vector<float> v(&arena);
    v.reserve(10);
    for (int i = 0; i < 1000; ++i) v.push_back(static_cast<float>(i));
    EXPECT_EQ(v[999], 999.0f);
    // Growth reallocations went through do_allocate; do_deallocate is a no-op
    // so the discarded buffers just stay bumped.
    EXPECT_GT(arena.stats().allocations, 1u);
    EXPECT_GE(arena.stats().used_bytes, 1000u * sizeof(float));
  }
  // Vector destruction "freed" into the no-op; the arena still rewinds clean.
  arena.reset();
  EXPECT_EQ(arena.stats().used_bytes, 0u);
}

TEST(ScratchScope, RoutesCurrentResourceAndNests) {
  EXPECT_EQ(current_scratch(), nullptr);
  EXPECT_EQ(current_resource(), std::pmr::get_default_resource());
  Arena outer_arena, inner_arena;
  {
    ScratchScope outer(&outer_arena);
    EXPECT_EQ(current_scratch(), &outer_arena);
    EXPECT_EQ(current_resource(), &outer_arena);
    {
      ScratchScope inner(&inner_arena);
      EXPECT_EQ(current_scratch(), &inner_arena);
    }
    EXPECT_EQ(current_scratch(), &outer_arena);
    {
      // nullptr scope = mode-agnostic no-op: routing stays untouched.
      ScratchScope noop(nullptr);
      EXPECT_EQ(current_scratch(), &outer_arena);
    }
  }
  EXPECT_EQ(current_scratch(), nullptr);
  EXPECT_EQ(current_resource(), std::pmr::get_default_resource());
}

TEST(ScratchScope, StealAssignKeepsArenaBufferWithoutCopying) {
  Arena arena;
  std::pmr::vector<float> src(&arena);
  src.assign(256, 3.5f);
  const float* buffer = src.data();
  std::pmr::vector<float> dst;  // default resource — pmr move-assign would copy
  steal_assign(dst, std::move(src));
  EXPECT_EQ(dst.data(), buffer);
  EXPECT_EQ(dst.size(), 256u);
  EXPECT_EQ(dst[255], 3.5f);
  EXPECT_EQ(dst.get_allocator().resource(), &arena);
}

TEST(NumaMode, OffDisablesPlacementAndRestores) {
  set_numa_mode_override(NumaMode::kOff);
  EXPECT_EQ(numa_mode(), NumaMode::kOff);
  EXPECT_FALSE(placement_enabled());
  // HAAN_NUMA=off means the legacy allocator path: call sites that gate arena
  // creation on placement_enabled() build none, and a nullptr ScratchScope
  // leaves every allocation on the default resource.
  EXPECT_EQ(current_resource(), std::pmr::get_default_resource());

  set_numa_mode_override(NumaMode::kAuto);
  EXPECT_TRUE(placement_enabled());
  set_numa_mode_override(NumaMode::kInterleave);
  EXPECT_EQ(numa_mode(), NumaMode::kInterleave);
  EXPECT_TRUE(placement_enabled());
  clear_numa_mode_override();
}

}  // namespace
}  // namespace haan::mem
