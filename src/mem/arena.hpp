// Page-aligned, node-bindable bump arenas. An Arena owns a small list of
// mmap'd slabs and serves allocations by bumping an offset; deallocation is a
// no-op and reset() rewinds the whole arena at once, consolidating to a
// single slab sized to the high watermark so a steady-state workload (one
// serve pack, one session's KV) stops touching the system allocator entirely
// after warmup. Slabs can be mbind()-bound to one NUMA node or interleaved
// across all of them; binding failures (no such node, sandboxed container,
// non-Linux) are silently ignored — placement is a locality hint, and
// first-touch by the (pinned) owning thread gives the same result on the
// common path. Arenas are single-owner and NOT thread-safe: one worker, one
// session, one provider each owns its own.
//
// The arena implements std::pmr::memory_resource, so std::pmr containers
// (Tensor storage, KvCache layers, RowNormWorkspace) allocate from it
// directly; do_deallocate is a no-op, which is exactly the right contract for
// per-pack scratch that dies wholesale at reset().
//
// Under AddressSanitizer every slab is poisoned when it is mapped and again at
// reset(), and allocate() unpoisons exactly the block it hands out, so a read
// of a previous pack's (or a previous run's) scratch is reported as
// use-after-poison instead of silently returning stale bytes.
//
// ArenaPool recycles whole arenas between owners: a serving Server keeps one
// for session KV arenas and one for worker scratch arenas, so their mapped,
// already-touched pages outlive any single run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <span>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define HAAN_ARENA_POISONING 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HAAN_ARENA_POISONING 1
#endif
#endif

namespace haan::mem {

struct ArenaOptions {
  /// First slab size; later slabs grow geometrically (and reset() replaces
  /// them with one slab sized to the peak). Rounded up to whole pages.
  std::size_t initial_bytes = std::size_t{1} << 20;

  /// Topology node INDEX to bind slabs to (-1 = unbound: first-touch decides
  /// placement, which lands node-local when the owner is pinned).
  int node = -1;

  /// Bind slabs interleaved across all nodes (wins over `node`).
  bool interleave = false;
};

struct ArenaStats {
  std::size_t reserved_bytes = 0;  ///< Σ slab sizes currently mapped
  std::size_t used_bytes = 0;      ///< bytes bumped since the last reset
  std::size_t peak_bytes = 0;      ///< high watermark of used_bytes (lifetime)
  std::uint64_t allocations = 0;   ///< allocate() calls (lifetime)
  /// allocate() calls that had to map a NEW slab. After watermark warmup this
  /// stops growing: reuse_ratio() -> 1.
  std::uint64_t slab_allocations = 0;
  std::uint64_t resets = 0;

  /// Fraction of allocations served from already-mapped slabs (1.0 when no
  /// allocation ever missed, or before any allocation).
  double reuse_ratio() const {
    return allocations == 0
               ? 1.0
               : 1.0 - static_cast<double>(slab_allocations) /
                           static_cast<double>(allocations);
  }

  /// The counters (allocations, slab_allocations, resets) accrued since the
  /// `before` sample of the same arena. The byte gauges are levels, not
  /// counts, so they stay zero.
  ArenaStats since(const ArenaStats& before) const {
    ArenaStats delta;
    delta.allocations = allocations - before.allocations;
    delta.slab_allocations = slab_allocations - before.slab_allocations;
    delta.resets = resets - before.resets;
    return delta;
  }

  /// Adds `other`'s counters (not its byte gauges) into this one.
  void add_counters(const ArenaStats& other) {
    allocations += other.allocations;
    slab_allocations += other.slab_allocations;
    resets += other.resets;
  }
};

class Arena final : public std::pmr::memory_resource {
 public:
  explicit Arena(ArenaOptions options = {});
  ~Arena() override;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` at `alignment` (power of two). Never fails short
  /// of mmap exhaustion; contents are unspecified (fresh slabs are
  /// kernel-zeroed, reused ones carry old bytes).
  void* allocate(std::size_t bytes,
                 std::size_t alignment = alignof(std::max_align_t));

  /// Typed convenience: `count` default-alignment elements.
  template <typename T>
  std::span<T> allocate_span(std::size_t count) {
    return {static_cast<T*>(allocate(count * sizeof(T), alignof(T))), count};
  }

  /// Rewinds the arena. Every pointer previously returned becomes invalid.
  /// When the bump high watermark outgrew the first slab, the slab list is
  /// consolidated into ONE slab covering the peak, so the next cycle of the
  /// same workload never maps again.
  void reset();

  const ArenaStats& stats() const { return stats_; }
  int node() const { return options_.node; }

 protected:
  void* do_allocate(std::size_t bytes, std::size_t alignment) override {
    return allocate(bytes, alignment);
  }
  void do_deallocate(void* /*p*/, std::size_t /*bytes*/,
                     std::size_t /*alignment*/) override {}
  bool do_is_equal(const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

 private:
  struct Slab {
    std::byte* base = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  Slab map_slab(std::size_t min_bytes);
  void unmap_slab(Slab& slab);
  void bind_slab(void* base, std::size_t size) const;

  ArenaOptions options_;
  std::vector<Slab> slabs_;
  ArenaStats stats_;
};

/// Mutex-guarded LIFO of idle arenas. An owner checks an arena out with
/// acquire(), resets it when done and hands it back with release(); the
/// most recently released arena is the next one acquired, so its pages are
/// the warmest. Arenas keep their consolidated slab while parked, so a
/// recycled arena serves the same workload without mapping again.
/// Thread-safe; the arenas themselves stay single-owner.
class ArenaPool {
 public:
  /// Pops the most recently released arena, or builds a new one from
  /// `options` when none is idle (options are ignored for a recycled arena).
  std::unique_ptr<Arena> acquire(const ArenaOptions& options);

  /// Parks `arena` for the next acquire(). The caller resets it first, so
  /// the reset (and any consolidation) lands in the caller's accounting.
  void release(std::unique_ptr<Arena> arena);

  /// Arenas currently parked.
  std::size_t idle() const;

  /// Arenas built over the pool's lifetime (parked or checked out).
  std::size_t created() const;

  /// Σ reserved bytes of the parked arenas.
  std::size_t reserved_bytes() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Arena>> idle_;
  std::size_t created_ = 0;
};

}  // namespace haan::mem
