#include "mem/arena.hpp"

#include <algorithm>
#include <new>

#ifdef __linux__
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#ifdef HAAN_ARENA_POISONING
#include <sanitizer/asan_interface.h>
#endif

#include "common/assert.hpp"
#include "mem/topology.hpp"

namespace haan::mem {

namespace {

std::size_t page_size() {
#ifdef __linux__
  static const std::size_t size = [] {
    const long value = sysconf(_SC_PAGESIZE);
    return value > 0 ? static_cast<std::size_t>(value) : 4096u;
  }();
  return size;
#else
  return 4096;
#endif
}

std::size_t round_up(std::size_t bytes, std::size_t unit) {
  return (bytes + unit - 1) / unit * unit;
}

// ASan shadow bookkeeping; no-ops in uninstrumented builds.
void poison(void* base, std::size_t bytes) {
#ifdef HAAN_ARENA_POISONING
  ASAN_POISON_MEMORY_REGION(base, bytes);
#else
  (void)base;
  (void)bytes;
#endif
}

void unpoison(void* base, std::size_t bytes) {
#ifdef HAAN_ARENA_POISONING
  ASAN_UNPOISON_MEMORY_REGION(base, bytes);
#else
  (void)base;
  (void)bytes;
#endif
}

#if defined(__linux__) && defined(SYS_mbind)
// From <linux/mempolicy.h>, defined locally so the build never needs libnuma
// or kernel headers beyond the syscall number.
constexpr int kMpolBind = 2;
constexpr int kMpolInterleave = 3;
#endif

}  // namespace

Arena::Arena(ArenaOptions options) : options_(options) {
  if (options_.initial_bytes == 0) options_.initial_bytes = page_size();
}

Arena::~Arena() {
  for (Slab& slab : slabs_) unmap_slab(slab);
}

void Arena::bind_slab(void* base, std::size_t size) const {
#if defined(__linux__) && defined(SYS_mbind)
  const Topology& topo = topology();
  if (!topo.discovered()) return;
  unsigned long nodemask[8] = {};
  const std::size_t max_node = sizeof(nodemask) * 8;
  int policy = 0;
  if (options_.interleave) {
    policy = kMpolInterleave;
    for (std::size_t i = 0; i < topo.nodes(); ++i) {
      const int id = topo.node(i).id;
      if (static_cast<std::size_t>(id) < max_node) {
        nodemask[id / (8 * sizeof(unsigned long))] |=
            1ul << (id % (8 * sizeof(unsigned long)));
      }
    }
  } else if (options_.node >= 0 &&
             static_cast<std::size_t>(options_.node) < topo.nodes()) {
    policy = kMpolBind;
    const int id = topo.node(static_cast<std::size_t>(options_.node)).id;
    if (static_cast<std::size_t>(id) >= max_node) return;
    nodemask[id / (8 * sizeof(unsigned long))] |=
        1ul << (id % (8 * sizeof(unsigned long)));
  } else {
    return;  // unbound: first-touch
  }
  // Best-effort: EPERM/ENOSYS in sandboxes, or a raced-offline node, just
  // leaves the slab on the default (first-touch) policy.
  (void)syscall(SYS_mbind, base, size, policy, nodemask, max_node + 1, 0);
#else
  (void)base;
  (void)size;
#endif
}

Arena::Slab Arena::map_slab(std::size_t min_bytes) {
  // Geometric growth from the last slab keeps the slab count logarithmic in
  // the warmup peak; reset() collapses the list again.
  std::size_t size = options_.initial_bytes;
  if (!slabs_.empty()) size = slabs_.back().size * 2;
  size = round_up(std::max(size, min_bytes), page_size());

  Slab slab;
  slab.size = size;
#ifdef __linux__
  void* base = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  HAAN_ASSERT(base != MAP_FAILED);
  bind_slab(base, size);
  slab.base = static_cast<std::byte*>(base);
#else
  slab.base = static_cast<std::byte*>(
      ::operator new(size, std::align_val_t{page_size()}));
#endif
  poison(slab.base, size);
  stats_.reserved_bytes += size;
  return slab;
}

void Arena::unmap_slab(Slab& slab) {
  if (slab.base == nullptr) return;
  // The shadow outlives the mapping: clear it so whatever maps this range
  // next does not inherit the poison.
  unpoison(slab.base, slab.size);
#ifdef __linux__
  munmap(slab.base, slab.size);
#else
  ::operator delete(slab.base, std::align_val_t{page_size()});
#endif
  stats_.reserved_bytes -= slab.size;
  slab.base = nullptr;
}

void* Arena::allocate(std::size_t bytes, std::size_t alignment) {
  HAAN_EXPECTS(alignment != 0 && (alignment & (alignment - 1)) == 0);
  if (bytes == 0) bytes = 1;
  ++stats_.allocations;

  if (!slabs_.empty()) {
    Slab& slab = slabs_.back();
    const std::size_t offset = round_up(slab.used, alignment);
    if (offset + bytes <= slab.size) {
      stats_.used_bytes += (offset + bytes) - slab.used;
      slab.used = offset + bytes;
      stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.used_bytes);
      unpoison(slab.base + offset, bytes);
      return slab.base + offset;
    }
  }

  ++stats_.slab_allocations;
  // Slab bases are page-aligned, which dominates any sane alignment request.
  slabs_.push_back(map_slab(bytes));
  Slab& slab = slabs_.back();
  slab.used = bytes;
  stats_.used_bytes += bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.used_bytes);
  unpoison(slab.base, bytes);
  return slab.base;
}

void Arena::reset() {
  ++stats_.resets;
  if (slabs_.size() > 1 ||
      (slabs_.size() == 1 && slabs_[0].size < stats_.peak_bytes)) {
    // Watermark consolidation: replace the slab list with one slab that fits
    // the lifetime peak, so the next identical workload never maps again.
    const std::size_t target =
        std::max(stats_.peak_bytes, options_.initial_bytes);
    for (Slab& slab : slabs_) unmap_slab(slab);
    slabs_.clear();
    slabs_.push_back(map_slab(target));
  }
  for (Slab& slab : slabs_) {
    poison(slab.base, slab.size);
    slab.used = 0;
  }
  stats_.used_bytes = 0;
}

std::unique_ptr<Arena> ArenaPool::acquire(const ArenaOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      std::unique_ptr<Arena> arena = std::move(idle_.back());
      idle_.pop_back();
      return arena;
    }
    ++created_;
  }
  return std::make_unique<Arena>(options);
}

void ArenaPool::release(std::unique_ptr<Arena> arena) {
  HAAN_EXPECTS(arena != nullptr && arena->stats().used_bytes == 0);
  std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(std::move(arena));
}

std::size_t ArenaPool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

std::size_t ArenaPool::created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return created_;
}

std::size_t ArenaPool::reserved_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = 0;
  for (const auto& arena : idle_) bytes += arena->stats().reserved_bytes;
  return bytes;
}

}  // namespace haan::mem
