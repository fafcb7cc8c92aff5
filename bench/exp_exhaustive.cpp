// Exhaustive exp parity: every kernel table this build and CPU can run must
// give std::exp's bits for all 2^32 float inputs (KernelTable::exp, the core
// of softmax and silu). The SIMD tables model glibc's FMA expf lane by lane
// and hand |x| >= 88, inf and NaN to libm, so this is the proof behind the
// bit-identical contract in kernels.hpp. Work is split into 64Ki-input chunks
// across one thread per hardware thread; the run exits 1 on the first
// mismatch, printing the table and the input. It also exits 1 when an x86
// SIMD table failed the dispatcher's host check and so carries the scalar
// exp loop: its check would pass without testing the model.
//
//   ./build/bench/exp_exhaustive
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "kernels/kernels.hpp"

using namespace haan;

namespace {

constexpr std::uint64_t kChunk = 1u << 16;
constexpr std::uint64_t kChunks = (std::uint64_t{1} << 32) / kChunk;

struct Mismatch {
  const char* table = nullptr;
  std::uint32_t input = 0;
  std::uint32_t expected = 0;
  std::uint32_t actual = 0;
};

/// Checks chunks until none are left or any thread finds a mismatch.
void check_chunks(const std::vector<const kernels::KernelTable*>& tables,
                  std::atomic<std::uint64_t>& next, std::atomic<bool>& failed,
                  std::mutex& mu, Mismatch& first) {
  std::vector<float> x(kChunk), expected(kChunk), actual(kChunk);
  while (!failed.load(std::memory_order_relaxed)) {
    const std::uint64_t chunk = next.fetch_add(1);
    if (chunk >= kChunks) return;
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      x[i] = std::bit_cast<float>(static_cast<std::uint32_t>(chunk * kChunk + i));
      expected[i] = std::exp(x[i]);
    }
    for (const kernels::KernelTable* table : tables) {
      table->exp(x.data(), kChunk, actual.data());
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        const auto want = std::bit_cast<std::uint32_t>(expected[i]);
        const auto got = std::bit_cast<std::uint32_t>(actual[i]);
        if (want == got) continue;
        std::lock_guard<std::mutex> lock(mu);
        if (!failed.exchange(true)) {
          first = {table->name, std::bit_cast<std::uint32_t>(x[i]), want, got};
        }
        return;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "exhaustive bit-parity of every runnable kernel table's exp against "
      "std::exp over all 2^32 float inputs");
  if (!cli.parse(argc, argv)) return cli.error() ? 1 : 0;

  const std::vector<const kernels::KernelTable*> tables =
      kernels::supported_kernels();
  for (const kernels::KernelTable* table : tables) {
    const std::string name = table->name;
    if ((name == "avx2" || name == "avx512") &&
        table->exp == kernels::scalar_kernels().exp) {
      std::fprintf(stderr,
                   "FAIL: %s runs the scalar exp loop: its expf model failed "
                   "the dispatcher's host check against this libm\n",
                   table->name);
      return 1;
    }
  }
  const unsigned n_threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("exp_exhaustive: tables");
  for (const kernels::KernelTable* table : tables) {
    std::printf(" %s", table->name);
  }
  std::printf(", %u threads\n", n_threads);

  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  Mismatch first;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n_threads; ++t) {
    threads.emplace_back(check_chunks, std::cref(tables), std::ref(next),
                         std::ref(failed), std::ref(mu), std::ref(first));
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (failed.load()) {
    std::fprintf(stderr,
                 "FAIL: %s exp(%a) [bits 0x%08x] = 0x%08x, std::exp gives "
                 "0x%08x\n",
                 first.table, std::bit_cast<float>(first.input), first.input,
                 first.actual, first.expected);
    return 1;
  }
  std::printf("exp_exhaustive: 0 mismatches over 4294967296 inputs per table "
              "(%.1f s)\n", seconds);
  return 0;
}
