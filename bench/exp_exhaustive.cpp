// Exhaustive parity of the libm-model kernels over all 2^32 float inputs, in
// two passes. The exp pass checks every kernel table this build and CPU can
// run against std::exp (KernelTable::exp, the core of softmax and silu; the
// SIMD tables model glibc's FMA expf lane by lane and hand |x| >= 88, inf
// and NaN to libm). The gelu pass checks every SIMD table's gelu against the
// scalar table's, the seed loop whose tanh is libm's tanhf (the SIMD tables
// model fdlibm's tanhf and expm1f lane by lane for every input). Together
// they are the proof behind the bit-identical contract in kernels.hpp. Work
// is split into 64Ki-input chunks across one thread per hardware thread; a
// pass exits 1 on the first mismatch, printing the table and the input. The
// run also exits 1 when an x86 SIMD table failed the dispatcher's host check
// and so carries a scalar loop: its pass would succeed without testing the
// model.
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

/// One kernel checked against its reference: `run` writes a table's output
/// for x into out, `reference` the expected bits.
struct Pass {
  const char* name;
  void (*reference)(const float* x, std::size_t n, float* out);
  void (*run)(const kernels::KernelTable& table, const float* x,
              std::size_t n, float* out);
  std::vector<const kernels::KernelTable*> tables;
};

void libm_exp(const float* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(x[i]);
}

void table_exp(const kernels::KernelTable& table, const float* x,
               std::size_t n, float* out) {
  table.exp(x, n, out);
}

void table_gelu(const kernels::KernelTable& table, const float* x,
                std::size_t n, float* out) {
  std::copy(x, x + n, out);
  table.gelu(out, n);
}

void seed_gelu(const float* x, std::size_t n, float* out) {
  table_gelu(kernels::scalar_kernels(), x, n, out);
}

struct Mismatch {
  const char* table = nullptr;
  std::uint32_t input = 0;
  std::uint32_t expected = 0;
  std::uint32_t actual = 0;
};

/// Checks chunks until none are left or any thread finds a mismatch.
void check_chunks(const Pass& pass, std::atomic<std::uint64_t>& next,
                  std::atomic<bool>& failed, std::mutex& mu, Mismatch& first) {
  std::vector<float> x(kChunk), expected(kChunk), actual(kChunk);
  while (!failed.load(std::memory_order_relaxed)) {
    const std::uint64_t chunk = next.fetch_add(1);
    if (chunk >= kChunks) return;
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      x[i] = std::bit_cast<float>(static_cast<std::uint32_t>(chunk * kChunk + i));
    }
    pass.reference(x.data(), kChunk, expected.data());
    for (const kernels::KernelTable* table : pass.tables) {
      pass.run(*table, x.data(), kChunk, actual.data());
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

/// Runs one pass over all 2^32 inputs; false (after printing the first
/// mismatch) when any table disagrees with the reference.
bool run_pass(const Pass& pass, unsigned n_threads) {
  std::printf("exp_exhaustive: %s pass, tables", pass.name);
  for (const kernels::KernelTable* table : pass.tables) {
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
    threads.emplace_back(check_chunks, std::cref(pass), std::ref(next),
                         std::ref(failed), std::ref(mu), std::ref(first));
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (failed.load()) {
    std::fprintf(stderr,
                 "FAIL: %s %s(%a) [bits 0x%08x] = 0x%08x, the reference gives "
                 "0x%08x\n",
                 first.table, pass.name, std::bit_cast<float>(first.input),
                 first.input, first.actual, first.expected);
    return false;
  }
  std::printf("exp_exhaustive: %s: 0 mismatches over 4294967296 inputs per "
              "table (%.1f s)\n", pass.name, seconds);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "exhaustive bit-parity over all 2^32 float inputs of every runnable "
      "kernel table's exp against std::exp and of every SIMD table's gelu "
      "against the scalar seed loop");
  if (!cli.parse(argc, argv)) return cli.error() ? 1 : 0;

  Pass exp_pass{"exp", libm_exp, table_exp, {}};
  Pass gelu_pass{"gelu", seed_gelu, table_gelu, {}};
  const kernels::KernelTable& scalar = kernels::scalar_kernels();
  for (const kernels::KernelTable* table : kernels::supported_kernels()) {
    exp_pass.tables.push_back(table);
    if (table != &scalar) gelu_pass.tables.push_back(table);
    const std::string name = table->name;
    if (name != "avx2" && name != "avx512") continue;
    if (table->exp == scalar.exp || table->gelu == scalar.gelu) {
      std::fprintf(stderr,
                   "FAIL: %s runs the scalar %s loop: its %s model failed the "
                   "dispatcher's host check against this libm\n",
                   table->name, table->exp == scalar.exp ? "exp" : "gelu",
                   table->exp == scalar.exp ? "expf" : "tanhf");
      return 1;
    }
  }
  const unsigned n_threads = std::max(1u, std::thread::hardware_concurrency());
  for (const Pass* pass : {&exp_pass, &gelu_pass}) {
    if (!pass->tables.empty() && !run_pass(*pass, n_threads)) return 1;
  }
  return 0;
}
