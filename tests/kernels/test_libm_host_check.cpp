// The dispatcher's libm host check (detail::with_checked_libm) swaps the
// scalar exp / softmax / silu / causal_attention or gelu loops into a SIMD
// table whose expf or tanhf model disagrees with this process's libm. On a
// host whose libm is the one the models replicate — glibc 2.36 on a CPU with
// FMA, so that glibc runs its FMA expf (expf_model.hpp) and its fdlibm tanhf
// (tanhf_model.hpp) — it must never swap anything: a patched table there
// means a model is broken, and the parity suites, which iterate the patched
// tables of supported_kernels(), would then compare scalar with scalar and
// pass. This suite checks the raw tables instead, and skips, saying why, on
// any other host.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "kernels/backends.hpp"
#include "kernels/kernels.hpp"

namespace haan::kernels {
namespace {

/// Empty when this host runs the libm the SIMD models replicate; otherwise
/// the reason it does not.
std::string unmodelled_libm_reason() {
#if !defined(__x86_64__) && !defined(__i386__)
  return "not an x86 host: the expf and tanhf models serve the x86 tables";
#elif !defined(__GLIBC__)
  return "not glibc: the models replicate glibc 2.36's expf and tanhf";
#else
  const std::string version = gnu_get_libc_version();
  if (version != "2.36") {
    return "glibc " + version +
           ": the models replicate glibc 2.36's expf and tanhf";
  }
  if (!__builtin_cpu_supports("fma")) {
    return "CPU without FMA: glibc runs its non-FMA expf, which the model "
           "does not replicate";
  }
  return "";
#endif
}

TEST(LibmHostCheck, RawSimdTablesPassUnpatchedOnTheModelledLibm) {
  const std::string reason = unmodelled_libm_reason();
  if (!reason.empty()) GTEST_SKIP() << reason;
  // supported_kernels() lists the SIMD families this CPU and build run; check
  // the raw table behind each x86 one.
  std::vector<const KernelTable*> raw_tables;
  for (const KernelTable* table : supported_kernels()) {
    const std::string name = table->name;
    if (name == "avx2") raw_tables.push_back(detail::avx2_table());
    if (name == "avx512") raw_tables.push_back(detail::avx512_table());
  }
  if (raw_tables.empty()) {
    GTEST_SKIP() << "neither the AVX2 nor the AVX-512 table runs here";
  }
  for (const KernelTable* raw : raw_tables) {
    KernelTable patched{};
    EXPECT_EQ(detail::with_checked_libm(raw, patched), raw)
        << raw->name
        << ": the host check patched a SIMD table on the libm its expf / "
           "tanhf models replicate, so one of the models is wrong";
  }
}

}  // namespace
}  // namespace haan::kernels
