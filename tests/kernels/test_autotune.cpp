// The autotune.hpp names are a static-dispatch surface: every width maps to
// kernels::active(), reported as a static choice with no measured tiles, and
// repeat calls return the same object.
#include <gtest/gtest.h>

#include "kernels/autotune.hpp"
#include "kernels/kernels.hpp"

namespace haan::kernels {
namespace {

TEST(Autotune, EveryWidthGetsTheStaticDispatchTable) {
  for (const std::size_t d : {1u, 64u, 96u, 4096u}) {
    reset_autotune_for_testing();
    const AutotuneChoice& choice = tuned_for(d);
    EXPECT_EQ(choice.table, &active()) << "d=" << d;
    EXPECT_EQ(&tuned_table(d), &active()) << "d=" << d;
    EXPECT_EQ(choice.d, d);
    EXPECT_EQ(choice.source, AutotuneChoice::Source::kStatic);
    EXPECT_STREQ(to_string(choice.source), "static");
    EXPECT_EQ(choice.rows_tile, 0u);
    EXPECT_TRUE(choice.tiles.empty());
    EXPECT_EQ(&tuned_for(d), &choice) << "d=" << d;
  }
}

}  // namespace
}  // namespace haan::kernels
