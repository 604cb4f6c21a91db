// StageTimer: the datapath's per-stage wall-clock probe records exactly
// one nanosecond sample into its obs::Histogram when its scope ends.
#include "server/telemetry.hpp"

#include <gtest/gtest.h>

namespace akadns::server {
namespace {

TEST(StageTimer, RecordsAtScopeExit) {
  obs::Histogram h;
  {
    StageTimer t(h);
    EXPECT_EQ(h.count(), 0u);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);
}

}  // namespace
}  // namespace akadns::server
