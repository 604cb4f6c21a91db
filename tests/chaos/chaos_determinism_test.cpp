// The chaos layer's reproducibility contract: every impairment decision
// is a pure function of (plan, seed, direction, ordinal). The golden
// sequence below pins the exact bit pattern for one seed — if it ever
// changes, previously recorded chaos CI runs stop being replayable, so
// a failure here means "you changed the fate derivation" and the right
// fix is almost never to update the constants.

#include "chaos/fault_stream.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/sync_injector.hpp"

namespace akadns::chaos {
namespace {

using propagation::SyncOp;

FaultSpec everything_spec() {
  FaultSpec spec;
  spec.loss = 0.2;
  spec.dup = 0.1;
  spec.reorder = 0.15;
  spec.corrupt = 0.3;
  spec.delay = Duration::millis(5);
  spec.jitter = Duration::millis(10);
  spec.tcp_reset = 0.2;
  spec.tcp_stall = 0.3;
  return spec;
}

// FNV-1a over the non-boolean fate fields, so the golden covers delay
// draws and corrupt offsets/masks too, not just the decision bits.
std::uint64_t mix(std::uint64_t digest, std::uint64_t value) {
  digest ^= value;
  return digest * 0x100000001b3ULL;
}

TEST(FaultStream, GoldenSequenceForSeed42) {
  const FaultStream up(everything_spec(), /*seed=*/42, kDirUp);

  std::uint64_t drops = 0, dups = 0, reorders = 0, corrupts = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const PacketFate fate = up.fate(i);
    if (fate.drop) drops |= 1ULL << i;
    if (fate.duplicate) dups |= 1ULL << i;
    if (fate.reorder) reorders |= 1ULL << i;
    if (fate.corrupt_offset >= 0) corrupts |= 1ULL << i;
    digest = mix(digest, static_cast<std::uint64_t>(fate.delay.count_nanos()));
    digest = mix(digest, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(fate.corrupt_offset)));
    digest = mix(digest, fate.corrupt_mask);
  }

  EXPECT_EQ(drops, 0x9010404001860a40ULL) << "drop mask drifted";
  EXPECT_EQ(dups, 0x10400400000ULL) << "dup mask drifted";
  EXPECT_EQ(reorders, 0x4501002018001080ULL) << "reorder mask drifted";
  EXPECT_EQ(corrupts, 0x4400b0082100106ULL) << "corrupt mask drifted";
  EXPECT_EQ(digest, 0x1cde8687a4cb5abcULL) << "delay/corrupt digest drifted";

  std::uint64_t conn_resets = 0, conn_stalls = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const ConnFate fate = up.conn_fate(i);
    if (fate.reset) conn_resets |= 1ULL << i;
    if (fate.stall) conn_stalls |= 1ULL << i;
  }
  EXPECT_EQ(conn_resets, 0x8710a0882c20020dULL) << "conn reset mask drifted";
  EXPECT_EQ(conn_stalls, 0x100b0200020c3400ULL) << "conn stall mask drifted";
}

TEST(FaultStream, SameSeedReproducesByteForByte) {
  const FaultStream a(everything_spec(), 7, kDirUp);
  const FaultStream b(everything_spec(), 7, kDirUp);
  for (std::uint64_t i = 0; i < 512; ++i) {
    const PacketFate fa = a.fate(i);
    const PacketFate fb = b.fate(i);
    ASSERT_EQ(fa.drop, fb.drop) << i;
    ASSERT_EQ(fa.duplicate, fb.duplicate) << i;
    ASSERT_EQ(fa.reorder, fb.reorder) << i;
    ASSERT_EQ(fa.delay.count_nanos(), fb.delay.count_nanos()) << i;
    ASSERT_EQ(fa.corrupt_offset, fb.corrupt_offset) << i;
    ASSERT_EQ(fa.corrupt_mask, fb.corrupt_mask) << i;
  }
}

TEST(FaultStream, SeedAndDirectionDecorrelateTheStreams) {
  const auto drop_mask = [](const FaultStream& s) {
    std::uint64_t mask = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
      if (s.fate(i).drop) mask |= 1ULL << i;
    }
    return mask;
  };
  FaultSpec spec;
  spec.loss = 0.5;
  EXPECT_NE(drop_mask(FaultStream(spec, 1, kDirUp)),
            drop_mask(FaultStream(spec, 2, kDirUp)));
  EXPECT_NE(drop_mask(FaultStream(spec, 1, kDirUp)),
            drop_mask(FaultStream(spec, 1, kDirDown)));
}

TEST(FaultStream, EnablingOneKnobNeverChangesAnotherKnobsDecisions) {
  // The draw order inside fate() is fixed, so adding corruption to a
  // plan must not reshuffle which packets were already being dropped —
  // that is what lets a drill tighten one knob and compare runs.
  FaultSpec loss_only;
  loss_only.loss = 0.3;
  FaultSpec loss_plus = everything_spec();
  loss_plus.loss = 0.3;
  const FaultStream a(loss_only, 42, kDirUp);
  const FaultStream b(loss_plus, 42, kDirUp);
  for (std::uint64_t i = 0; i < 512; ++i) {
    ASSERT_EQ(a.fate(i).drop, b.fate(i).drop) << i;
  }
}

TEST(FaultStream, ResetWinsOverStallAndCorruptMaskIsNeverZero) {
  FaultSpec both;
  both.tcp_reset = 1.0;
  both.tcp_stall = 1.0;
  const FaultStream s(both, 3, kDirUp);
  for (std::uint64_t i = 0; i < 32; ++i) {
    const ConnFate fate = s.conn_fate(i);
    EXPECT_TRUE(fate.reset) << i;
    EXPECT_FALSE(fate.stall) << i;
  }

  FaultSpec stall_only;
  stall_only.tcp_stall = 1.0;
  const FaultStream t(stall_only, 3, kDirUp);
  EXPECT_TRUE(t.conn_fate(0).stall);
  EXPECT_FALSE(t.conn_fate(0).reset);

  FaultSpec corrupt_all;
  corrupt_all.corrupt = 1.0;
  const FaultStream c(corrupt_all, 3, kDirUp);
  for (std::uint64_t i = 0; i < 256; ++i) {
    const PacketFate fate = c.fate(i);
    ASSERT_GE(fate.corrupt_offset, 0) << i;
    // An XOR mask of zero would be a no-op "corruption".
    ASSERT_NE(fate.corrupt_mask, 0) << i;
  }
}

TEST(ScriptedInjector, ScriptRunsOutToCleanDefaults) {
  ScriptedInjector script;
  script.fail_nth(SyncOp::ProbeSend, /*ok=*/2);
  EXPECT_FALSE(script.on_op(SyncOp::ProbeSend).fail);
  EXPECT_FALSE(script.on_op(SyncOp::ProbeSend).fail);
  EXPECT_TRUE(script.on_op(SyncOp::ProbeSend).fail);
  // Script drained: everything succeeds again.
  EXPECT_FALSE(script.on_op(SyncOp::ProbeSend).fail);
  // Other ops were never scripted and never fail.
  EXPECT_FALSE(script.on_op(SyncOp::TransferRead).fail);
  EXPECT_EQ(script.calls(SyncOp::ProbeSend), 4u);
  EXPECT_EQ(script.calls(SyncOp::TransferRead), 1u);
}

TEST(FaultPlan, ParseRoundTripsThroughCanonicalForm) {
  const char* text =
      "seed=42\n"
      "both.loss=0.05\n"
      "both.delay_ms=20\n"
      "both.jitter_ms=20\n"
      "up.corrupt=0.01\n"
      "down.dup=0.02\n"
      "down.reorder=0.05\n"
      "up.tcp_reset=0.1\n"
      "up.tcp_stall=0.05\n"
      "blackhole=3000:13000\n";
  auto parsed = FaultPlan::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const FaultPlan& plan = parsed.value();
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.up.loss, 0.05);
  EXPECT_DOUBLE_EQ(plan.down.loss, 0.05);
  EXPECT_EQ(plan.up.delay.count_nanos(), Duration::millis(20).count_nanos());
  EXPECT_EQ(plan.down.jitter.count_nanos(), Duration::millis(20).count_nanos());
  EXPECT_DOUBLE_EQ(plan.up.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(plan.down.dup, 0.02);
  EXPECT_DOUBLE_EQ(plan.down.reorder, 0.05);
  EXPECT_DOUBLE_EQ(plan.up.tcp_reset, 0.1);
  EXPECT_DOUBLE_EQ(plan.up.tcp_stall, 0.05);
  ASSERT_EQ(plan.blackholes.size(), 1u);
  EXPECT_EQ(plan.blackholes[0].start.count_nanos(), Duration::millis(3000).count_nanos());
  EXPECT_EQ(plan.blackholes[0].end.count_nanos(), Duration::millis(13000).count_nanos());
  EXPECT_TRUE(plan.in_blackhole(Duration::millis(5000)));
  EXPECT_FALSE(plan.in_blackhole(Duration::millis(13000)));

  auto again = FaultPlan::parse(plan.to_string());
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_EQ(again.value().to_string(), plan.to_string());
  EXPECT_EQ(again.value().seed, plan.seed);
  EXPECT_DOUBLE_EQ(again.value().up.corrupt, plan.up.corrupt);
  EXPECT_EQ(again.value().blackholes.size(), plan.blackholes.size());
}

TEST(FaultPlan, TyposAndOutOfRangeValuesFailLoudly) {
  // A typo'd chaos plan silently running a clean test would defeat the
  // entire drill; every malformed input must be an error.
  for (const char* bad : {
           "both.locc=0.05\n",       // unknown key
           "loss=0.05\n",            // missing direction prefix
           "both.loss=1.5\n",        // probability out of range
           "both.loss=-0.1\n",
           "both.delay_ms=abc\n",    // not a number
           "blackhole=3000\n",       // malformed window
           "blackhole=5000:4000\n",  // end before start
           "seed=\n",
           "both.loss=0.05x\n",        // trailing bytes
           "both.delay_ms=20ms\n",
           "blackhole=100:200junk\n",
           "seed=-1\n",                // not 18446744073709551615
           "up.jitter_ms=1e3\n",       // whole milliseconds, not 1
           "both.loss=nan\n",          // not a clean plan
       }) {
    EXPECT_FALSE(FaultPlan::parse(bad).ok()) << "accepted: " << bad;
  }
  // Comments and blank lines are fine.
  auto ok = FaultPlan::parse("# a comment\n\nseed=7\n");
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_EQ(ok.value().seed, 7u);
}

}  // namespace
}  // namespace akadns::chaos
