#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/ip.hpp"
#include "common/sim_time.hpp"

namespace akadns {
namespace {

/// Every binder kind over one set of fields, as a binary declares them.
struct Fields {
  std::uint16_t port = 5300;
  std::size_t workers = 4;
  double rate = 0.5;
  std::optional<std::int64_t> max_outage_ms;
  Duration timeout = Duration::millis(1000);
  bool defense = false;
  bool verify = false;
  Ipv4Addr addr = Ipv4Addr(127, 0, 0, 1);
  std::optional<Endpoint> upstream;
  std::string report;
  std::vector<Endpoint> targets = {Endpoint{IpAddr(Ipv4Addr(127, 0, 0, 1)), 5300}};
  std::vector<std::string> zones;

  FlagTable table{"prog", "[options]", "epilogue line\n"};

  Fields() {
    table.number("--port", "P", port, "UDP+TCP port")
        .number("--workers", "N", workers, "worker threads", 1, 1024)
        .number("--rate", "R", rate, "send rate", 0.0)
        .number("--max-outage-ms", "N", max_outage_ms, "outage budget", 0)
        .millis("--timeout-ms", "T", timeout, "per-query timeout", 1)
        .on_off("--defense", defense, "defense pipeline")
        .set_true("--verify", verify, "byte-compare answers")
        .value("--addr", "A", addr, "bind address")
        .value("--upstream", "H:P", upstream, "relay target")
        .value("--report", "PATH", report, "report file")
        .list("--target", "H:P", targets, "server address")
        .list("--zone", "FILE", zones, "zone file");
  }

  std::optional<int> parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return table.parse(static_cast<int>(args.size()), args.data());
  }
};

TEST(FlagTable, NoArgumentsKeepEveryDefault) {
  Fields f;
  EXPECT_EQ(f.parse({}), std::nullopt);
  EXPECT_EQ(f.port, 5300);
  EXPECT_EQ(f.workers, 4u);
  EXPECT_FALSE(f.max_outage_ms.has_value());
  EXPECT_EQ(f.timeout.count_nanos(), Duration::millis(1000).count_nanos());
  EXPECT_FALSE(f.defense);
  EXPECT_FALSE(f.upstream.has_value());
  ASSERT_EQ(f.targets.size(), 1u);
  EXPECT_EQ(f.targets[0].to_string(), "127.0.0.1:5300");
}

TEST(FlagTable, EveryBinderSetsItsField) {
  Fields f;
  EXPECT_EQ(f.parse({"--port", "0", "--workers", "1024", "--rate", "2.5", "--max-outage-ms",
                     "0", "--timeout-ms", "250", "--defense", "on", "--verify", "--addr",
                     "10.0.0.2", "--upstream", "127.0.0.1:5301", "--report", "r.json"}),
            std::nullopt);
  EXPECT_EQ(f.port, 0);
  EXPECT_EQ(f.workers, 1024u);
  EXPECT_DOUBLE_EQ(f.rate, 2.5);
  EXPECT_EQ(f.max_outage_ms, std::optional<std::int64_t>(0));
  EXPECT_EQ(f.timeout.count_nanos(), Duration::millis(250).count_nanos());
  EXPECT_TRUE(f.defense);
  EXPECT_TRUE(f.verify);
  EXPECT_EQ(f.addr.to_string(), "10.0.0.2");
  ASSERT_TRUE(f.upstream.has_value());
  EXPECT_EQ(f.upstream->port, 5301);
  EXPECT_EQ(f.report, "r.json");

  EXPECT_EQ(f.parse({"--defense", "off"}), std::nullopt);
  EXPECT_FALSE(f.defense);
}

TEST(FlagTable, NumbersAreWholeStringsInRange) {
  for (const std::vector<const char*>& args : {
           std::vector<const char*>{"--port", "70000"},  // past uint16
           {"--port", "5x"},                             // trailing bytes
           {"--port", "-1"},
           {"--port", " 53"},
           {"--port", ""},
           {"--workers", "0"},     // below the declared range
           {"--workers", "1025"},  // above it
           {"--rate", "-0.5"},
           {"--rate", "nan"},
           {"--max-outage-ms", "-1"},  // optional values have no -1 = off
           {"--timeout-ms", "0"},
           {"--timeout-ms", "1e3"},
           {"--defense", "yes"},
           {"--addr", "10.0.0.256"},
           {"--upstream", "127.0.0.1:99999"},
           {"--target", "localhost"},
       }) {
    Fields f;
    EXPECT_EQ(f.parse(args), 2) << args[0] << " " << args[1];
  }
}

TEST(FlagTable, MissingValueAndUnknownFlagAreUsageErrors) {
  Fields f;
  EXPECT_EQ(f.parse({"--port"}), 2);
  EXPECT_EQ(f.parse({"--prot", "53"}), 2);
  EXPECT_EQ(f.parse({"port"}), 2);
  // A value is never taken for a flag: --verify takes none, so "yes" is
  // an unknown argument.
  EXPECT_EQ(f.parse({"--verify", "yes"}), 2);
}

TEST(FlagTable, RepeatableValuesReplaceTheDefaultsThenAppend) {
  Fields f;
  EXPECT_EQ(f.parse({"--target", "127.0.0.1:1", "--zone", "a.zone", "--target",
                     "127.0.0.2:2", "--zone", "b.zone"}),
            std::nullopt);
  ASSERT_EQ(f.targets.size(), 2u);
  EXPECT_EQ(f.targets[0].to_string(), "127.0.0.1:1");
  EXPECT_EQ(f.targets[1].to_string(), "127.0.0.2:2");
  EXPECT_EQ(f.zones, (std::vector<std::string>{"a.zone", "b.zone"}));
}

TEST(FlagTable, HelpExitsZeroWhereverItStands) {
  Fields f;
  testing::internal::CaptureStdout();
  EXPECT_EQ(f.parse({"--port", "53", "--help", "--port", "junk"}), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), f.table.help());
  testing::internal::CaptureStdout();
  EXPECT_EQ(f.parse({"-h"}), 0);
  testing::internal::GetCapturedStdout();
}

TEST(FlagTable, HelpListsEveryEntryWithItsRenderedDefault) {
  Fields f;
  const std::string help = f.table.help();
  EXPECT_EQ(help.rfind("usage: prog [options]\n", 0), 0u) << help;
  for (const char* entry : {
           "--port P", "--workers N", "--rate R", "--max-outage-ms N", "--timeout-ms T",
           "--defense on|off", "--verify", "--addr A", "--upstream H:P", "--report PATH",
           "--target H:P", "--zone FILE", "-h, --help",
           // Defaults come from the fields as they stood at declaration.
           "(default 5300)", "(default 4)", "(default 0.5)", "(default 1000)",
           "(default off)", "(default 127.0.0.1)", "(default 127.0.0.1:5300)",
           "(repeatable)",
       }) {
    EXPECT_NE(help.find(entry), std::string::npos) << entry << " missing from:\n" << help;
  }
  // Settings with nothing to show print no default.
  for (const char* entry : {"outage budget (default", "relay target (default",
                            "report file (default", "zone file (repeatable) (default"}) {
    EXPECT_EQ(help.find(entry), std::string::npos) << entry;
  }
  EXPECT_TRUE(ends_with(help, "\nepilogue line\n")) << help;
  // Parsing changes the fields, not the help printed from them.
  f.parse({"--port", "53"});
  EXPECT_EQ(f.table.help(), help);
}

TEST(FlagTable, HelpWrapsLongTextUnderItsColumn) {
  std::size_t value = 1;
  FlagTable table("prog", "[options]", "");
  table.number("--a-rather-long-flag-name", "N", value,
               "one two three four five six seven eight nine ten eleven twelve thirteen "
               "fourteen fifteen sixteen seventeen eighteen nineteen twenty");
  const std::string help = table.help();
  std::size_t lines = 0;
  for (const auto line : split(help, '\n')) {
    EXPECT_LE(line.size(), 80u) << line;
    ++lines;
  }
  EXPECT_GE(lines, 4u) << help;  // usage, the long name alone, two text lines
  EXPECT_NE(help.find("\n  --a-rather-long-flag-name N\n                        one two"),
            std::string::npos)
      << help;
}

}  // namespace
}  // namespace akadns
