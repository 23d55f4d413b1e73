// Tests for the table-driven CLI flag parser: strict number and byte-size
// parsing (ParseNumber in common/strings.h, shared by every input grammar),
// range limits, argv handling and generated usage text.

#include "common/flags.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace tj::flags {
namespace {

Status ParseArgs(FlagTable* table, std::vector<const char*> args,
                 std::vector<std::string>* positional) {
  args.insert(args.begin(), "tool");
  return table->Parse(static_cast<int>(args.size()), args.data(), positional);
}

TEST(Flags, ParseNumberAcceptsOnlyWholeInRangeIntegers) {
  int64_t v = -7;
  EXPECT_TRUE(ParseNumber("42", 0, 100, &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseNumber("-3", -5, 5, &v));
  EXPECT_EQ(v, -3);
  for (const char* bad : {"", "abc", "4x", "4 ", " 4", "+4", "0,1", "1.5",
                          "0x10", "101", "99999999999999999999"}) {
    v = -7;
    EXPECT_FALSE(ParseNumber(bad, 0, 100, &v)) << bad;
    EXPECT_EQ(v, -7) << bad;  // untouched on failure
  }
}

TEST(Flags, ParseNumberRejectsSignOnUnsignedAndOverflow) {
  uint64_t u = 0;
  EXPECT_TRUE(ParseNumber("18446744073709551615", 0, UINT64_MAX, &u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(ParseNumber("18446744073709551616", 0, UINT64_MAX, &u));
  EXPECT_FALSE(ParseNumber("-1", 0, UINT64_MAX, &u));
  uint32_t row = 0;
  EXPECT_FALSE(ParseNumber("4294967296", 0, UINT32_MAX, &row));
}

TEST(Flags, ParseNumberDoubles) {
  double d = -1.0;
  EXPECT_TRUE(ParseNumber("0.25", 0.0, 1.0, &d));
  EXPECT_EQ(d, 0.25);
  EXPECT_TRUE(ParseNumber("1e-3", 0.0, 1.0, &d));
  EXPECT_EQ(d, 1e-3);
  for (const char* bad : {"0,1", "abc", "2.0", "-0.5", "nan", "inf", "0.5x",
                          "", "1e999"}) {
    EXPECT_FALSE(ParseNumber(bad, 0.0, 1.0, &d)) << bad;
  }
}

TEST(Flags, ParseNumberReadsHexFloatsExactly) {
  // The signature cache writes meanlen with "%a"; every double must read
  // back bit for bit.
  for (const double v : {0.0, 12.0, 0.1, 1.0 / 3.0, 5e-324, DBL_MAX}) {
    char text[64];
    std::snprintf(text, sizeof(text), "%a", v);
    double back = -1.0;
    EXPECT_TRUE(ParseNumber(text, 0.0, DBL_MAX, &back)) << text;
    EXPECT_EQ(back, v) << text;
  }
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("0x1.8p+3", 0.0, 100.0, &d));
  EXPECT_EQ(d, 12.0);
  EXPECT_TRUE(ParseNumber("-0x1p-1", -1.0, 1.0, &d));
  EXPECT_EQ(d, -0.5);
  for (const char* bad : {"0x", "0x-1p0", "-0x-1p0", "0x1.8p", "0xg",
                          "0x1p+3 ", "--0x1p0", "0x1p99999", "0x1p+7"}) {
    d = -7.0;
    EXPECT_FALSE(ParseNumber(bad, 0.0, 100.0, &d)) << bad;
    EXPECT_EQ(d, -7.0) << bad;
  }
}

TEST(Flags, RangeLimitsAreInclusive) {
  int threads = -1;
  FlagTable table({Threads(&threads)});
  std::vector<std::string> positional;
  EXPECT_TRUE(ParseArgs(&table, {"--threads", "0"}, &positional).ok());
  EXPECT_EQ(threads, 0);
  EXPECT_TRUE(ParseArgs(&table, {"--threads", "1024"}, &positional).ok());
  EXPECT_EQ(threads, 1024);
  // Only parsed, never run: a refused value starts no threads.
  const Status refused = ParseArgs(&table, {"--threads", "5000"}, &positional);
  EXPECT_EQ(refused.message(), "invalid --threads value '5000'");
  EXPECT_FALSE(ParseArgs(&table, {"--threads", "-1"}, &positional).ok());
  EXPECT_EQ(threads, 1024);
}

TEST(Flags, ByteSizesUseParseByteSize) {
  size_t bytes = 0;
  FlagTable table({MemoryBudget(&bytes)});
  std::vector<std::string> positional;
  EXPECT_TRUE(ParseArgs(&table, {"--memory-budget", "64m"}, &positional).ok());
  EXPECT_EQ(bytes, size_t{64} << 20);
  EXPECT_TRUE(ParseArgs(&table, {"--memory-budget", "8K"}, &positional).ok());
  EXPECT_EQ(bytes, size_t{8} << 10);
  for (const char* bad : {"", "12q", "-1", "k", "1.5m",
                          "99999999999999999999g"}) {
    EXPECT_FALSE(
        ParseArgs(&table, {"--memory-budget", bad}, &positional).ok())
        << bad;
  }
  EXPECT_EQ(bytes, size_t{8} << 10);
}

TEST(Flags, MalformedValueNamesTheFlag) {
  double support = 0.05;
  FlagTable table({Support(&support)});
  std::vector<std::string> positional;
  EXPECT_EQ(ParseArgs(&table, {"--support", "0,1"}, &positional).message(),
            "invalid --support value '0,1'");
  EXPECT_EQ(ParseArgs(&table, {"--support", "2.0"}, &positional).message(),
            "invalid --support value '2.0'");
  EXPECT_EQ(support, 0.05);
}

TEST(Flags, MissingValueAndUnknownFlagFail) {
  std::string out;
  FlagTable table({Out(&out)});
  std::vector<std::string> positional;
  EXPECT_EQ(ParseArgs(&table, {"--out"}, &positional).message(),
            "--out needs a value");
  EXPECT_EQ(ParseArgs(&table, {"--outt", "x"}, &positional).message(),
            "unknown flag --outt");
  EXPECT_EQ(ParseArgs(&table, {"--index-cache-budget", "1m"}, &positional)
                .message(),
            "unknown flag --index-cache-budget");
}

TEST(Flags, RepeatedFlagsRunInArgvOrder) {
  std::vector<std::string> ops;
  const auto op = [&ops](std::string_view name) {
    return Flag{name, "X", "", [&ops, name](std::string_view v) {
                  ops.push_back(std::string(name) + " " + std::string(v));
                  return Status::OK();
                }};
  };
  FlagTable table({op("--add"), op("--remove"), op("--update")});
  std::vector<std::string> positional;
  ASSERT_TRUE(ParseArgs(&table,
                        {"dir", "--add", "a.csv", "--remove", "b",
                         "--update", "c.csv", "--add", "d.csv"},
                        &positional)
                  .ok());
  EXPECT_EQ(ops, (std::vector<std::string>{"--add a.csv", "--remove b",
                                           "--update c.csv",
                                           "--add d.csv"}));
  EXPECT_EQ(positional, std::vector<std::string>{"dir"});
}

TEST(Flags, BooleanFlagsTakeNoValue) {
  bool precheck = false;
  std::string out;
  FlagTable table({Switch("--precheck", "", &precheck), Out(&out)});
  std::vector<std::string> positional;
  ASSERT_TRUE(ParseArgs(&table, {"--precheck", "a", "--out", "o.csv", "b"},
                        &positional)
                  .ok());
  EXPECT_TRUE(precheck);
  EXPECT_EQ(out, "o.csv");
  EXPECT_EQ(positional, (std::vector<std::string>{"a", "b"}));
}

TEST(Flags, CheckModeRejectsFlagsOutsideTheirModes) {
  size_t tables = 10;
  std::string out;
  Flag tables_flag = Number("--tables", "N", "", &tables, 2, SIZE_MAX);
  tables_flag.modes = 2;
  Flag out_flag = Out(&out);
  out_flag.modes = 1;
  FlagTable table({tables_flag, out_flag});
  std::vector<std::string> positional;
  ASSERT_TRUE(ParseArgs(&table, {"--tables", "4"}, &positional).ok());
  EXPECT_TRUE(table.CheckMode(2, "gen").ok());
  EXPECT_EQ(table.CheckMode(1, "batch").message(),
            "--tables does not apply in batch mode");
  // Given flags are per Parse call.
  ASSERT_TRUE(ParseArgs(&table, {"--out", "x"}, &positional).ok());
  EXPECT_TRUE(table.CheckMode(1, "batch").ok());
}

TEST(Flags, UsageListsEveryRow) {
  int threads = 0;
  double support = 0;
  std::string out;
  std::string spill;
  size_t budget = 0;
  bool precheck = false;
  const std::vector<Flag> rows = {
      Threads(&threads),   Support(&support), Out(&out),
      SpillDir(&spill),    MemoryBudget(&budget),
      Simd(),              Failpoints(),
      Switch("--precheck", "sketch both columns and exit", &precheck),
  };
  const FlagTable table(rows);
  const std::string usage = table.Usage("tool", {"<a> [flags]", "--b"});
  EXPECT_EQ(usage.rfind("usage: tool <a> [flags]\n       tool --b\n", 0), 0u);
  for (const Flag& row : rows) {
    std::string head = "\n  " + std::string(row.name);
    if (!row.value.empty()) head += " " + std::string(row.value);
    EXPECT_NE(usage.find(head), std::string::npos) << row.name;
  }
  for (size_t start = 0, end; start < usage.size(); start = end + 1) {
    end = usage.find('\n', start);
    EXPECT_LE(end - start, 80u) << usage.substr(start, end - start);
  }
}

}  // namespace
}  // namespace tj::flags
