#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace spmap {
namespace {

// ---- Flags ----

Flags make_flags(std::vector<const char*> args,
                 std::vector<std::string> known) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()), args.data(), known);
}

TEST(Flags, EqualsSyntax) {
  const auto f = make_flags({"--seed=42"}, {"seed"});
  EXPECT_EQ(f.get_int("seed", 0), 42);
}

TEST(Flags, SpaceSyntax) {
  const auto f = make_flags({"--seed", "7"}, {"seed"});
  EXPECT_EQ(f.get_int("seed", 0), 7);
}

TEST(Flags, BareBoolean) {
  const auto f = make_flags({"--verbose"}, {"verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, Fallbacks) {
  const auto f = make_flags({}, {"seed"});
  EXPECT_EQ(f.get_int("seed", 123), 123);
  EXPECT_DOUBLE_EQ(f.get_double("seed", 1.5), 1.5);
  EXPECT_EQ(f.get("seed", "x"), "x");
}

// Invocation mistakes are UsageErrors, which the tools map to exit code 2.
TEST(Flags, UnknownFlagThrows) {
  EXPECT_THROW(make_flags({"--oops=1"}, {"seed"}), UsageError);
}

TEST(Flags, BadIntThrows) {
  const auto f = make_flags({"--seed=abc"}, {"seed"});
  EXPECT_THROW(f.get_int("seed", 0), UsageError);
}

TEST(Flags, PositionalArgumentThrows) {
  EXPECT_THROW(make_flags({"stray"}, {}), UsageError);
}

TEST(Flags, MissingRequiredFlagThrows) {
  EXPECT_THROW(make_flags({}, {"in"}).get_required("in"), UsageError);
  EXPECT_THROW(make_flags({"--in="}, {"in"}).get_required("in"), UsageError);
  EXPECT_EQ(make_flags({"--in", "g.json"}, {"in"}).get_required("in"),
            "g.json");
}

// ---- Table ----

TEST(Table, TsvOutput) {
  Table t({"n", "value"});
  t.add_row({"1", "0.5"});
  t.add_row({"2", format_double(0.25, 2)});
  std::ostringstream os;
  t.write_tsv(os);
  EXPECT_EQ(os.str(), "n\tvalue\n1\t0.5\n2\t0.25\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, AlignedContainsAllCells) {
  Table t({"alg", "time"});
  t.add_row({"HEFT", "10"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("HEFT"), std::string::npos);
  EXPECT_NE(s.find("time"), std::string::npos);
}

TEST(FormatHelpers, Duration) {
  EXPECT_EQ(format_duration(0.5e-3), "500.00 us");
  EXPECT_EQ(format_duration(0.25), "250.00 ms");
  EXPECT_EQ(format_duration(2.0), "2.00 s");
}

// ---- Timer ----

TEST(Timer, MonotoneNonNegative) {
  WallTimer t;
  EXPECT_GE(t.seconds(), 0.0);
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(b, a);
}

TEST(Deadline, NoBudgetNeverExpires) {
  Deadline d(0.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), 1e100);
}

TEST(Deadline, TinyBudgetExpires) {
  Deadline d(1e-9);
  // Busy-wait a few microseconds.
  WallTimer t;
  while (t.seconds() < 1e-5) {
  }
  EXPECT_TRUE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining(), 0.0);
}

}  // namespace
}  // namespace spmap
