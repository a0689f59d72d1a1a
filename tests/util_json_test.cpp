#include "util/json.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace spmap {
namespace {

TEST(Json, Scalars) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_DOUBLE_EQ(Json(3.5).as_double(), 3.5);
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(Json, TypeErrorsThrow) {
  EXPECT_THROW(Json(1.0).as_string(), Error);
  EXPECT_THROW(Json("x").as_double(), Error);
  EXPECT_THROW(Json(1.5).as_int(), Error);
  EXPECT_THROW(Json().at("k"), Error);
}

TEST(Json, IntegersReadBackExactlyOnlyBelow2To53) {
  // A double holds every integer of magnitude below 2^53 exactly; as_int
  // refuses larger ones instead of rounding them or converting out of
  // int64 range.
  EXPECT_EQ(Json::parse("9007199254740991").as_int(), 9007199254740991);
  EXPECT_EQ(Json::parse("-9007199254740991").as_int(), -9007199254740991);
  EXPECT_THROW(Json::parse("9007199254740992").as_int(), Error);
  EXPECT_THROW(Json::parse("1e19").as_int(), Error);
  EXPECT_THROW(Json::parse("-1e300").as_int(), Error);
}

TEST(Json, ObjectSetAndAt) {
  Json o = Json::object();
  o.set("a", 1);
  o.set("b", "two");
  o.set("a", 3);  // overwrite
  EXPECT_EQ(o.at("a").as_int(), 3);
  EXPECT_EQ(o.at("b").as_string(), "two");
  EXPECT_TRUE(o.contains("a"));
  EXPECT_FALSE(o.contains("c"));
  EXPECT_THROW(o.at("c"), Error);
}

TEST(Json, RoundTripCompact) {
  Json o = Json::object();
  o.set("name", "series-parallel");
  o.set("count", 17);
  o.set("ratio", 0.25);
  o.set("flag", false);
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(Json(nullptr));
  arr.push_back("x\"y\\z");
  o.set("items", std::move(arr));

  const Json parsed = Json::parse(o.dump());
  EXPECT_EQ(parsed.at("name").as_string(), "series-parallel");
  EXPECT_EQ(parsed.at("count").as_int(), 17);
  EXPECT_DOUBLE_EQ(parsed.at("ratio").as_double(), 0.25);
  EXPECT_FALSE(parsed.at("flag").as_bool());
  const auto& items = parsed.at("items").as_array();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].as_int(), 1);
  EXPECT_TRUE(items[1].is_null());
  EXPECT_EQ(items[2].as_string(), "x\"y\\z");
}

TEST(Json, ParseWhitespaceAndNesting) {
  const Json v = Json::parse(R"(  { "a" : [ { "b" : [ 1 , 2 ] } ] }  )");
  EXPECT_EQ(v.at("a").as_array()[0].at("b").as_array()[1].as_int(), 2);
}

TEST(Json, ParseNegativeAndExponent) {
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e2").as_double(), -250.0);
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("{} extra"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
}

TEST(Json, NegativeZeroRoundTrips) {
  // Regression: the integral fast path printed -0.0 as "0", losing the
  // sign bit on a round trip.
  const Json neg(-0.0);
  EXPECT_EQ(neg.dump(), "-0");
  const Json back = Json::parse(neg.dump());
  EXPECT_EQ(back.as_double(), 0.0);
  EXPECT_TRUE(std::signbit(back.as_double()));
  EXPECT_EQ(back.dump(), neg.dump());  // idempotent
  // Positive zero is unaffected.
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_FALSE(std::signbit(Json::parse("0").as_double()));
}

TEST(Json, SubnormalsRoundTrip) {
  // Regression: std::stod throws out_of_range on glibc's ERANGE for
  // subnormal results, so a dumped denormal could not be parsed back.
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double subnormal = 3.1234e-310;  // between denorm_min and DBL_MIN
  for (const double d : {denorm_min, -denorm_min, subnormal, -subnormal}) {
    const std::string text = Json(d).dump();
    const Json back = Json::parse(text);
    EXPECT_EQ(back.as_double(), d) << text;
    EXPECT_EQ(back.dump(), text) << "dump must be idempotent";
  }
  EXPECT_EQ(Json::parse("5e-324").as_double(), denorm_min);
  // Underflow below the smallest subnormal parses as (signed) zero, the
  // nearest double — not an error.
  EXPECT_EQ(Json::parse("1e-999").as_double(), 0.0);
  EXPECT_TRUE(std::signbit(Json::parse("-1e-999").as_double()));
}

TEST(Json, HugeMagnitudesRoundTrip) {
  const double dbl_max = std::numeric_limits<double>::max();
  const double dbl_min_normal = std::numeric_limits<double>::min();
  for (const double d : {1e308, -1e308, dbl_max, -dbl_max, 1e-308, -1e-308,
                         dbl_min_normal, -dbl_min_normal}) {
    const std::string text = Json(d).dump();
    const Json back = Json::parse(text);
    EXPECT_EQ(back.as_double(), d) << text;
    EXPECT_EQ(back.dump(), text) << "dump must be idempotent";
  }
  // Values beyond the double range overflow to infinity: a parse error,
  // because dumped documents never contain them (non-finite prints null).
  EXPECT_THROW(Json::parse("1e999"), Error);
  EXPECT_THROW(Json::parse("-1e999"), Error);
  // Non-finite values keep printing as null.
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, PrettyDumpParses) {
  Json o = Json::object();
  o.set("x", 1);
  Json a = Json::array();
  a.push_back(2);
  o.set("y", std::move(a));
  const std::string pretty = o.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  const Json back = Json::parse(pretty);
  EXPECT_EQ(back.at("x").as_int(), 1);
}

}  // namespace
}  // namespace spmap
