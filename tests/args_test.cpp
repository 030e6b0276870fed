// Tests for the CLI argument parser.
#include <gtest/gtest.h>

#include <string>

#include "ccq/common/args.hpp"
#include "ccq/common/error.hpp"

namespace ccq {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"ccq"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, CommandIsFirstBareToken) {
  const Args args = parse({"run", "--lr", "0.1"});
  EXPECT_EQ(args.command(), "run");
}

TEST(ArgsTest, NoCommandIsEmpty) {
  const Args args = parse({"--flag"});
  EXPECT_EQ(args.command(), "");
}

TEST(ArgsTest, KeyValuePairs) {
  const Args args = parse({"run", "--arch", "resnet20", "--width", "0.5"});
  EXPECT_EQ(args.get("arch", "x"), "resnet20");
  EXPECT_DOUBLE_EQ(args.get_double("width", 0.0), 0.5);
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
}

TEST(ArgsTest, IntParsingAndValidation) {
  const Args args = parse({"run", "--epochs", "12"});
  EXPECT_EQ(args.get_int("epochs", 0), 12);
  EXPECT_EQ(args.get_int("absent", 7), 7);
  const Args bad = parse({"run", "--epochs", "twelve"});
  EXPECT_THROW(bad.get_int("epochs", 0), Error);
}

/// The ccq::Error message `fn` throws ("" when it throws none).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ArgsTest, IntFlagsOutOfRangeFailInsteadOfWrapping) {
  // 5'000'000'000 narrowed to int reads 705'032'704.
  const Args wide = parse({"serve", "--queue-cap", "5000000000"});
  EXPECT_NE(error_of([&] { wide.get_int("queue-cap", 0); }).find("queue-cap"),
            std::string::npos);
  const Args list = parse({"run", "--ladder", "8,4294967298"});
  EXPECT_THROW(list.get_int_list("ladder", {}), Error);
  const Args edge = parse({"run", "--epochs", "2147483647"});
  EXPECT_EQ(edge.get_int("epochs", 0), 2147483647);
}

TEST(ArgsTest, UnsignedFlagsRejectNegativesAndOverflow) {
  const Args args = parse({"serve", "--queue-cap", "5000000000",
                           "--max-delay-us", "9223372036854775807"});
  EXPECT_EQ(args.get_uint("queue-cap", 0), 5'000'000'000u);
  EXPECT_EQ(args.get_uint("max-delay-us", 0), 9'223'372'036'854'775'807u);
  EXPECT_EQ(args.get_uint("absent", 7), 7u);
  // A negative value cast to unsigned would read SIZE_MAX: `--max-batch
  // -1` must not mean an unbounded batch.
  const Args negative = parse({"serve", "--max-batch", " -1"});
  const std::string message =
      error_of([&] { negative.get_uint("max-batch", 8); });
  EXPECT_NE(message.find("--max-batch"), std::string::npos) << message;
  EXPECT_NE(message.find("out of range"), std::string::npos) << message;
  const Args past = parse({"serve", "--max-delay-us", "9223372036854775808"});
  EXPECT_NE(error_of([&] { past.get_uint("max-delay-us", 0); })
                .find("max-delay-us"),
            std::string::npos);
  // A plain negative token never becomes a value; the error names the
  // flag it followed.
  EXPECT_NE(error_of([] { parse({"serve", "--max-batch", "-1"}); })
                .find("after --max-batch"),
            std::string::npos);
  const Args word = parse({"serve", "--workers", "two"});
  EXPECT_THROW(word.get_uint("workers", 1), Error);
}

TEST(ArgsTest, BareFlags) {
  const Args args = parse({"run", "--no-memory", "--gamma", "2"});
  EXPECT_TRUE(args.get_flag("no-memory"));
  EXPECT_FALSE(args.get_flag("memory"));
  EXPECT_EQ(args.get_int("gamma", 0), 2);
}

TEST(ArgsTest, IntListParsing) {
  const Args args = parse({"run", "--ladder", "8,4,2"});
  const auto ladder = args.get_int_list("ladder", {});
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(ladder[0], 8);
  EXPECT_EQ(ladder[2], 2);
  EXPECT_EQ(args.get_int_list("absent", {1, 2}).size(), 2u);
  const Args bad = parse({"run", "--ladder", "8,x,2"});
  EXPECT_THROW(bad.get_int_list("ladder", {}), Error);
}

TEST(ArgsTest, RejectsMalformedTokens) {
  EXPECT_THROW(parse({"run", "oops"}), Error);       // stray positional
  EXPECT_THROW(parse({"run", "--", "v"}), Error);    // empty flag name
}

TEST(ArgsTest, UnusedTracksUnqueriedKeys) {
  const Args args = parse({"run", "--used", "1", "--typo", "2"});
  args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ArgsTest, NegativeNumbersAreNotFlags) {
  // A value starting with '-' is currently treated as the next flag —
  // the documented limitation: negative values must be passed as e.g.
  // --lambda-end 0 (all ccq flags are non-negative).  Pin the behaviour.
  const Args args = parse({"run", "--a", "--b", "3"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_EQ(args.get("a", "?"), "");
  EXPECT_EQ(args.get_int("b", 0), 3);
}

}  // namespace
}  // namespace ccq
