// Unit tests for the util substrate: RNG determinism and distribution
// sanity, statistics, histograms, tables, CLI parsing, Zipf sampling, the
// Notification wake-up flag.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/fnv1a.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/notification.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/zipf.hpp"

namespace {

using namespace pbw::util;

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= (v == 5);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanNearHalf) {
  Xoshiro256 rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, StreamsAreIndependent) {
  RngStreams streams(99);
  auto a = streams.stream(0, 0);
  auto b = streams.stream(0, 1);
  auto a2 = streams.stream(0, 0);
  EXPECT_EQ(a(), a2());
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, Mix64SensitiveToEachArgument) {
  EXPECT_NE(mix64(1, 2, 3), mix64(1, 2, 4));
  EXPECT_NE(mix64(1, 2, 3), mix64(1, 3, 3));
  EXPECT_NE(mix64(1, 2, 3), mix64(2, 2, 3));
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 10.0);
}

TEST(Stats, SummarizeSingleElement) {
  const std::vector<double> v{42.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);  // n-1 denominator guarded at n = 1
}

TEST(Stats, QuantileEmptyAndSingleElement) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(quantile(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile(one, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(quantile(one, 1.0), 7.0);
}

TEST(Stats, QuantileClampsOutOfRangeQ) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.5), 3.0);
}

TEST(Stats, QuantileUnsortedInput) {
  const std::vector<double> v{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 3.0);
}

TEST(Stats, AccumulatorMatchesSummary) {
  Xoshiro256 rng(17);
  std::vector<double> v;
  Accumulator acc;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform() * 10 - 5;
    v.push_back(x);
    acc.add(x);
  }
  const Summary s = summarize(v);
  EXPECT_NEAR(acc.mean(), s.mean, 1e-9);
  EXPECT_NEAR(acc.stddev(), s.stddev, 1e-9);
  EXPECT_DOUBLE_EQ(acc.min(), s.min);
  EXPECT_DOUBLE_EQ(acc.max(), s.max);
}

TEST(Stats, ChernoffDecreasesWithMu) {
  EXPECT_GT(chernoff_upper_tail(10, 0.5), chernoff_upper_tail(100, 0.5));
  EXPECT_LE(chernoff_upper_tail(100, 0.5), 1.0);
}

TEST(Stats, ExceedFraction) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(exceed_fraction(v, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(exceed_fraction(v, 10), 0.0);
}

TEST(Stats, RegressionSlope) {
  const std::vector<double> x{0, 1, 2, 3};
  const std::vector<double> y{1, 3, 5, 7};
  EXPECT_NEAR(regression_slope(x, y), 2.0, 1e-12);
  const std::vector<double> flat{4, 4, 4, 4};
  EXPECT_NEAR(regression_slope(x, flat), 0.0, 1e-12);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0, 10, 5);
  h.add(0.5);
  h.add(9.5);
  h.add(-100);  // clamps into first bucket
  h.add(100);   // clamps into last bucket
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(4), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_FALSE(h.render().empty());
}

TEST(Table, RendersAligned) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333"});
  const std::string out = t.render();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Cli, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog", "pos1", "--p=64", "--eps", "0.1", "--verbose"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("p", 0), 64);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0), 0.1);
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_FALSE(cli.get_bool("absent"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.get_int("missing", -7), -7);
}

TEST(Json, DumpPrimitives) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi \"there\"\n").dump(), "\"hi \\\"there\\\"\\n\"");
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json obj = Json::object();
  obj["zebra"] = Json(1);
  obj["alpha"] = Json(2);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2}");
  EXPECT_EQ(obj.get("alpha")->as_int(), 2);
  EXPECT_EQ(obj.get("missing"), nullptr);
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"s":"a\tb","n":-1.5e3,"t":true,"f":false,"z":null,"arr":[1,2,3],"o":{"k":"v"}})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.get("s")->as_string(), "a\tb");
  EXPECT_DOUBLE_EQ(j.get("n")->as_double(), -1500.0);
  EXPECT_TRUE(j.get("t")->as_bool());
  EXPECT_FALSE(j.get("f")->as_bool());
  EXPECT_TRUE(j.get("z")->is_null());
  ASSERT_EQ(j.get("arr")->size(), 3u);
  EXPECT_EQ(j.get("arr")->at(1).as_int(), 2);
  EXPECT_EQ(j.get("o")->get("k")->as_string(), "v");
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

TEST(Json, ParsePreservesDoublePrecision) {
  const double v = 8228.6835496453659;
  Json obj = Json::object();
  obj["v"] = Json(v);
  EXPECT_DOUBLE_EQ(Json::parse(obj.dump()).get("v")->as_double(), v);
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(Json::parse(R"("a\u0041")").as_string(), "aA");
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
}

/// A well-formed document of `depth` nested arrays or objects.
std::string nested(std::size_t depth, bool objects) {
  if (!objects) return std::string(depth, '[') + std::string(depth, ']');
  std::string doc;
  for (std::size_t i = 1; i < depth; ++i) doc += "{\"k\":";
  return doc + "{}" + std::string(depth - 1, '}');
}

TEST(Json, NestingDeeperThanTheLimitThrows) {
  // The parser recurses once per level, so a body of 200 KB of '[' must
  // fail as a JsonError instead of overflowing the stack.
  EXPECT_THROW((void)Json::parse(std::string(200 * 1024, '[')), JsonError);
  EXPECT_THROW((void)Json::parse(nested(Json::kMaxDepth + 1, false)), JsonError);
  EXPECT_THROW((void)Json::parse(nested(Json::kMaxDepth + 1, true)), JsonError);
}

TEST(Json, NestingAtTheLimitParses) {
  const Json arrays = Json::parse(nested(Json::kMaxDepth, false));
  std::size_t levels = 1;
  for (const Json* j = &arrays; j->size() > 0; j = &j->at(0)) ++levels;
  EXPECT_EQ(levels, Json::kMaxDepth);
  EXPECT_NO_THROW((void)Json::parse(nested(Json::kMaxDepth, true)));
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("[1]");
  EXPECT_THROW((void)j.as_string(), JsonError);
  EXPECT_THROW((void)j.get("k"), JsonError);
  EXPECT_THROW((void)j.at(5), JsonError);
}

TEST(Json, AsU64AcceptsOnlyIntegersInRange) {
  // The largest double below 2^64 is 2^64 - 2048.
  EXPECT_EQ(Json::parse("18446744073709549568").as_u64(),
            18446744073709549568ull);
  EXPECT_EQ(Json::parse("0").as_u64(), 0u);
  EXPECT_EQ(Json::parse("-0").as_u64(), 0u);
  for (const char* bad :
       {"18446744073709551616", "1e300", "-1", "1.5", "\"1\"", "null"}) {
    EXPECT_THROW((void)Json::parse(bad).as_u64(), JsonError) << bad;
  }
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  Json obj = Json::object();
  obj["inf"] = Json(std::numeric_limits<double>::infinity());
  EXPECT_EQ(obj.dump(), "{\"inf\":null}");
}

TEST(Fnv1a, PinnedValues) {
  // Trial RNG streams, fleet job ids and tape fingerprints are derived
  // from this hash, so its values must never move.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  // Folding in pieces equals hashing the whole.
  EXPECT_EQ(fnv1a64("bar", 3, fnv1a64("foo")), fnv1a64("foobar"));
}

TEST(Cli, ModelFlagsDefaults) {
  const char* argv[] = {"prog", "--p=256", "--g=8"};
  const Cli cli(3, const_cast<char**>(argv));
  const ModelFlags f = read_model_flags(cli);
  EXPECT_EQ(f.p, 256u);
  EXPECT_DOUBLE_EQ(f.g, 8.0);
  EXPECT_DOUBLE_EQ(f.L, 16.0);
  EXPECT_EQ(f.seed, 1u);
  EXPECT_EQ(f.trials, 1);
}

/// A Cli over `args` (after the program name).
Cli cli_of(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (std::string& arg : args) argv.push_back(arg.data());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, NumbersMustParseInFull) {
  const Cli cli = cli_of({"--n=42", "--neg=-3", "--x=0.25", "--abc=abc",
                          "--trail=4x", "--empty=", "--frac=1.5",
                          "--inf=inf", "--nan=nan", "--huge=1e400",
                          "--big=99999999999999999999"});
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_EQ(cli.get_int("neg", 0), -3);
  EXPECT_EQ(cli.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(cli.get_double("n", 0.0), 42.0);
  for (const char* key : {"abc", "trail", "empty", "frac", "big"}) {
    EXPECT_THROW((void)cli.get_int(key, 0), FlagError) << key;
  }
  for (const char* key : {"abc", "trail", "empty", "inf", "nan", "huge"}) {
    EXPECT_THROW((void)cli.get_double(key, 0.0), FlagError) << key;
  }
}

TEST(Cli, NumbersOutsideTheirRangeAreRejected) {
  const Cli cli = cli_of({"--port=70000", "--max=65535", "--threads=-1",
                          "--zero=0", "--half=0.5", "--minus=-2"});
  EXPECT_THROW((void)cli.get_int("port", 0, 0, 65535), FlagError);
  EXPECT_EQ(cli.get_int("max", 0, 0, 65535), 65535);
  EXPECT_THROW((void)cli.get_int("threads", 0, 0, 1024), FlagError);
  EXPECT_DOUBLE_EQ(cli.get_positive("half", 1.0), 0.5);
  EXPECT_DOUBLE_EQ(cli.get_positive("absent", 30.0), 30.0);
  EXPECT_THROW((void)cli.get_positive("zero", 1.0), FlagError);
  EXPECT_THROW((void)cli.get_positive("minus", 1.0), FlagError);
  // The message names the flag and its value.
  try {
    (void)cli.get_int("port", 0, 0, 65535);
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("--port=70000"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, ModelFlagsRejectBadValues) {
  for (const char* bad : {"--p=abc", "--p=0", "--p=-4", "--p=4294967296",
                          "--g=0", "--g=x", "--L=x", "--seed=-1",
                          "--trials=0", "--trials=2.5"}) {
    EXPECT_THROW((void)read_model_flags(cli_of({bad})), FlagError) << bad;
  }
}

TEST(Zipf, UniformWhenThetaZero) {
  ZipfSampler z(4, 0.0);
  Xoshiro256 rng(1);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[z.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Zipf, SkewPrefersLowRanks) {
  ZipfSampler z(100, 1.2);
  Xoshiro256 rng(2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 100);
}

TEST(Zipf, RejectsEmptyUniverse) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
}

TEST(Notification, NotifyBeforeWaitIsNotLost) {
  Notification done;
  EXPECT_FALSE(done.wait_for(std::chrono::seconds(0)));
  done.notify();
  done.notify();  // idempotent
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(done.wait_for(std::chrono::seconds(10)));
  EXPECT_TRUE(done.wait_until(t0 - std::chrono::seconds(1)));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

TEST(Notification, TimesOutUntilNotifiedAndRearmsOnReset) {
  Notification done;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(done.wait_for(std::chrono::milliseconds(20)));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(20));
  EXPECT_FALSE(done.wait_until(std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(5)));
  done.notify();
  done.reset();
  EXPECT_FALSE(done.wait_for(std::chrono::milliseconds(1)));
}

TEST(Notification, NotifyWakesEveryWaiterAtOnce) {
  // Waiters block for up to 10 s; one notify from another thread must end
  // every wait long before that, whether it lands before or after a
  // waiter has started waiting.
  Notification done;
  std::atomic<int> woken{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      if (done.wait_for(std::chrono::seconds(10))) ++woken;
    });
  }
  std::thread notifier([&] { done.notify(); });
  notifier.join();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(woken.load(), 4);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

}  // namespace
