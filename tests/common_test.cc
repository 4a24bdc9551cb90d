#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "src/common/clock.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/string_util.h"

namespace dipbench {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table orders");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: table orders");
}

TEST(StatusTest, WithContextPrefixes) {
  Status s = Status::ParseError("unexpected <").WithContext("msg 42");
  EXPECT_EQ(s.ToString(), "ParseError: msg 42: unexpected <");
  EXPECT_TRUE(s.IsParseError());
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  Status s = Status::OK().WithContext("ignored");
  EXPECT_TRUE(s.ok());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kAborted); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(42), 42);
}

Result<int> Doubled(int x) {
  DIP_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sumsq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, StringHasRequestedLength) {
  Rng rng(19);
  EXPECT_EQ(rng.NextString(12).size(), 12u);
  EXPECT_EQ(rng.NextString(0).size(), 0u);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(23);
  std::vector<size_t> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // overwhelmingly likely
  std::set<size_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), orig.size());
}

TEST(RngTest, ForkIndependent) {
  Rng a(29);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(DistributionSamplerTest, UniformCoversDomain) {
  DistributionSampler s(Distribution::kUniform, 10, 31);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[s.Sample()]++;
  EXPECT_EQ(counts.size(), 10u);
  for (auto& [k, c] : counts) {
    EXPECT_LT(k, 10u);
    EXPECT_GT(c, 1500);  // roughly uniform: expected 2000 each
    EXPECT_LT(c, 2500);
  }
}

TEST(DistributionSamplerTest, ZipfIsSkewed) {
  DistributionSampler s(Distribution::kZipf, 1000, 37);
  std::map<uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = s.Sample();
    EXPECT_LT(v, 1000u);
    counts[v]++;
  }
  // Hot key gets far more than uniform share (50 per key).
  EXPECT_GT(counts[0], 2000);
}

TEST(DistributionSamplerTest, NormalClustersAroundMid) {
  DistributionSampler s(Distribution::kNormal, 1000, 41);
  int mid = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = s.Sample();
    EXPECT_LT(v, 1000u);
    if (v >= 333 && v < 667) ++mid;
  }
  EXPECT_GT(mid, n * 2 / 3);  // ~68% within 1 sigma, sigma = n/6
}

TEST(DistributionSamplerTest, NamesStable) {
  EXPECT_STREQ(DistributionToString(Distribution::kUniform), "uniform");
  EXPECT_STREQ(DistributionToString(Distribution::kZipf), "zipf");
  EXPECT_STREQ(DistributionToString(Distribution::kNormal), "normal");
}

TEST(VirtualClockTest, AdvanceAccumulates) {
  VirtualClock c;
  EXPECT_EQ(c.Now(), 0.0);
  c.Advance(1.5);
  c.Advance(2.5);
  EXPECT_DOUBLE_EQ(c.Now(), 4.0);
}

TEST(VirtualClockTest, AdvanceToNeverGoesBack) {
  VirtualClock c;
  c.AdvanceTo(10.0);
  c.AdvanceTo(5.0);
  EXPECT_DOUBLE_EQ(c.Now(), 10.0);
  c.Advance(-3.0);  // negative deltas ignored
  EXPECT_DOUBLE_EQ(c.Now(), 10.0);
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  auto parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, "/"), "x/y/z");
  EXPECT_EQ(StrJoin({}, "/"), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(StrTrim("  hi \n"), "hi");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim(" \t "), "");
}

TEST(StringUtilTest, Lower) { EXPECT_EQ(StrLower("AbC9z"), "abc9z"); }

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("orders_mv", "orders"));
  EXPECT_FALSE(StartsWith("or", "orders"));
  EXPECT_TRUE(EndsWith("orders_mv", "_mv"));
  EXPECT_FALSE(EndsWith("mv", "_mv"));
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StrFormat("%s=%d", "k", 42), "k=42");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StringUtilTest, XmlEscape) {
  std::string out = "x";
  AppendXmlEscaped("a<b&c>\"d'", &out);
  EXPECT_EQ(out, "xa&lt;b&amp;c&gt;&quot;d&apos;");
  AppendXmlEscaped("plain", &out);
  EXPECT_EQ(out, "xa&lt;b&amp;c&gt;&quot;d&apos;plain");
  EXPECT_EQ(XmlEscapedSize("a<b&c>\"d'"), out.size() - 6);
  EXPECT_EQ(XmlEscapedSize("plain"), 5u);
}

TEST(LoggingTest, LevelRoundTrip) {
  LogLevel prev = Logger::GetLevel();
  Logger::SetLevel(LogLevel::kError);
  EXPECT_EQ(Logger::GetLevel(), LogLevel::kError);
  DIP_LOG(kInfo) << "suppressed";
  Logger::SetLevel(prev);
}

TEST(SeedHashTest, MatchesFnv1aAndSeparatesNames) {
  // FNV-1a with the canonical 64-bit constants; the endpoint fault
  // injectors and traffic shapes both key their PRNG forks off it, so the
  // constants are part of the byte-identity contract.
  uint64_t h = 1469598103934665603ULL;
  for (char c : std::string("berlin")) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  EXPECT_EQ(SeedHash("berlin"), h);
  EXPECT_NE(SeedHash("berlin"), SeedHash("paris"));
  EXPECT_EQ(SeedHash(""), 1469598103934665603ULL);
}

TEST(FlagSetTest, ParsesDefinedFlags) {
  flags::FlagSet flags("prog");
  flags.Define("jobs", "n").Define("out", "path").Define("verbose", "bool");
  const char* argv[] = {"prog", "--jobs=4", "--out=x.json", "--verbose"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.Has("jobs"));
  EXPECT_EQ(flags.Get("out"), "x.json");
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_EQ(flags.Get("missing", "fallback"), "fallback");
  Result<int> jobs = flags.GetInt("jobs", 0);
  ASSERT_TRUE(jobs.ok());
  EXPECT_EQ(*jobs, 4);
  EXPECT_EQ(*flags.GetInt("absent", 7), 7);
}

TEST(FlagSetTest, RejectsUnknownFlagsAndPositionals) {
  flags::FlagSet flags("prog");
  flags.Define("jobs", "n");
  const char* unknown[] = {"prog", "--jbos=4"};
  Status st = flags.Parse(2, const_cast<char**>(unknown));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--jbos"), std::string::npos);

  flags::FlagSet flags2("prog");
  flags2.Define("jobs", "n");
  const char* positional[] = {"prog", "stray"};
  EXPECT_FALSE(flags2.Parse(2, const_cast<char**>(positional)).ok());
}

TEST(FlagSetTest, NumericGettersValidateTheWholeValue) {
  flags::FlagSet flags("prog");
  flags.Define("jobs", "n").Define("rate", "q");
  const char* argv[] = {"prog", "--jobs=4x", "--rate=0.5"};
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)).ok());
  Status bad = flags.GetInt("jobs", 0).status();
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("jobs"), std::string::npos);
  EXPECT_DOUBLE_EQ(*flags.GetDouble("rate", 0.0), 0.5);
}

}  // namespace
}  // namespace dipbench

