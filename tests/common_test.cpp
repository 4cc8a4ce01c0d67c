// Unit tests for the common substrate: strong types, RNG, statistics,
// results, and table formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <thread>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace canary {
namespace {

// ---- time -------------------------------------------------------------

TEST(DurationTest, ConstructorsAgree) {
  EXPECT_EQ(Duration::msec(5).count_usec(), 5000);
  EXPECT_EQ(Duration::sec(1.5).count_usec(), 1'500'000);
  EXPECT_EQ(Duration::usec(42).count_usec(), 42);
  EXPECT_DOUBLE_EQ(Duration::sec(2.0).to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(Duration::msec(250).to_msec(), 250.0);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::msec(100);
  const Duration b = Duration::msec(50);
  EXPECT_EQ((a + b).count_usec(), 150'000);
  EXPECT_EQ((a - b).count_usec(), 50'000);
  EXPECT_EQ((a * 2.5).count_usec(), 250'000);
  EXPECT_EQ((a / 4).count_usec(), 25'000);
  EXPECT_DOUBLE_EQ(a / b, 2.0);
}

TEST(DurationTest, ComparisonAndAccumulation) {
  EXPECT_LT(Duration::msec(1), Duration::msec(2));
  Duration acc = Duration::zero();
  for (int i = 0; i < 10; ++i) acc += Duration::msec(10);
  EXPECT_EQ(acc, Duration::msec(100));
  acc -= Duration::msec(30);
  EXPECT_EQ(acc, Duration::msec(70));
}

TEST(TimePointTest, OffsetArithmetic) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::sec(3.0);
  EXPECT_EQ((t1 - t0).to_seconds(), 3.0);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(TimePoint::from_usec(123).count_usec(), 123);
}

// ---- ids ----------------------------------------------------------------

TEST(IdTest, InvalidSentinelAndValidity) {
  EXPECT_FALSE(JobId{}.valid());
  EXPECT_FALSE(JobId::invalid().valid());
  EXPECT_TRUE(JobId{1}.valid());
}

TEST(IdTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<JobId, FunctionId>);
  static_assert(!std::is_convertible_v<JobId, FunctionId>);
}

TEST(IdTest, GeneratorIsMonotonicFromOne) {
  IdGenerator<ContainerId> gen;
  EXPECT_EQ(gen.next().value(), 1u);
  EXPECT_EQ(gen.next().value(), 2u);
  EXPECT_EQ(gen.issued(), 2u);
}

TEST(IdTest, Hashable) {
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    hashes.insert(std::hash<NodeId>{}(NodeId{i}));
  }
  EXPECT_GT(hashes.size(), 90u);  // no pathological collisions
}

// ---- bytes ---------------------------------------------------------------

TEST(BytesTest, UnitsAndConversions) {
  EXPECT_EQ(Bytes::kib(1).count(), 1024u);
  EXPECT_EQ(Bytes::mib(2).count(), 2u * 1024 * 1024);
  EXPECT_EQ(Bytes::gib(1).count(), 1024ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(Bytes::mib(3).to_mib(), 3.0);
  EXPECT_DOUBLE_EQ(Bytes::gib(2).to_gib(), 2.0);
}

TEST(BytesTest, ArithmeticAndOrdering) {
  EXPECT_EQ((Bytes::mib(1) + Bytes::mib(1)).count(), Bytes::mib(2).count());
  EXPECT_LT(Bytes::kib(1), Bytes::mib(1));
  EXPECT_EQ((Bytes::kib(4) * 3).count(), Bytes::kib(12).count());
}

// ---- rng -------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 7u);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliFrequencyTracksP) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, ChildStreamsIndependentAndStable) {
  Rng parent(42);
  Rng c1 = parent.child(1);
  Rng c2 = parent.child(2);
  Rng c1_again = parent.child(1);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  // Child streams should not collide.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ChildDerivationIgnoresParentPosition) {
  Rng a(42);
  Rng b(42);
  (void)b.next_u64();  // advance b
  EXPECT_EQ(a.child(5).next_u64(), b.child(5).next_u64());
}

// ---- stats -------------------------------------------------------------------

TEST(SampleSetTest, MeanStdMinMax) {
  SampleSet s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(SampleSetTest, EmptyIsZero) {
  SampleSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

// ---- result ------------------------------------------------------------------

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad = Error::not_found("missing");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(ok.value_or(-1), 42);
}

TEST(StatusTest, OkAndError) {
  Status ok = Status::ok_status();
  EXPECT_TRUE(ok.ok());
  Status bad = Error::unavailable("down");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kUnavailable);
}

TEST(ErrorTest, CodeNames) {
  EXPECT_EQ(to_string_view(ErrorCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(to_string_view(ErrorCode::kResourceExhausted),
            "resource_exhausted");
}

// ---- table --------------------------------------------------------------------

TEST(TextTableTest, AlignsAndSeparates) {
  TextTable t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find("xx"), std::string::npos);
}

TEST(TextTableTest, CsvOutput) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_EQ(oss.str(), "a,b\n1,2\n");
}

TEST(TextTableTest, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTableTest, ShortRowsArePadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_EQ(oss.str(), "a,b,c\nonly,,\n");
}

}  // namespace
}  // namespace canary
