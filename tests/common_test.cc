#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"

namespace gigascope {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad field");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad field");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad field");
}

TEST(StatusTest, AllErrorCodesFormat) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::AlreadyExists("x").ToString(), "AlreadyExists: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
  EXPECT_EQ(Status::Unimplemented("x").ToString(), "Unimplemented: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
  EXPECT_EQ(Status::ResourceExhausted("x").ToString(),
            "ResourceExhausted: x");
  EXPECT_EQ(Status::ParseError("x").ToString(), "ParseError: x");
  EXPECT_EQ(Status::TypeError("x").ToString(), "TypeError: x");
  EXPECT_EQ(Status::PlanError("x").ToString(), "PlanError: x");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  GS_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(ResultTest, ValuePath) {
  Result<int> result = Half(10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 5);
}

TEST(ResultTest, ErrorPath) {
  Result<int> result = Half(7);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_TRUE(Quarter(8).ok());
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, ParetoRespectsMinimum) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.NextPareto(1.5, 2.0), 2.0);
  }
}

TEST(ZipfSamplerTest, UniformWhenSkewZero) {
  Rng rng(17);
  ZipfSampler sampler(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[sampler.Sample(rng)];
  for (int count : counts) {
    EXPECT_NEAR(count, 5000, 500);
  }
}

TEST(ZipfSamplerTest, SkewConcentratesOnLowRanks) {
  Rng rng(19);
  ZipfSampler sampler(1000, 1.2);
  uint64_t top10 = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    if (sampler.Sample(rng) < 10) ++top10;
  }
  // With s=1.2 the top-10 ranks carry well over a third of the mass.
  EXPECT_GT(top10, total / 3);
}

TEST(JsonTest, QuoteEscapesControlBytesAndPassesHighBytes) {
  EXPECT_EQ(JsonQuote(""), "\"\"");
  EXPECT_EQ(JsonQuote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("\n\r\t"), "\"\\n\\r\\t\"");
  EXPECT_EQ(JsonQuote(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  // Bytes >= 0x80 (UTF-8 sequences and stray high bytes) pass through.
  EXPECT_EQ(JsonQuote("caf\xc3\xa9 \x80"), "\"caf\xc3\xa9 \x80\"");
}

TEST(ClockTest, Conversions) {
  EXPECT_EQ(SimTimeToSeconds(2'500'000'000), 2);
  EXPECT_EQ(SecondsToSimTime(1.5), 1'500'000'000);
}

TEST(BytesTest, WriterReaderRoundTrip) {
  ByteBuffer buffer;
  ByteWriter writer(&buffer);
  writer.PutU8(0xab);
  writer.PutU16Be(0x1234);
  writer.PutU32Be(0xdeadbeef);
  writer.PutU16Le(0x5678);
  writer.PutU32Le(0xcafebabe);
  writer.PutU64Le(0x0123456789abcdefULL);

  const ByteBuffer expected = {0xab, 0x12, 0x34, 0xde, 0xad, 0xbe, 0xef,
                               0x78, 0x56, 0xbe, 0xba, 0xfe, 0xca, 0xef,
                               0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01};
  EXPECT_EQ(buffer, expected);
  EXPECT_EQ(writer.size(), expected.size());
}

TEST(Ipv4Test, FormatAndParse) {
  EXPECT_EQ(Ipv4ToString(0x0a000001), "10.0.0.1");
  EXPECT_EQ(Ipv4ToString(0xffffffff), "255.255.255.255");
  auto parsed = ParseIpv4("192.168.1.42");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, 0xc0a8012au);
  EXPECT_EQ(Ipv4ToString(*parsed), "192.168.1.42");
}

TEST(Ipv4Test, RejectsMalformed) {
  EXPECT_FALSE(ParseIpv4("1.2.3").ok());
  EXPECT_FALSE(ParseIpv4("1.2.3.4.5").ok());
  EXPECT_FALSE(ParseIpv4("1.2.3.256").ok());
  EXPECT_FALSE(ParseIpv4("a.b.c.d").ok());
  EXPECT_FALSE(ParseIpv4("1..2.3").ok());
  EXPECT_FALSE(ParseIpv4("").ok());
}

TEST(HashTest, Fnv1a64KnownValues) {
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  // Distinct inputs hash differently.
  std::set<uint64_t> hashes;
  for (uint32_t i = 0; i < 1000; ++i) {
    hashes.insert(Fnv1a64(&i, sizeof(i)));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

}  // namespace
}  // namespace gigascope
