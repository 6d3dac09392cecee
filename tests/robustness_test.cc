// Robustness ("never crash on hostile input") properties. A network
// monitor's parsers face adversarial bytes by definition; every decoder in
// the system must fail cleanly, never fault, on arbitrary input.

#include <gtest/gtest.h>

#include <string>

#include "bpf/interpreter.h"
#include "bpf/verifier.h"
#include "common/rng.h"
#include "gsql/parser.h"
#include "net/headers.h"
#include "rts/punctuation.h"
#include "rts/tuple.h"
#include "udf/lpm.h"
#include "udf/regex.h"

namespace gigascope {
namespace {

std::string RandomBytes(Rng& rng, size_t max_len) {
  size_t len = rng.NextBelow(max_len + 1);
  std::string bytes;
  bytes.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    bytes += static_cast<char>(rng.NextBelow(256));
  }
  return bytes;
}

std::string RandomText(Rng& rng, size_t max_len, const char* alphabet) {
  size_t n = 0;
  while (alphabet[n] != '\0') ++n;
  size_t len = rng.NextBelow(max_len + 1);
  std::string text;
  for (size_t i = 0; i < len; ++i) {
    text += alphabet[rng.NextBelow(n)];
  }
  return text;
}

class RandomInputs : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomInputs, PacketDecoderNeverFaults) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = RandomBytes(rng, 200);
    auto decoded = net::DecodePacket(
        ByteSpan(reinterpret_cast<const uint8_t*>(bytes.data()),
                 bytes.size()));
    // OK or clean error; payload views must stay inside the buffer.
    if (decoded.ok() && !decoded->payload.empty()) {
      const uint8_t* begin =
          reinterpret_cast<const uint8_t*>(bytes.data());
      EXPECT_GE(decoded->payload.data(), begin);
      EXPECT_LE(decoded->payload.data() + decoded->payload.size(),
                begin + bytes.size());
    }
  }
}

TEST_P(RandomInputs, MutatedRealPacketsDecodeCleanly) {
  Rng rng(GetParam());
  net::TcpPacketSpec spec;
  spec.payload = "legitimate payload bytes";
  ByteBuffer base = net::BuildTcpPacket(spec);
  for (int i = 0; i < 2000; ++i) {
    ByteBuffer mutant = base;
    // Flip a few random bytes (header corruption).
    for (int flips = 0; flips < 4; ++flips) {
      mutant[rng.NextBelow(mutant.size())] =
          static_cast<uint8_t>(rng.Next());
    }
    // Occasionally truncate.
    if (rng.NextBool(0.3)) {
      mutant.resize(rng.NextBelow(mutant.size() + 1));
    }
    net::DecodePacket(ByteSpan(mutant.data(), mutant.size())).ok();
  }
}

TEST_P(RandomInputs, GsqlLexerAndParserNeverFault) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    // Raw bytes.
    gsql::Parse(RandomBytes(rng, 120)).ok();
    // Token soup that lexes but should rarely parse.
    gsql::Parse(RandomText(
                    rng, 120,
                    "SELECT FROM WHERE GROUP BY MERGE ( ) { } , ; . : = < > "
                    "+ - * / abc 123 1.2.3.4 'str' $p "))
        .ok();
  }
}

TEST_P(RandomInputs, TupleDecoderNeverFaults) {
  Rng rng(GetParam());
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"a", gsql::DataType::kUint, gsql::OrderSpec::None()});
  fields.push_back({"s", gsql::DataType::kString, gsql::OrderSpec::None()});
  fields.push_back({"b", gsql::DataType::kBool, gsql::OrderSpec::None()});
  rts::TupleCodec codec(
      gsql::StreamSchema("r", gsql::StreamKind::kStream, fields));
  for (int i = 0; i < 3000; ++i) {
    std::string bytes = RandomBytes(rng, 64);
    codec.Decode(ByteSpan(reinterpret_cast<const uint8_t*>(bytes.data()),
                          bytes.size()))
        .ok();
  }
}

TEST_P(RandomInputs, PunctuationReaderNeverFaults) {
  Rng rng(GetParam());
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"t", gsql::DataType::kUint, gsql::OrderSpec::Increasing()});
  gsql::StreamSchema schema("p", gsql::StreamKind::kStream, fields);
  for (int i = 0; i < 3000; ++i) {
    std::string bytes = RandomBytes(rng, 64);
    const ByteSpan payload(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size());
    const uint8_t* bound = rts::FindBound(payload, schema, 0);
    if (bound != nullptr) {
      // A bound found lies wholly inside the payload.
      EXPECT_GE(bound, payload.data());
      EXPECT_LE(bound + sizeof(rts::PackedBound),
                payload.data() + payload.size());
    }
  }
}

TEST_P(RandomInputs, RegexCompilerNeverFaults) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    std::string pattern =
        RandomText(rng, 24, "ab(|)*+?[]^$.\\{},0123456789-");
    auto regex = udf::Regex::Compile(pattern);
    if (regex.ok()) {
      // A successfully compiled pattern must match safely too.
      regex->Matches(RandomText(rng, 40, "ab01"));
      regex->FullMatch("");
    }
  }
}

TEST_P(RandomInputs, LpmTableParserNeverFaults) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    udf::LpmTable::Parse(RandomText(rng, 80, "0123456789./# \nabc")).ok();
  }
}

TEST_P(RandomInputs, VerifiedBpfProgramsAlwaysTerminate) {
  Rng rng(GetParam());
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    bpf::Program program;
    size_t len = 1 + rng.NextBelow(12);
    for (size_t j = 0; j < len; ++j) {
      bpf::Instruction instr;
      instr.op = static_cast<bpf::OpCode>(
          rng.NextBelow(static_cast<uint64_t>(bpf::OpCode::kRetA) + 1));
      instr.k = static_cast<uint32_t>(rng.Next());
      instr.jt = static_cast<uint8_t>(rng.NextBelow(4));
      instr.jf = static_cast<uint8_t>(rng.NextBelow(4));
      program.instructions.push_back(instr);
    }
    if (!bpf::Verify(program).ok()) continue;
    ++accepted;
    // Verified programs must run to completion on any packet.
    std::string packet = RandomBytes(rng, 100);
    bpf::Run(program,
             ByteSpan(reinterpret_cast<const uint8_t*>(packet.data()),
                      packet.size()));
  }
  // The verifier should accept at least a few random programs, or this
  // test exercises nothing.
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInputs,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace gigascope
