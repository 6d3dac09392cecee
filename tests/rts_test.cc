#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <thread>

#include "common/rng.h"
#include "rts/punctuation.h"
#include "rts/registry.h"
#include "rts/ring.h"
#include "rts/tuple.h"

namespace gigascope::rts {
namespace {

using expr::Value;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

StreamSchema MixedSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"i", DataType::kInt, OrderSpec::None()});
  fields.push_back({"f", DataType::kFloat, OrderSpec::None()});
  fields.push_back({"addr", DataType::kIp, OrderSpec::None()});
  fields.push_back({"s", DataType::kString, OrderSpec::None()});
  fields.push_back({"b", DataType::kBool, OrderSpec::None()});
  return StreamSchema("mixed", StreamKind::kStream, fields);
}

Row SampleRow() {
  return {Value::Uint(42),          Value::Int(-7),
          Value::Float(3.25),       Value::Ip(0x0a000001),
          Value::String("payload"), Value::Bool(true)};
}

/// Appends a message holding `payload` to `batch`.
void Add(StreamBatch* batch, const ByteBuffer& payload = {},
         MessageKind kind = MessageKind::kTuple) {
  MessageMeta meta;
  meta.kind = kind;
  batch->Append(meta, ByteSpan(payload.data(), payload.size()));
}

/// A batch of one message: what a message-at-a-time producer pushes.
StreamBatch One(const ByteBuffer& payload = {},
                MessageKind kind = MessageKind::kTuple) {
  StreamBatch batch;
  Add(&batch, payload, kind);
  return batch;
}

/// The packed bytes of item `i`.
ByteBuffer Payload(const StreamBatch& batch, size_t i) {
  ByteSpan bytes = batch.payload(i);
  return ByteBuffer(bytes.begin(), bytes.end());
}

TEST(TupleCodecTest, RoundTrip) {
  TupleCodec codec(MixedSchema());
  ByteBuffer buffer;
  Row row = SampleRow();
  codec.Encode(row, &buffer);
  EXPECT_EQ(buffer.size(), codec.EncodedSize(row));
  auto decoded = codec.Decode(ByteSpan(buffer.data(), buffer.size()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*decoded)[i], row[i]) << "field " << i;
  }
}

TEST(TupleCodecTest, EmptyStringField) {
  TupleCodec codec(MixedSchema());
  Row row = SampleRow();
  row[4] = Value::String("");
  ByteBuffer buffer;
  codec.Encode(row, &buffer);
  auto decoded = codec.Decode(ByteSpan(buffer.data(), buffer.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[4].string_value(), "");
}

TEST(TupleCodecTest, TruncationRejected) {
  TupleCodec codec(MixedSchema());
  ByteBuffer buffer;
  codec.Encode(SampleRow(), &buffer);
  for (size_t cut : {size_t{0}, size_t{1}, buffer.size() / 2,
                     buffer.size() - 1}) {
    auto decoded = codec.Decode(ByteSpan(buffer.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(TupleCodecTest, TrailingBytesRejected) {
  TupleCodec codec(MixedSchema());
  ByteBuffer buffer;
  codec.Encode(SampleRow(), &buffer);
  buffer.push_back(0xff);
  EXPECT_FALSE(codec.Decode(ByteSpan(buffer.data(), buffer.size())).ok());
}

/// Fixed-width fields before, between and after two strings.
StreamSchema StringsBetweenSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"a", DataType::kString, OrderSpec::None()});
  fields.push_back({"addr", DataType::kIp, OrderSpec::None()});
  fields.push_back({"b", DataType::kString, OrderSpec::None()});
  fields.push_back({"flag", DataType::kBool, OrderSpec::None()});
  fields.push_back({"f", DataType::kFloat, OrderSpec::None()});
  return StreamSchema("between", StreamKind::kStream, fields);
}

/// Framed() must accept exactly what Decode accepts and, when it does,
/// every field of a read set, located in place and read by the one-field
/// reader, must be Decode's value.
void ExpectSameVerdict(const TupleCodec& codec, ByteSpan bytes,
                       const std::string& what) {
  const auto full = codec.Decode(bytes);
  ASSERT_EQ(codec.Framed(bytes), full.ok()) << what;
  if (!full.ok()) return;
  const ReadSet read_sets[] = {{}, {0}, {1}, {2, 4}, {3, 5}, {0, 1, 2, 3, 4, 5}};
  for (const ReadSet& fields : read_sets) {
    std::vector<const uint8_t*> at(codec.schema().num_fields(), nullptr);
    codec.LocateFields(bytes.data(), fields, at.data());
    for (uint32_t f : fields) {
      const DataType type = codec.schema().field(f).type;
      EXPECT_EQ(expr::ReadField(type, at[f]), (*full)[f])
          << what << ", field " << f;
      EXPECT_EQ(codec.Locate(bytes.data(), f), at[f])
          << what << ", field " << f;
    }
  }
}

TEST(TupleCodecTest, LocatedReadsAreExactlyAsStrictAsDecode) {
  TupleCodec codec(StringsBetweenSchema());
  const Row row = {Value::Uint(7),    Value::String("first"),
                   Value::Ip(0x01020304), Value::String(""),
                   Value::Bool(true), Value::Float(-2.5)};
  ByteBuffer buffer;
  codec.Encode(row, &buffer);
  ExpectSameVerdict(codec, ByteSpan(buffer.data(), buffer.size()), "intact");
  // Every truncation prefix.
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    ExpectSameVerdict(codec, ByteSpan(buffer.data(), cut),
                      "cut at " + std::to_string(cut));
  }
  // A string length that runs past the end, for each string.
  for (size_t length_word : {size_t{8}, size_t{8 + 4 + 5 + 4}}) {
    ByteBuffer bad = buffer;
    bad[length_word] = 0xff;
    ExpectSameVerdict(codec, ByteSpan(bad.data(), bad.size()),
                      "long string at " + std::to_string(length_word));
  }
  // Trailing bytes.
  ByteBuffer trailing = buffer;
  trailing.push_back(0);
  ExpectSameVerdict(codec, ByteSpan(trailing.data(), trailing.size()),
                    "trailing byte");
  // Random single-byte corruptions, which move the string boundaries.
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    ByteBuffer mutated = buffer;
    mutated[rng.NextBelow(mutated.size())] =
        static_cast<uint8_t>(rng.NextBelow(256));
    if (rng.NextBool(0.3)) mutated.resize(rng.NextBelow(mutated.size() + 1));
    ExpectSameVerdict(codec, ByteSpan(mutated.data(), mutated.size()),
                      "mutation " + std::to_string(i));
  }
}

TEST(TupleCodecTest, LocateFieldsPointsAtEachFieldsPackedBytes) {
  TupleCodec codec(StringsBetweenSchema());
  const Row row = {Value::Uint(7),        Value::String("first"),
                   Value::Ip(0x01020304), Value::String("second!"),
                   Value::Bool(true),     Value::Float(-2.5)};
  ByteBuffer buffer;
  codec.Encode(row, &buffer);
  const ReadSet fields = {0, 2, 3, 5};
  const uint8_t* at[6] = {};
  codec.LocateFields(buffer.data(), fields, at);
  for (uint32_t f : fields) {
    const DataType type = StringsBetweenSchema().field(f).type;
    EXPECT_EQ(expr::ReadField(type, at[f]), row[f]);
    EXPECT_EQ(expr::FieldSize(type, at[f]), expr::ValueSize(row[f]));
  }
  // Fields outside the read set are left as they were.
  EXPECT_EQ(at[1], nullptr);
  EXPECT_EQ(at[4], nullptr);
}

double Float(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(TupleCodecTest, GroupKeyFloatsAreCanonicalAndNanSortsLast) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(CanonicalFloatBits(Bits(-0.0)), Bits(0.0));
  EXPECT_EQ(CanonicalFloatBits(Bits(-nan)), Bits(nan));
  EXPECT_EQ(CanonicalFloatBits(0x7ff0000000000001ULL), Bits(nan));  // sNaN
  EXPECT_EQ(CanonicalFloatBits(Bits(-1.5)), Bits(-1.5));
  EXPECT_TRUE(std::isinf(Float(CanonicalFloatBits(Bits(-INFINITY)))));

  auto packed = [](double d) {
    ByteBuffer bytes(8);
    StoreLe64(bytes.data(), Bits(d));
    return bytes;
  };
  auto cmp = [&](double a, double b) {
    return ComparePacked(DataType::kFloat, packed(a).data(),
                         packed(b).data());
  };
  EXPECT_EQ(cmp(-0.0, 0.0), 0);
  EXPECT_EQ(cmp(nan, -nan), 0);
  EXPECT_EQ(cmp(nan, INFINITY), 1);
  EXPECT_EQ(cmp(-INFINITY, nan), -1);
  EXPECT_EQ(cmp(-2.0, 1.0), -1);

  // Strings order as std::string::compare: bytes unsigned, then length.
  auto packed_string = [](const std::string& text) {
    const Value value = Value::String(text);
    ByteBuffer bytes(expr::ValueSize(value));
    expr::WriteValue(value, bytes.data());
    return bytes;
  };
  const ByteBuffer a = packed_string("ab");
  const ByteBuffer b = packed_string("abc");
  const ByteBuffer c = packed_string("\xff");
  EXPECT_EQ(ComparePacked(DataType::kString, a.data(), b.data()), -1);
  EXPECT_EQ(ComparePacked(DataType::kString, c.data(), b.data()), 1);
  EXPECT_EQ(ComparePacked(DataType::kString, a.data(), a.data()), 0);
  // A BOOL key byte of 2 is true, and canonicalizes to 1.
  uint8_t flag = 2;
  const uint8_t one = 1;
  EXPECT_EQ(ComparePacked(DataType::kBool, &flag, &one), 0);
  TupleCodec::CanonicalizeKeyField(DataType::kBool, &flag);
  EXPECT_EQ(flag, 1);
}

TEST(StreamBatchTest, ItemsShareOneArenaInOrder) {
  StreamBatch batch;
  MessageMeta meta;
  meta.weight = 3;
  batch.Append(meta, ByteSpan(reinterpret_cast<const uint8_t*>("ab"), 2));
  meta.kind = MessageKind::kPunctuation;
  batch.Append(meta, ByteSpan(reinterpret_cast<const uint8_t*>("cde"), 3));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.arena().size(), 5u);
  EXPECT_EQ(batch.item(1).offset, 2u);
  EXPECT_EQ(batch.item(0).weight, 3u);
  EXPECT_TRUE(batch.has_punctuation());

  StreamBatch copy = batch;
  batch.DropFront(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(Payload(batch, 0), (ByteBuffer{'c', 'd', 'e'}));
  ASSERT_EQ(copy.size(), 2u);  // copies own their arena
  EXPECT_EQ(Payload(copy, 0), (ByteBuffer{'a', 'b'}));

  StreamBatch moved = std::move(copy);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(StreamBatchTest, ReusedArenaReadsBackExactlyWhatTheWriterWrote) {
  // The arena does not zero the bytes Append hands out (AddressSanitizer
  // builds fill them with a non-zero pattern), so what a reused batch
  // reads back is exactly what its writers wrote, never a stale byte.
  StreamBatch batch;
  const ByteBuffer stale(40, 0xee);
  Add(&batch, stale);
  Add(&batch, stale, MessageKind::kPunctuation);
  batch.clear();
  ASSERT_TRUE(batch.empty());
  EXPECT_EQ(batch.arena().size(), 0u);

  const std::vector<ByteBuffer> written = {
      {0, 1, 2, 3, 4, 5, 6}, {}, ByteBuffer(3, 0), ByteBuffer(90, 0x5a)};
  for (const ByteBuffer& bytes : written) {
    uint8_t* out = batch.Append(MessageMeta{}, bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i) out[i] = bytes[i];
  }
  ASSERT_EQ(batch.size(), written.size());
  size_t offset = 0;
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(batch.item(i).offset, offset) << i;
    EXPECT_EQ(Payload(batch, i), written[i]) << i;
    offset += written[i].size();
  }
  EXPECT_EQ(batch.arena().size(), offset);
}

TEST(RingTest, FifoOrder) {
  RingChannel channel(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(channel.TryPush(One({static_cast<uint8_t>(i)})));
  }
  StreamBatch out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(channel.TryPop(&out));
    EXPECT_EQ(out.payload(0)[0], i);
  }
  EXPECT_FALSE(channel.TryPop(&out));
}

TEST(RingTest, CapacityEnforced) {
  RingChannel channel(2);
  EXPECT_TRUE(channel.TryPush(One()));
  EXPECT_TRUE(channel.TryPush(One()));
  EXPECT_FALSE(channel.TryPush(One()));
  EXPECT_EQ(channel.size(), 2u);
}

TEST(RingTest, DropAccounting) {
  RingChannel channel(1);
  EXPECT_TRUE(channel.PushOrDrop(One()));
  EXPECT_FALSE(channel.PushOrDrop(One()));
  EXPECT_FALSE(channel.PushOrDrop(One()));
  EXPECT_EQ(channel.dropped(), 2u);
  EXPECT_EQ(channel.pushed(), 1u);
}

TEST(RingTest, BatchDropAccountingIsMessageGranular) {
  // Overload accounting depends on `dropped()` counting *messages*, not
  // ring slots: a dropped 5-tuple batch is 5 lost tuples, and the shed
  // controller's drops-per-check threshold reads this counter.
  RingChannel channel(1);
  StreamBatch filler;
  Add(&filler);
  ASSERT_TRUE(channel.PushOrDrop(std::move(filler)));

  StreamBatch batch;
  for (int i = 0; i < 5; ++i) {
    Add(&batch, {static_cast<uint8_t>(i)});
  }
  EXPECT_FALSE(channel.PushOrDrop(std::move(batch)));
  EXPECT_EQ(channel.dropped(), 5u);

  // A punctuation riding the batch parks instead of dropping: only the
  // tuple messages count.
  StreamBatch with_punct;
  for (int i = 0; i < 3; ++i) Add(&with_punct);
  Add(&with_punct, {}, MessageKind::kPunctuation);
  EXPECT_FALSE(channel.PushOrDrop(std::move(with_punct)));
  EXPECT_EQ(channel.dropped(), 8u);  // 5 + 3; the punctuation parked
  // The parked punctuation rides out on the next successful push after
  // the ring drains.
  StreamBatch out;
  ASSERT_TRUE(channel.TryPop(&out));
  StreamBatch next;
  Add(&next);
  ASSERT_TRUE(channel.PushOrDrop(std::move(next)));
  StreamBatch popped;
  ASSERT_TRUE(channel.TryPop(&popped));
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped.items().back().kind, MessageKind::kPunctuation);
  EXPECT_EQ(channel.dropped(), 8u);
}

TEST(RingTest, HighWaterMark) {
  RingChannel channel(16);
  for (int i = 0; i < 10; ++i) channel.TryPush(One());
  StreamBatch out;
  for (int i = 0; i < 10; ++i) channel.TryPop(&out);
  EXPECT_EQ(channel.high_water_mark(), 10u);
  EXPECT_EQ(channel.size(), 0u);
}

TEST(RegistryTest, DeclareSubscribePublish) {
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  EXPECT_TRUE(registry.HasStream("mixed"));
  auto sub = registry.Subscribe("mixed", 8);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(registry.PublishBatch("mixed", One({1, 2, 3})), 1u);
  StreamBatch out;
  ASSERT_TRUE((*sub)->TryPop(&out));
  EXPECT_EQ(Payload(out, 0), (ByteBuffer{1, 2, 3}));
}

TEST(RegistryTest, FanOutToMultipleSubscribers) {
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  auto sub1 = registry.Subscribe("mixed", 8);
  auto sub2 = registry.Subscribe("mixed", 8);
  ASSERT_TRUE(sub1.ok() && sub2.ok());
  EXPECT_EQ(registry.PublishBatch("mixed", One()), 2u);
  EXPECT_EQ((*sub1)->size(), 1u);
  EXPECT_EQ((*sub2)->size(), 1u);
}

TEST(RegistryTest, SlowSubscriberDropsAlone) {
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  auto slow = registry.Subscribe("mixed", 1);
  auto fast = registry.Subscribe("mixed", 100);
  for (int i = 0; i < 10; ++i) registry.PublishBatch("mixed", One());
  EXPECT_EQ((*slow)->dropped(), 9u);
  EXPECT_EQ((*fast)->dropped(), 0u);
  EXPECT_EQ(registry.Total(&RingChannel::dropped, "mixed"), 9u);
}

TEST(RegistryTest, SubscribeUnknownStreamFails) {
  StreamRegistry registry;
  EXPECT_FALSE(registry.Subscribe("nope", 8).ok());
  EXPECT_EQ(registry.PublishBatch("nope", One()), 0u);
}

TEST(RegistryTest, RedeclareKeepsSubscribers) {
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  auto sub = registry.Subscribe("mixed", 8);
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  EXPECT_EQ(registry.PublishBatch("mixed", One()), 1u);
}

/// `bytes` in hex, two digits per byte.
std::string Hex(ByteSpan bytes) {
  std::string hex;
  for (uint8_t byte : bytes) {
    hex += "0123456789abcdef"[byte >> 4];
    hex += "0123456789abcdef"[byte & 15];
  }
  return hex;
}

/// The payload of a punctuation carrying `bounds` on MixedSchema().
ByteBuffer PunctuationPayload(std::span<const Bound> bounds) {
  StreamBatch batch;
  AppendPunctuation(bounds, MixedSchema(), {}, &batch);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.item(0).kind, MessageKind::kPunctuation);
  const ByteSpan payload = batch.payload(0);
  return ByteBuffer(payload.begin(), payload.end());
}

TEST(PunctuationTest, WireFormatIsPinned) {
  StreamSchema schema = MixedSchema();
  uint8_t t[8];
  uint8_t f[8];
  StoreLe64(t, 99);
  StoreLe64(f, std::bit_cast<uint64_t>(1.5));
  const Bound bounds[] = {{0, t}, {2, f}};
  const ByteBuffer bytes = PunctuationPayload(bounds);
  const ByteSpan payload(bytes.data(), bytes.size());
  EXPECT_EQ(Hex(payload),
            "02000000"
            "00000000" "6300000000000000"
            "02000000" "000000000000f83f");
  ASSERT_NE(FindBound(payload, schema, 0), nullptr);
  EXPECT_EQ(LoadLe64(FindBound(payload, schema, 0)), 99u);
  ASSERT_NE(FindBound(payload, schema, 2), nullptr);
  EXPECT_EQ(expr::ReadField(DataType::kFloat, FindBound(payload, schema, 2))
                .float_value(),
            1.5);
  EXPECT_EQ(FindBound(payload, schema, 1), nullptr);
}

TEST(PunctuationTest, IpBoundSitsInTheLowFourBytes) {
  StreamSchema schema = MixedSchema();
  // A tuple's IP field is 4 bytes; the bound zero-fills the other 4.
  const uint8_t addr[4] = {0x01, 0x00, 0x00, 0x0a};
  const Bound bounds[] = {{3, addr}};
  const ByteBuffer bytes = PunctuationPayload(bounds);
  const ByteSpan payload(bytes.data(), bytes.size());
  EXPECT_EQ(Hex(payload), "01000000" "03000000" "0100000a00000000");
  ASSERT_NE(FindBound(payload, schema, 3), nullptr);
  EXPECT_EQ(expr::ReadField(DataType::kIp, FindBound(payload, schema, 3))
                .ip_value(),
            0x0a000001u);
}

TEST(PunctuationTest, MalformedPayloadBoundsNothing) {
  StreamSchema schema = MixedSchema();
  const auto payload = [](uint32_t count,
                          std::vector<std::pair<uint32_t, uint64_t>> bounds) {
    ByteBuffer buffer;
    ByteWriter writer(&buffer);
    writer.PutU32Le(count);
    for (const auto& [field, raw] : bounds) {
      writer.PutU32Le(field);
      writer.PutU64Le(raw);
    }
    return buffer;
  };
  const auto has_bound = [&](const ByteBuffer& buffer, size_t field = 0) {
    return FindBound(ByteSpan(buffer.data(), buffer.size()), schema,
                     field) != nullptr;
  };
  EXPECT_TRUE(has_bound(payload(1, {{0, 5}})));
  EXPECT_FALSE(has_bound(payload(1, {{4, 5}}), 4));          // STRING field
  EXPECT_FALSE(has_bound(payload(2, {{0, 5}, {1000, 5}})));  // out of range
  EXPECT_FALSE(has_bound(payload(2, {{0, 5}, {4, 5}})));     // STRING field
  EXPECT_FALSE(has_bound(payload(2, {{0, 5}, {5, 5}})));     // BOOL field
  EXPECT_FALSE(has_bound(payload(2, {{0, 5}})));             // count too high
  EXPECT_FALSE(has_bound(payload(0, {{0, 5}})));             // count too low
  ByteBuffer cut = payload(1, {{0, 5}});
  cut.pop_back();
  EXPECT_FALSE(has_bound(cut));
  ByteBuffer trailing = payload(1, {{0, 5}});
  trailing.push_back(0);
  EXPECT_FALSE(has_bound(trailing));
  EXPECT_FALSE(has_bound(ByteBuffer{1, 0}));
}

/// `value` lowered by `band` as a packed bound of its type.
Value Lowered(const Value& value, uint64_t band) {
  PackedBound bound{};
  expr::WriteValue(value, bound.data());
  LowerByBand(value.type(), band, &bound);
  if (value.type() == DataType::kIp) {
    EXPECT_EQ(LoadLe32(bound.data() + 4), 0u);  // the high bytes stay zero
  }
  return expr::ReadField(value.type(), bound.data());
}

TEST(PunctuationTest, LowerByBandPerOrderedType) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr uint64_t kAll = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(Lowered(Value::Uint(100), 0).uint_value(), 100u);
  EXPECT_EQ(Lowered(Value::Uint(100), 10).uint_value(), 90u);
  EXPECT_EQ(Lowered(Value::Uint(10), 10).uint_value(), 0u);
  EXPECT_EQ(Lowered(Value::Uint(5), 10).uint_value(), 0u);  // saturates
  EXPECT_EQ(Lowered(Value::Ip(0x0a000005), 4).ip_value(), 0x0a000001u);
  EXPECT_EQ(Lowered(Value::Ip(3), 10).ip_value(), 0u);
  EXPECT_EQ(Lowered(Value::Ip(0xffffffffu), uint64_t{1} << 40).ip_value(),
            0u);
  EXPECT_EQ(Lowered(Value::Int(-5), 10).int_value(), -15);
  EXPECT_EQ(Lowered(Value::Int(kMin + 10), 10).int_value(), kMin);
  EXPECT_EQ(Lowered(Value::Int(kMin + 3), 10).int_value(), kMin);
  EXPECT_EQ(Lowered(Value::Int(kMin), 1).int_value(), kMin);
  EXPECT_EQ(Lowered(Value::Int(kMax), kAll).int_value(), kMin);
  EXPECT_EQ(Lowered(Value::Int(kMax), uint64_t{1} << 63).int_value(), -1);
  EXPECT_EQ(Lowered(Value::Float(2.5), 1).float_value(), 1.5);
  EXPECT_EQ(Lowered(Value::Float(-2.5), 3).float_value(), -5.5);
}

TEST(RingConcurrencyTest, ProducerConsumerLosesNothing) {
  // The channels stand in for the paper's shared-memory segments between
  // processes; a producer and a consumer thread must agree on counts.
  RingChannel channel(256);
  const uint64_t kMessages = 200000;
  std::atomic<uint64_t> consumed{0};
  uint64_t checksum_out = 0;

  std::thread consumer([&] {
    StreamBatch message;
    uint64_t local = 0;
    while (local < kMessages) {
      if (channel.TryPop(&message)) {
        checksum_out += message.payload(0).empty() ? 0 : message.payload(0)[0];
        ++local;
      } else {
        std::this_thread::yield();
      }
    }
    consumed.store(local);
  });

  uint64_t checksum_in = 0;
  for (uint64_t i = 0; i < kMessages; ++i) {
    StreamBatch message = One({static_cast<uint8_t>(i & 0xff)});
    checksum_in += message.payload(0)[0];
    while (!channel.TryPush(std::move(message))) {
      std::this_thread::yield();  // backpressure, never drop
    }
  }
  consumer.join();
  EXPECT_EQ(consumed.load(), kMessages);
  EXPECT_EQ(checksum_out, checksum_in);
  EXPECT_EQ(channel.dropped(), 0u);
  EXPECT_EQ(channel.pushed(), kMessages);
  EXPECT_EQ(channel.popped(), kMessages);
}

TEST(RingTest, NonPowerOfTwoCapacityExact) {
  // The slot array rounds up to a power of two internally, but the logical
  // capacity handed to the constructor must be enforced exactly.
  RingChannel channel(3);
  EXPECT_EQ(channel.capacity(), 3u);
  EXPECT_TRUE(channel.TryPush(One()));
  EXPECT_TRUE(channel.TryPush(One()));
  EXPECT_TRUE(channel.TryPush(One()));
  EXPECT_FALSE(channel.TryPush(One()));
  EXPECT_EQ(channel.size(), 3u);
  StreamBatch out;
  EXPECT_TRUE(channel.TryPop(&out));
  EXPECT_TRUE(channel.TryPush(One()));
  EXPECT_FALSE(channel.TryPush(One()));
}

TEST(RingConcurrencyTest, SpscStressFifoNoLoss) {
  // Two-thread SPSC stress: over a million messages through a small ring,
  // every message carries its sequence number, and the consumer asserts
  // strict FIFO. Afterwards the stat counters must balance exactly.
  RingChannel channel(64);
  const uint64_t kMessages = 1 << 20;  // 1,048,576
  std::atomic<bool> fifo_ok{true};

  std::thread consumer([&] {
    StreamBatch message;
    uint64_t expected = 0;
    while (expected < kMessages) {
      if (!channel.TryPop(&message)) {
        std::this_thread::yield();
        continue;
      }
      uint64_t sequence = 0;
      for (int b = 0; b < 8; ++b) {
        sequence |= static_cast<uint64_t>(message.payload(0)[b]) << (8 * b);
      }
      if (sequence != expected) {
        fifo_ok.store(false);
        break;
      }
      ++expected;
    }
  });

  for (uint64_t i = 0; i < kMessages; ++i) {
    ByteBuffer payload(8);
    for (int b = 0; b < 8; ++b) {
      payload[b] = static_cast<uint8_t>(i >> (8 * b));
    }
    StreamBatch message = One(payload);
    // A failed TryPush leaves the message untouched (no-consume
    // contract), so the retry loop can move the very same object.
    while (!channel.TryPush(std::move(message))) {
      std::this_thread::yield();  // backpressure, never drop
    }
  }
  consumer.join();
  EXPECT_TRUE(fifo_ok.load());
  EXPECT_EQ(channel.dropped(), 0u);
  EXPECT_EQ(channel.pushed(), kMessages);
  EXPECT_EQ(channel.popped(), kMessages);
  // Exact accounting invariant: everything pushed was either popped or is
  // still queued.
  EXPECT_EQ(channel.pushed(), channel.popped() + channel.size());
}

TEST(RingTest, FailedPushLeavesMessageIntact) {
  // Regression: the old by-value TryPush consumed the message even when
  // the ring was full, so retry loops re-sent a moved-from shell.
  RingChannel channel(1);
  ASSERT_TRUE(channel.TryPush(One({9})));

  StreamBatch message;
  MessageMeta meta;
  meta.trace_id = 77;
  const ByteBuffer payload = {1, 2, 3};
  message.Append(meta, ByteSpan(payload.data(), payload.size()));
  EXPECT_FALSE(channel.TryPush(std::move(message)));
  // The caller still owns the payload and can retry with the same object.
  EXPECT_EQ(Payload(message, 0), (ByteBuffer{1, 2, 3}));
  EXPECT_EQ(message.item(0).trace_id, 77u);

  StreamBatch out;
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_TRUE(channel.TryPush(std::move(message)));
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_EQ(Payload(out, 0), (ByteBuffer{1, 2, 3}));
}

TEST(RingTest, FailedBatchPushLeavesBatchIntact) {
  RingChannel channel(1);
  StreamBatch filler;
  Add(&filler);
  ASSERT_TRUE(channel.TryPush(std::move(filler)));

  StreamBatch batch;
  for (uint8_t i = 0; i < 3; ++i) {
    Add(&batch, {i});
  }
  EXPECT_FALSE(channel.TryPush(std::move(batch)));
  ASSERT_EQ(batch.size(), 3u);
  for (uint8_t i = 0; i < 3; ++i) EXPECT_EQ(batch.payload(i)[0], i);

  StreamBatch out;
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_TRUE(channel.TryPush(std::move(batch)));
  EXPECT_EQ(channel.pushed(), 4u);  // counters count messages, not slots
}

TEST(RingTest, PunctuationParksOnFullRingAndRidesNextPush) {
  RingChannel channel(1);
  ASSERT_TRUE(channel.TryPush(One()));

  // A full ring drops the batch's tuples but never its punctuation.
  StreamBatch batch;
  Add(&batch);  // tuple, will drop
  Add(&batch, {42}, MessageKind::kPunctuation);
  EXPECT_FALSE(channel.PushOrDrop(std::move(batch)));
  EXPECT_EQ(channel.dropped(), 1u);  // the tuple only
  EXPECT_TRUE(channel.has_parked());

  // Space frees; the parked punctuation rides the tail of the next push.
  StreamBatch out;
  ASSERT_TRUE(channel.TryPop(&out));
  StreamBatch next;
  Add(&next);
  EXPECT_TRUE(channel.PushOrDrop(std::move(next)));
  EXPECT_FALSE(channel.has_parked());
  ASSERT_TRUE(channel.TryPop(&out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.item(1).kind, MessageKind::kPunctuation);
  EXPECT_EQ(Payload(out, 1), (ByteBuffer{42}));
}

TEST(RingTest, ParkedPunctuationSupersededByNewer) {
  RingChannel channel(1);
  ASSERT_TRUE(channel.TryPush(One()));

  EXPECT_FALSE(channel.PushOrDrop(One({1}, MessageKind::kPunctuation)));
  EXPECT_TRUE(channel.has_parked());

  // A newer punctuation carries a bound at least as tight: the parked one
  // is dropped as superseded, and the newer one parks in its place.
  EXPECT_FALSE(channel.PushOrDrop(One({2}, MessageKind::kPunctuation)));
  EXPECT_TRUE(channel.has_parked());
  EXPECT_EQ(channel.dropped(), 0u);  // punctuations never count as drops

  StreamBatch out;
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_TRUE(channel.FlushParked());
  EXPECT_FALSE(channel.has_parked());
  ASSERT_TRUE(channel.TryPop(&out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(Payload(out, 0), (ByteBuffer{2}));  // only the newer one
}

TEST(RingTest, FlushParkedReparksWhileStillFull) {
  RingChannel channel(1);
  ASSERT_TRUE(channel.TryPush(One()));
  EXPECT_FALSE(channel.PushOrDrop(One({}, MessageKind::kPunctuation)));
  EXPECT_FALSE(channel.FlushParked());  // no room yet
  EXPECT_TRUE(channel.has_parked());
  StreamBatch out;
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_TRUE(channel.FlushParked());
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_EQ(out.item(0).kind, MessageKind::kPunctuation);
}

TEST(RingTest, BatchSizeHistogramCountsMessagesPerPush) {
  RingChannel channel(8);
  StreamBatch batch;
  for (int i = 0; i < 5; ++i) Add(&batch);
  ASSERT_TRUE(channel.TryPush(std::move(batch)));
  ASSERT_TRUE(channel.TryPush(One()));
  auto snapshot = channel.batch_size_histogram().Snapshot();
  EXPECT_EQ(snapshot.count, 2u);  // two pushes...
  EXPECT_EQ(snapshot.sum, 6u);    // ...carrying six messages
  EXPECT_EQ(snapshot.max, 5u);
}

TEST(RegistryTest, FanOutDropChargedToFullChannelOnly) {
  // Regression: a full subscriber channel must not stop delivery to the
  // others, and its drop must be charged to that channel alone, exactly
  // once per lost message.
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  auto tiny = registry.Subscribe("mixed", 1);
  auto roomy = registry.Subscribe("mixed", 8);
  ASSERT_TRUE(tiny.ok() && roomy.ok());

  EXPECT_EQ(registry.PublishBatch("mixed", One({1})), 2u);
  // tiny is now full; the second publish reaches only roomy.
  EXPECT_EQ(registry.PublishBatch("mixed", One({2})), 1u);

  EXPECT_EQ((*tiny)->dropped(), 1u);
  EXPECT_EQ((*tiny)->pushed(), 1u);
  EXPECT_EQ((*roomy)->dropped(), 0u);
  EXPECT_EQ((*roomy)->pushed(), 2u);
  EXPECT_EQ(registry.Total(&RingChannel::dropped, "mixed"), 1u);

  // roomy saw both messages, in publish order.
  StreamBatch out;
  ASSERT_TRUE((*roomy)->TryPop(&out));
  EXPECT_EQ(Payload(out, 0), (ByteBuffer{1}));
  ASSERT_TRUE((*roomy)->TryPop(&out));
  EXPECT_EQ(Payload(out, 0), (ByteBuffer{2}));
  // tiny kept the message that fit.
  ASSERT_TRUE((*tiny)->TryPop(&out));
  EXPECT_EQ(Payload(out, 0), (ByteBuffer{1}));
  EXPECT_FALSE((*tiny)->TryPop(&out));
}

TEST(RegistryConcurrencyTest, PublisherAndSubscriberThreads) {
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  auto sub = registry.Subscribe("mixed", 512);
  ASSERT_TRUE(sub.ok());
  const uint64_t kMessages = 50000;
  std::atomic<uint64_t> received{0};
  std::thread consumer([&] {
    StreamBatch message;
    uint64_t local = 0;
    while (local < kMessages) {
      if ((*sub)->TryPop(&message)) {
        local += message.size();
      } else {
        std::this_thread::yield();
      }
    }
    received.store(local);
  });
  for (uint64_t i = 0; i < kMessages; ++i) {
    while (registry.PublishBatch("mixed", One()) == 0 ||
           (*sub)->dropped() > 0) {
      if ((*sub)->dropped() > 0) break;  // PushOrDrop dropped: back off
      std::this_thread::yield();
    }
    // Simple backpressure: wait while nearly full.
    while ((*sub)->size() > 480) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_GE(received.load() + (*sub)->dropped(), kMessages);
}

}  // namespace
}  // namespace gigascope::rts
