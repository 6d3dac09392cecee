#include "rts/tuple.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/logging.h"

namespace gigascope::rts {

using expr::Value;
using gsql::DataType;

void AddLoadedFields(const expr::CompiledExpr& expr, size_t input,
                     const gsql::StreamSchema& schema, ReadSet* set) {
  for (const expr::Instr& instr : expr.code) {
    if (instr.op != expr::ByteOp::kLoadField || instr.a != input ||
        instr.b >= schema.num_fields()) {
      continue;
    }
    GS_CHECK(instr.type == schema.field(instr.b).type);
    auto it = std::lower_bound(set->begin(), set->end(), instr.b);
    if (it == set->end() || *it != instr.b) set->insert(it, instr.b);
  }
}

std::optional<uint32_t> BareField(const expr::CompiledExpr& expr) {
  if (expr.code.size() != 1) return std::nullopt;
  const expr::Instr& instr = expr.code[0];
  if (instr.op != expr::ByteOp::kLoadField || instr.a != 0) {
    return std::nullopt;
  }
  return instr.b;
}

uint64_t CanonicalFloatBits(uint64_t bits) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  constexpr uint64_t kExponent = uint64_t{0x7ff} << 52;
  constexpr uint64_t kQuietNan = kExponent | (uint64_t{1} << 51);
  if ((bits & ~kSign) == 0) return 0;  // -0.0
  if ((bits & kExponent) == kExponent && (bits & ~(kSign | kExponent)) != 0) {
    return kQuietNan;
  }
  return bits;
}

int ComparePacked(DataType type, const uint8_t* a, const uint8_t* b) {
  auto cmp3 = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
  switch (type) {
    case DataType::kBool:
      return cmp3(*a != 0, *b != 0);
    case DataType::kInt:
      return cmp3(static_cast<int64_t>(LoadLe64(a)),
                  static_cast<int64_t>(LoadLe64(b)));
    case DataType::kUint:
      return cmp3(LoadLe64(a), LoadLe64(b));
    case DataType::kIp:
      return cmp3(LoadLe32(a), LoadLe32(b));
    case DataType::kFloat: {
      double x;
      double y;
      const uint64_t xb = LoadLe64(a);
      const uint64_t yb = LoadLe64(b);
      std::memcpy(&x, &xb, sizeof(x));
      std::memcpy(&y, &yb, sizeof(y));
      if (std::isnan(x) || std::isnan(y)) {
        return cmp3(std::isnan(x), std::isnan(y));  // NaN last
      }
      return cmp3(x, y);
    }
    case DataType::kString: {
      const uint32_t na = LoadLe32(a);
      const uint32_t nb = LoadLe32(b);
      const int cmp = std::memcmp(a + 4, b + 4, std::min(na, nb));
      return cmp != 0 ? cmp3(cmp, 0) : cmp3(na, nb);
    }
  }
  return 0;
}

TupleCodec::TupleCodec(const gsql::StreamSchema& schema) : schema_(schema) {
  slots_.reserve(schema_.num_fields());
  uint32_t segment = 0;
  uint32_t offset = 0;
  for (size_t f = 0; f < schema_.num_fields(); ++f) {
    Slot slot;
    slot.type = schema_.field(f).type;
    slot.segment = segment;
    slot.offset = offset;
    slot.width = static_cast<uint32_t>(expr::FixedWidth(slot.type));
    if (slot.width != 0) {
      offset += slot.width;
      fixed_size_ += slot.width;
    } else {
      // The next segment starts after this string's length word and bytes.
      string_fields_.push_back(static_cast<uint32_t>(f));
      ++segment;
      offset = 0;
      fixed_size_ += 4;
    }
    slots_.push_back(slot);
  }
  tail_bytes_ = offset;
}

void TupleCodec::EncodeTo(const Row& row, uint8_t* p) const {
  for (size_t f = 0; f < slots_.size(); ++f) {
    GS_CHECK(row[f].type() == slots_[f].type);
    p = expr::WriteValue(row[f], p);
  }
}

void TupleCodec::Encode(const Row& row, ByteBuffer* out) const {
  const size_t start = out->size();
  out->resize(start + EncodedSize(row));
  EncodeTo(row, out->data() + start);
}

size_t TupleCodec::EncodedSize(const Row& row) const {
  GS_CHECK(row.size() == slots_.size());
  size_t size = fixed_size_;
  for (uint32_t f : string_fields_) {
    GS_CHECK(row[f].type() == DataType::kString);
    size += row[f].string_value().size();
  }
  return size;
}

const char* TupleCodec::FramingError(ByteSpan bytes) const {
  // Walk the string length words: each segment's fixed fields are skipped
  // in one step. A fixed field cut short surfaces as the next length word
  // (or the end) falling outside the bytes, so this fails exactly when a
  // field-by-field read would.
  const size_t size = bytes.size();
  size_t base = 0;
  for (uint32_t f : string_fields_) {
    const size_t at = base + slots_[f].offset;
    if (at + 4 > size) return "truncated tuple";
    const size_t len = LoadLe32(bytes.data() + at);
    base = at + 4 + len;
    if (base > size) return "truncated tuple (string field)";
  }
  if (base + tail_bytes_ > size) return "truncated tuple";
  if (base + tail_bytes_ < size) return "tuple has trailing bytes";
  return nullptr;
}

bool TupleCodec::Framed(ByteSpan bytes) const {
  return FramingError(bytes) == nullptr;
}

void TupleCodec::SegmentStarts(const uint8_t* data, size_t count,
                               size_t* starts) const {
  size_t base = 0;
  for (size_t segment = 0; segment < count; ++segment) {
    starts[segment] = base;
    if (segment + 1 < count) {
      const size_t at = base + slots_[string_fields_[segment]].offset;
      base = at + 4 + LoadLe32(data + at);
    }
  }
}

void TupleCodec::LocateFields(const uint8_t* data, const ReadSet& fields,
                              const uint8_t** at) const {
  // Fields ascend, so the segment base only ever moves forward.
  uint32_t segment = 0;
  size_t base = 0;
  for (uint32_t f : fields) {
    const Slot& slot = slots_[f];
    while (segment < slot.segment) {
      const size_t string_at = base + slots_[string_fields_[segment]].offset;
      base = string_at + 4 + LoadLe32(data + string_at);
      ++segment;
    }
    at[f] = data + base + slot.offset;
  }
}

const uint8_t* TupleCodec::Locate(const uint8_t* data, size_t field) const {
  const Slot& slot = slots_[field];
  size_t base = 0;
  for (uint32_t segment = 0; segment < slot.segment; ++segment) {
    const size_t at = base + slots_[string_fields_[segment]].offset;
    base = at + 4 + LoadLe32(data + at);
  }
  return data + base + slot.offset;
}

void TupleCodec::CanonicalizeKeyField(DataType type, uint8_t* at) {
  if (type == DataType::kFloat) {
    StoreLe64(at, CanonicalFloatBits(LoadLe64(at)));
  } else if (type == DataType::kBool) {
    *at = *at != 0 ? 1 : 0;
  }
}

Result<Row> TupleCodec::Decode(ByteSpan bytes) const {
  if (const char* error = FramingError(bytes)) {
    return Status::ParseError(error);
  }
  Row row;
  DecodeFramed(bytes, &row);
  return row;
}

void TupleCodec::DecodeFramed(ByteSpan framed, Row* row) const {
  row->clear();
  row->reserve(slots_.size());
  const uint8_t* p = framed.data();
  for (const Slot& slot : slots_) {
    switch (slot.type) {
      case DataType::kBool:
        row->emplace_back(slot.type, uint64_t{*p});
        break;
      case DataType::kIp:
        row->emplace_back(slot.type, uint64_t{LoadLe32(p)});
        break;
      case DataType::kString: {
        const uint32_t size = LoadLe32(p);
        row->emplace_back(reinterpret_cast<const char*>(p + 4), size_t{size});
        p += 4 + size;
        continue;
      }
      default:  // INT, UINT, FLOAT
        row->emplace_back(slot.type, LoadLe64(p));
        break;
    }
    p += slot.width;
  }
}

const std::vector<BatchItem> StreamBatch::kNoItems;

uint8_t* StreamBatch::Append(const MessageMeta& meta, size_t length) {
  Data& d = data();
  BatchItem item;
  static_cast<MessageMeta&>(item) = meta;
  item.offset = static_cast<uint32_t>(d.arena.size());
  item.length = static_cast<uint32_t>(length);
  d.items.push_back(item);
  d.arena.resize(d.arena.size() + length);
  uint8_t* out = d.arena.data() + item.offset;
#if defined(__SANITIZE_ADDRESS__)
  // Not zero: a byte the writer leaves unwritten must not pass for a
  // written zero.
  if (length > 0) std::memset(out, 0xa5, length);
#endif
  return out;
}

void StreamBatch::Append(const MessageMeta& meta, ByteSpan bytes) {
  uint8_t* out = Append(meta, bytes.size());
  if (!bytes.empty()) std::memcpy(out, bytes.data(), bytes.size());
}

void StreamBatch::AppendTuple(const TupleCodec& codec, const Row& row,
                              MessageMeta meta) {
  meta.kind = MessageKind::kTuple;
  codec.EncodeTo(row, Append(meta, codec.EncodedSize(row)));
}

void StreamBatch::AppendPacked(const uint8_t* table, size_t count,
                               ByteSpan arena) {
  static_assert(std::is_trivially_copyable_v<BatchItem>);
  Data& d = data();
  const size_t first = d.items.size();
  const auto base = static_cast<uint32_t>(d.arena.size());
  d.items.resize(first + count);
  if (count > 0) {
    std::memcpy(&d.items[first], table, count * sizeof(BatchItem));
  }
  for (size_t i = first; i < d.items.size(); ++i) d.items[i].offset += base;
  d.arena.insert(d.arena.end(), arena.begin(), arena.end());
}

void StreamBatch::DropFront(size_t count) {
  if (data_ == nullptr) return;
  std::vector<BatchItem>& items = data_->items;
  const auto drop = static_cast<ptrdiff_t>(std::min(count, items.size()));
  items.erase(items.begin(), items.begin() + drop);
}

void StreamBatch::Reserve(size_t items, size_t bytes) {
  if (items == 0 && bytes == 0) return;
  Data& d = data();
  d.items.reserve(items);
  d.arena.reserve(bytes);
}

}  // namespace gigascope::rts
