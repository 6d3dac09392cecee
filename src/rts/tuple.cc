#include "rts/tuple.h"

#include <algorithm>
#include <type_traits>

#include "common/logging.h"

namespace gigascope::rts {

using expr::Value;
using gsql::DataType;

void AddLoadedFields(const expr::CompiledExpr& expr, ReadSet* set) {
  for (const expr::Instr& instr : expr.code) {
    if (instr.op != expr::ByteOp::kLoadField || instr.a != 0) continue;
    auto it = std::lower_bound(set->begin(), set->end(), instr.b);
    if (it == set->end() || *it != instr.b) set->insert(it, instr.b);
  }
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
    std::optional<size_t> width = FixedTypeWidth(slot.type);
    if (width.has_value()) {
      slot.width = static_cast<uint32_t>(*width);
      offset += slot.width;
      fixed_size_ += *width;
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
    const Value& value = row[f];
    GS_CHECK(value.type() == slots_[f].type);
    switch (value.type()) {
      case DataType::kBool:
        *p++ = value.bool_value() ? 1 : 0;
        break;
      case DataType::kInt:
        StoreLe64(p, static_cast<uint64_t>(value.int_value()));
        p += 8;
        break;
      case DataType::kUint:
        StoreLe64(p, value.uint_value());
        p += 8;
        break;
      case DataType::kFloat: {
        uint64_t bits;
        const double d = value.float_value();
        std::memcpy(&bits, &d, sizeof(bits));
        StoreLe64(p, bits);
        p += 8;
        break;
      }
      case DataType::kIp:
        StoreLe32(p, value.ip_value());
        p += 4;
        break;
      case DataType::kString: {
        const std::string& s = value.string_value();
        StoreLe32(p, static_cast<uint32_t>(s.size()));
        if (!s.empty()) std::memcpy(p + 4, s.data(), s.size());
        p += 4 + s.size();
        break;
      }
    }
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

Value TupleCodec::ReadValue(const Slot& slot, const uint8_t* p) const {
  switch (slot.type) {
    case DataType::kBool:
      return Value::Bool(*p != 0);
    case DataType::kInt:
      return Value::Int(static_cast<int64_t>(LoadLe64(p)));
    case DataType::kUint:
      return Value::Uint(LoadLe64(p));
    case DataType::kFloat: {
      const uint64_t bits = LoadLe64(p);
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value::Float(d);
    }
    case DataType::kIp:
      return Value::Ip(LoadLe32(p));
    case DataType::kString:
      return Value::String(
          std::string(reinterpret_cast<const char*>(p + 4), LoadLe32(p)));
  }
  return Value();
}

void TupleCodec::ReadFields(ByteSpan framed, const ReadSet& fields,
                            Row* row) const {
  if (row->size() != slots_.size()) row->resize(slots_.size());
  // Fields ascend, so the segment base only ever moves forward.
  const uint8_t* data = framed.data();
  uint32_t segment = 0;
  size_t base = 0;
  for (uint32_t f : fields) {
    const Slot& slot = slots_[f];
    while (segment < slot.segment) {
      const size_t at = base + slots_[string_fields_[segment]].offset;
      base = at + 4 + LoadLe32(data + at);
      ++segment;
    }
    (*row)[f] = ReadValue(slot, data + base + slot.offset);
  }
}

bool TupleCodec::DecodeFields(ByteSpan bytes, const ReadSet& fields,
                              Row* row) const {
  if (!Framed(bytes)) return false;
  ReadFields(bytes, fields, row);
  return true;
}

Result<Row> TupleCodec::Decode(ByteSpan bytes) const {
  if (const char* error = FramingError(bytes)) {
    return Status::ParseError(error);
  }
  Row row(slots_.size());
  const uint8_t* p = bytes.data();
  for (size_t f = 0; f < slots_.size(); ++f) {
    row[f] = ReadValue(slots_[f], p);
    p += slots_[f].width != 0 ? slots_[f].width : 4 + LoadLe32(p);
  }
  return row;
}

std::optional<size_t> TupleCodec::FixedTypeWidth(gsql::DataType type) {
  switch (type) {
    case DataType::kBool: return 1;
    case DataType::kInt:
    case DataType::kUint:
    case DataType::kFloat: return 8;
    case DataType::kIp: return 4;
    case DataType::kString: return std::nullopt;
  }
  return std::nullopt;
}

std::optional<size_t> TupleCodec::FixedFieldOffset(size_t field) const {
  if (field >= slots_.size() || slots_[field].segment != 0) {
    return std::nullopt;  // out of range, or behind a variable-width string
  }
  return slots_[field].offset;
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
  return d.arena.data() + item.offset;
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
