#include "rts/punctuation.h"

#include "common/logging.h"

namespace gigascope::rts {

using expr::Value;
using gsql::DataType;

std::optional<Value> Punctuation::BoundFor(size_t field) const {
  for (const auto& [bound_field, value] : bounds) {
    if (bound_field == field) return value;
  }
  return std::nullopt;
}

namespace {

uint64_t ValueToRaw(const Value& value) {
  switch (value.type()) {
    case DataType::kInt:
      return static_cast<uint64_t>(value.int_value());
    case DataType::kUint:
      return value.uint_value();
    case DataType::kIp:
      return value.ip_value();
    case DataType::kFloat: {
      uint64_t bits;
      double d = value.float_value();
      std::memcpy(&bits, &d, sizeof(bits));
      return bits;
    }
    default:
      GS_CHECK(false && "punctuation bound must be numeric");
      return 0;
  }
}

Value RawToValue(uint64_t raw, DataType type) {
  switch (type) {
    case DataType::kInt:
      return Value::Int(static_cast<int64_t>(raw));
    case DataType::kUint:
      return Value::Uint(raw);
    case DataType::kIp:
      return Value::Ip(static_cast<uint32_t>(raw));
    case DataType::kFloat: {
      double d;
      std::memcpy(&d, &raw, sizeof(d));
      return Value::Float(d);
    }
    default:
      return Value::Uint(raw);
  }
}

}  // namespace

void EncodePunctuation(const Punctuation& punctuation,
                       const gsql::StreamSchema& schema, ByteBuffer* out) {
  ByteWriter writer(out);
  writer.PutU32Le(static_cast<uint32_t>(punctuation.bounds.size()));
  for (const auto& [field, value] : punctuation.bounds) {
    GS_CHECK(field < schema.num_fields());
    GS_CHECK(value.type() == schema.field(field).type);
    writer.PutU32Le(static_cast<uint32_t>(field));
    writer.PutU64Le(ValueToRaw(value));
  }
}

Result<Punctuation> DecodePunctuation(ByteSpan bytes,
                                      const gsql::StreamSchema& schema) {
  ByteReader reader(bytes);
  uint32_t count;
  if (!reader.GetU32Le(&count)) {
    return Status::ParseError("truncated punctuation header");
  }
  Punctuation punctuation;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t field;
    uint64_t raw;
    if (!reader.GetU32Le(&field) || !reader.GetU64Le(&raw)) {
      return Status::ParseError("truncated punctuation bound");
    }
    if (field >= schema.num_fields()) {
      return Status::ParseError("punctuation bound field out of range");
    }
    punctuation.bounds.emplace_back(
        field, RawToValue(raw, schema.field(field).type));
  }
  return punctuation;
}

void AppendPunctuation(const Punctuation& punctuation,
                       const gsql::StreamSchema& schema, MessageMeta meta,
                       StreamBatch* batch) {
  ByteBuffer bytes;
  EncodePunctuation(punctuation, schema, &bytes);
  meta.kind = MessageKind::kPunctuation;
  batch->Append(meta, ByteSpan(bytes.data(), bytes.size()));
}

StreamBatch MakePunctuationBatch(const Punctuation& punctuation,
                                 const gsql::StreamSchema& schema) {
  StreamBatch batch;
  AppendPunctuation(punctuation, schema, MessageMeta{}, &batch);
  return batch;
}

BoundTranslator::BoundTranslator(const gsql::StreamSchema& input) {
  std::vector<Value> defaults;
  for (size_t f = 0; f < input.num_fields(); ++f) {
    defaults.push_back(Value::Default(input.field(f).type));
    types_.push_back(input.field(f).type);
  }
  expr::PackValues(defaults, &defaults_, &at_);
}

std::optional<Value> BoundTranslator::Translate(
    const expr::CompiledExpr& expr, size_t field, const Value& bound,
    expr::Evaluator* vm, const std::vector<Value>* params) {
  if (field >= types_.size() || bound.type() != types_[field]) {
    return std::nullopt;
  }
  bound_.resize(expr::ValueSize(bound));
  expr::WriteValue(bound, bound_.data());
  const uint8_t* held = at_[field];
  at_[field] = bound_.data();
  expr::EvalContext ctx;
  ctx.row0 = at_;
  ctx.params = params;
  expr::EvalOutput out;
  const Status status = vm->Eval(expr, ctx, &out);
  at_[field] = held;
  if (!status.ok() || !out.has_value) return std::nullopt;
  return std::move(out.value);
}

}  // namespace gigascope::rts
