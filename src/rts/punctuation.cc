#include "rts/punctuation.h"

#include <bit>
#include <limits>

#include "common/logging.h"

namespace gigascope::rts {

using expr::Value;
using gsql::DataType;

constexpr size_t kEntryBytes = 4 + sizeof(PackedBound);  // field, bound

const uint8_t* FindBound(ByteSpan payload, const gsql::StreamSchema& schema,
                         size_t field) {
  if (payload.size() < 4 ||
      payload.size() - 4 != LoadLe32(payload.data()) * kEntryBytes) {
    return nullptr;
  }
  const uint8_t* found = nullptr;
  for (size_t at = 4; at < payload.size(); at += kEntryBytes) {
    const uint32_t bounded = LoadLe32(payload.data() + at);
    if (bounded >= schema.num_fields() ||
        !expr::IsNumericType(schema.field(bounded).type)) {
      return nullptr;
    }
    if (bounded == field && found == nullptr) found = payload.data() + at + 4;
  }
  return found;
}

void AppendPunctuation(std::span<const Bound> bounds,
                       const gsql::StreamSchema& schema, MessageMeta meta,
                       StreamBatch* batch) {
  // Encoded aside first, zeroed: a bound may be read from a tuple in
  // `batch`, whose arena the append can move.
  ByteBuffer bytes(4 + bounds.size() * kEntryBytes);
  StoreLe32(bytes.data(), static_cast<uint32_t>(bounds.size()));
  uint8_t* out = bytes.data() + 4;
  for (const Bound& bound : bounds) {
    GS_CHECK(bound.field < schema.num_fields());
    const DataType type = schema.field(bound.field).type;
    GS_CHECK(expr::IsNumericType(type));
    StoreLe32(out, static_cast<uint32_t>(bound.field));
    std::memcpy(out + 4, bound.value, expr::FixedWidth(type));
    out += kEntryBytes;
  }
  meta.kind = MessageKind::kPunctuation;
  batch->Append(meta, ByteSpan(bytes.data(), bytes.size()));
}

void LowerByBand(DataType type, uint64_t band, PackedBound* bound) {
  uint8_t* at = bound->data();
  const uint64_t v = LoadLe64(at);
  // In two's complement, v - INT64_MIN is v's distance above the minimum,
  // and unsigned subtraction is the signed one.
  constexpr auto kMin =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::min());
  switch (type) {
    case DataType::kUint:
    case DataType::kIp:  // zero above its low 4 bytes
      StoreLe64(at, v > band ? v - band : 0);
      break;
    case DataType::kInt:
      StoreLe64(at, v - kMin > band ? v - band : kMin);
      break;
    case DataType::kFloat:
      StoreLe64(at, std::bit_cast<uint64_t>(std::bit_cast<double>(v) -
                                            static_cast<double>(band)));
      break;
    default:  // not an ordered type
      break;
  }
}

BoundTranslator::BoundTranslator(const gsql::StreamSchema& input) {
  std::vector<Value> defaults;
  for (size_t f = 0; f < input.num_fields(); ++f) {
    defaults.push_back(Value::Default(input.field(f).type));
  }
  expr::PackValues(defaults, &defaults_, &at_);
}

std::optional<Value> BoundTranslator::Translate(
    const expr::CompiledExpr& expr, size_t field, const uint8_t* bound,
    expr::Evaluator* vm, const std::vector<Value>* params) {
  if (field >= at_.size()) return std::nullopt;
  const uint8_t* held = at_[field];
  at_[field] = bound;
  expr::EvalContext ctx;
  ctx.row0 = at_;
  ctx.params = params;
  expr::EvalOutput out;
  const Status status = vm->Eval(expr, ctx, &out);
  at_[field] = held;
  if (!status.ok() || !out.has_value ||
      !expr::IsNumericType(out.value.type())) {
    return std::nullopt;
  }
  return std::move(out.value);
}

}  // namespace gigascope::rts
