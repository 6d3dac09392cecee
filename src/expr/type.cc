#include "expr/type.h"

#include <cstring>

#include "common/logging.h"

namespace gigascope::expr {

Value Value::Bool(bool v) {
  Value value;
  value.type_ = DataType::kBool;
  value.bool_ = v;
  return value;
}

Value Value::Int(int64_t v) {
  Value value;
  value.type_ = DataType::kInt;
  value.int_ = v;
  return value;
}

Value Value::Uint(uint64_t v) {
  Value value;
  value.type_ = DataType::kUint;
  value.uint_ = v;
  return value;
}

Value Value::Float(double v) {
  Value value;
  value.type_ = DataType::kFloat;
  value.float_ = v;
  return value;
}

Value Value::String(std::string v) {
  Value value;
  value.type_ = DataType::kString;
  value.int_ = 0;
  value.string_ = std::move(v);
  return value;
}

Value Value::Ip(uint32_t v) {
  Value value;
  value.type_ = DataType::kIp;
  value.uint_ = v;
  return value;
}

Value Value::Default(DataType type) {
  switch (type) {
    case DataType::kBool:
      return Bool(false);
    case DataType::kInt:
      return Int(0);
    case DataType::kUint:
      return Uint(0);
    case DataType::kFloat:
      return Float(0);
    case DataType::kString:
      return String("");
    case DataType::kIp:
      return Ip(0);
  }
  return Int(0);
}

double Value::AsDouble() const {
  switch (type_) {
    case DataType::kBool:
      return bool_ ? 1 : 0;
    case DataType::kInt:
      return static_cast<double>(int_);
    case DataType::kUint:
    case DataType::kIp:
      return static_cast<double>(uint_);
    case DataType::kFloat:
      return float_;
    case DataType::kString:
      return 0;
  }
  return 0;
}

int Value::Compare(const Value& other) const {
  GS_CHECK(type_ == other.type_);
  auto cmp3 = [](auto a, auto b) { return a < b ? -1 : (a > b ? 1 : 0); };
  switch (type_) {
    case DataType::kBool:
      return cmp3(bool_ ? 1 : 0, other.bool_ ? 1 : 0);
    case DataType::kInt:
      return cmp3(int_, other.int_);
    case DataType::kUint:
    case DataType::kIp:
      return cmp3(uint_, other.uint_);
    case DataType::kFloat:
      return cmp3(float_, other.float_);
    case DataType::kString:
      return cmp3(string_.compare(other.string_), 0);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case DataType::kBool:
      return bool_ ? "true" : "false";
    case DataType::kInt:
      return std::to_string(int_);
    case DataType::kUint:
      return std::to_string(uint_);
    case DataType::kFloat:
      return std::to_string(float_);
    case DataType::kString:
      return string_;
    case DataType::kIp:
      return Ipv4ToString(static_cast<uint32_t>(uint_));
  }
  return "?";
}

Value ReadField(DataType type, const uint8_t* at) {
  switch (type) {
    case DataType::kBool:
      return Value(type, *at);
    case DataType::kIp:
      return Value(type, LoadLe32(at));
    case DataType::kString:
      return Value(reinterpret_cast<const char*>(at + 4), LoadLe32(at));
    default:  // INT, UINT, FLOAT
      return Value(type, LoadLe64(at));
  }
}

size_t ValueSize(const Value& value) {
  return value.type() == DataType::kString ? 4 + value.string_value().size()
                                           : FixedWidth(value.type());
}

uint8_t* WriteValue(const Value& value, uint8_t* out) {
  switch (value.type()) {
    case DataType::kBool:
      *out = value.bool_value() ? 1 : 0;
      return out + 1;
    case DataType::kInt:
      StoreLe64(out, static_cast<uint64_t>(value.int_value()));
      return out + 8;
    case DataType::kUint:
      StoreLe64(out, value.uint_value());
      return out + 8;
    case DataType::kFloat:
      StoreLe64(out, std::bit_cast<uint64_t>(value.float_value()));
      return out + 8;
    case DataType::kIp:
      StoreLe32(out, value.ip_value());
      return out + 4;
    case DataType::kString: {
      const std::string& s = value.string_value();
      StoreLe32(out, static_cast<uint32_t>(s.size()));
      if (!s.empty()) std::memcpy(out + 4, s.data(), s.size());
      return out + 4 + s.size();
    }
  }
  return out;
}

void PackValues(const std::vector<Value>& values, ByteBuffer* bytes,
                std::vector<const uint8_t*>* at) {
  size_t size = 0;
  for (const Value& value : values) size += ValueSize(value);
  bytes->resize(size);
  at->resize(values.size());
  uint8_t* out = bytes->data();
  for (size_t f = 0; f < values.size(); ++f) {
    (*at)[f] = out;
    out = WriteValue(values[f], out);
  }
}

bool IsNumericType(DataType type) {
  return type == DataType::kInt || type == DataType::kUint ||
         type == DataType::kFloat || type == DataType::kIp;
}

Result<DataType> PromoteNumeric(DataType left, DataType right) {
  if (!IsNumericType(left) || !IsNumericType(right)) {
    return Status::TypeError(std::string("cannot apply arithmetic to ") +
                             DataTypeName(left) + " and " +
                             DataTypeName(right));
  }
  if (left == DataType::kFloat || right == DataType::kFloat) {
    return DataType::kFloat;
  }
  if (left == DataType::kUint || right == DataType::kUint ||
      left == DataType::kIp || right == DataType::kIp) {
    return DataType::kUint;
  }
  return DataType::kInt;
}

int64_t SaturatingDoubleToInt64(double v) {
  if (v != v) return 0;  // NaN
  if (v >= 9223372036854775808.0) return INT64_MAX;   // 2^63
  if (v < -9223372036854775808.0) return INT64_MIN;   // -2^63 is exact
  return static_cast<int64_t>(v);
}

uint64_t SaturatingDoubleToUint64(double v) {
  if (v != v) return 0;  // NaN
  if (v >= 18446744073709551616.0) return UINT64_MAX;  // 2^64
  if (v < 0) return 0;
  return static_cast<uint64_t>(v);
}

Result<Value> CastValue(const Value& value, DataType target) {
  if (value.type() == target) return value;
  switch (target) {
    case DataType::kInt:
      switch (value.type()) {
        case DataType::kUint:
        case DataType::kIp:
          return Value::Int(static_cast<int64_t>(value.uint_value()));
        case DataType::kFloat:
          return Value::Int(SaturatingDoubleToInt64(value.float_value()));
        case DataType::kBool:
          return Value::Int(value.bool_value() ? 1 : 0);
        default:
          break;
      }
      break;
    case DataType::kUint:
      switch (value.type()) {
        case DataType::kInt:
          return Value::Uint(static_cast<uint64_t>(value.int_value()));
        case DataType::kIp:
          return Value::Uint(value.uint_value());
        case DataType::kFloat:
          return Value::Uint(SaturatingDoubleToUint64(value.float_value()));
        case DataType::kBool:
          return Value::Uint(value.bool_value() ? 1 : 0);
        default:
          break;
      }
      break;
    case DataType::kFloat:
      if (value.type() != DataType::kString) {
        return Value::Float(value.AsDouble());
      }
      break;
    case DataType::kIp:
      switch (value.type()) {
        case DataType::kUint:
          return Value::Ip(static_cast<uint32_t>(value.uint_value()));
        case DataType::kInt:
          return Value::Ip(static_cast<uint32_t>(value.int_value()));
        default:
          break;
      }
      break;
    case DataType::kBool:
      if (IsNumericType(value.type())) {
        return Value::Bool(value.AsDouble() != 0);
      }
      break;
    case DataType::kString:
      break;
  }
  return Status::TypeError(std::string("cannot cast ") +
                           DataTypeName(value.type()) + " to " +
                           DataTypeName(target));
}

}  // namespace gigascope::expr
