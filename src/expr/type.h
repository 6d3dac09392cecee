#ifndef GIGASCOPE_EXPR_TYPE_H_
#define GIGASCOPE_EXPR_TYPE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "gsql/schema.h"

namespace gigascope::expr {

using gsql::DataType;

/// A runtime scalar value flowing through tuples and the expression VM.
///
/// Plain tagged struct rather than std::variant: the VM switches on the
/// static type of each instruction, so it rarely inspects the tag, and the
/// flat layout keeps value stacks cache-friendly.
class Value {
 public:
  Value() : type_(DataType::kInt), int_(0) {}

  /// A value of fixed-width `type` from its packed bits: BOOL from zero or
  /// nonzero, INT, UINT and FLOAT from their 64-bit patterns, IP from the
  /// low 32 bits. Decoders build rows in place with it.
  Value(DataType type, uint64_t bits) : type_(type), uint_(bits) {
    if (type == DataType::kBool) {
      bool_ = bits != 0;
    } else if (type == DataType::kFloat) {
      float_ = std::bit_cast<double>(bits);
    }
  }
  /// A STRING holding a copy of the `size` bytes at `data`.
  Value(const char* data, size_t size)
      : type_(DataType::kString), int_(0), string_(data, size) {}

  static Value Bool(bool v);
  static Value Int(int64_t v);
  static Value Uint(uint64_t v);
  static Value Float(double v);
  static Value String(std::string v);
  static Value Ip(uint32_t v);

  /// Zero/empty value of the given type.
  static Value Default(DataType type);

  DataType type() const { return type_; }

  bool bool_value() const { return bool_; }
  int64_t int_value() const { return int_; }
  uint64_t uint_value() const { return uint_; }
  double float_value() const { return float_; }
  const std::string& string_value() const { return string_; }
  uint32_t ip_value() const { return static_cast<uint32_t>(uint_); }

  /// Numeric view as double (for AVG and float arithmetic).
  double AsDouble() const;

  /// Three-way comparison with a value of the same type: -1, 0, +1.
  /// Comparing different types is a programmer error (checked).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const {
    return type_ == other.type_ && Compare(other) == 0;
  }

  std::string ToString() const;

 private:
  DataType type_;
  union {
    bool bool_;
    int64_t int_;
    uint64_t uint_;
    double float_;
  };
  std::string string_;
};

// One packed field (§2.2's "standard fashion"): BOOL 1 byte; INT, UINT and
// FLOAT 8 bytes and IP 4 bytes, little-endian; STRING a u32 length, then
// the bytes. A tuple (rts::TupleCodec) is its fields back to back.

/// Packed width of a field of fixed-width `type`; 0 for STRING.
inline size_t FixedWidth(DataType type) {
  switch (type) {
    case DataType::kBool: return 1;
    case DataType::kIp: return 4;
    case DataType::kString: return 0;
    default: return 8;  // INT, UINT, FLOAT
  }
}

/// Packed size of the field of `type` whose bytes start at `at`.
inline size_t FieldSize(DataType type, const uint8_t* at) {
  return type == DataType::kString ? 4 + LoadLe32(at) : FixedWidth(type);
}

/// The packed field of `type` at `at`, as a Value.
Value ReadField(DataType type, const uint8_t* at);

/// Packed size of `value`, and its packed bytes written at `out` (returns
/// the end).
size_t ValueSize(const Value& value);
uint8_t* WriteValue(const Value& value, uint8_t* out);

/// Packs `values` back to back into `bytes` (a tuple in rts::TupleCodec's
/// layout) and points `at[f]` at value f's bytes: an evaluation context
/// built from values.
void PackValues(const std::vector<Value>& values, ByteBuffer* bytes,
                std::vector<const uint8_t*>* at);

/// True when `type` is numeric (arithmetic is defined on it).
bool IsNumericType(DataType type);

/// Binary numeric promotion: float wins, then uint, then int. IP promotes
/// to uint. Returns TypeError for non-numeric operands.
Result<DataType> PromoteNumeric(DataType left, DataType right);

/// Casts `value` to `target`, when a lossless-enough conversion exists
/// (numeric widenings, IP<->UINT). Fails for string<->numeric.
Result<Value> CastValue(const Value& value, DataType target);

/// Saturating double→integer conversions (CastValue's FLOAT→INT/UINT): NaN
/// maps to 0, values outside the target range clamp to its limits,
/// everything else truncates toward zero.
int64_t SaturatingDoubleToInt64(double v);
uint64_t SaturatingDoubleToUint64(double v);

}  // namespace gigascope::expr

#endif  // GIGASCOPE_EXPR_TYPE_H_
