#ifndef GIGASCOPE_GSQL_SCHEMA_H_
#define GIGASCOPE_GSQL_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace gigascope::gsql {

/// GSQL scalar data types.
enum class DataType : uint8_t {
  kBool,
  kInt,     // signed 64-bit
  kUint,    // unsigned 64-bit (timestamps, counters, ports)
  kFloat,   // double
  kString,  // variable-length bytes (payloads)
  kIp,      // IPv4 address, 32-bit
};

const char* DataTypeName(DataType type);

/// Parses a type name from DDL (case-insensitive): BOOL, INT, UINT, FLOAT,
/// STRING, IP.
Result<DataType> ParseDataType(const std::string& name);

/// Ordering-property kinds for ordered attributes (§2.1).
///
/// The kinds form a weakening hierarchy used by the planner:
///   StrictlyIncreasing  ⇒ Increasing ⇒ BandedIncreasing(B) for any B ≥ 0
///   StrictlyIncreasing  ⇒ NonRepeating
/// and symmetrically for decreasing. IncreasingInGroup holds only within
/// tuples sharing the named group fields (e.g. a Netflow start time within
/// a flow 5-tuple).
enum class OrderKind : uint8_t {
  kNone = 0,
  kStrictlyIncreasing,
  kIncreasing,          // monotone non-strict
  kStrictlyDecreasing,
  kDecreasing,
  kNonRepeating,        // monotone nonrepeating (e.g. hash of a timestamp)
  kBandedIncreasing,    // within `band` of the running maximum
  kIncreasingInGroup,   // increasing among tuples with equal group fields
};

const char* OrderKindName(OrderKind kind);

/// Full ordering specification of one attribute.
struct OrderSpec {
  OrderKind kind = OrderKind::kNone;
  /// Band width for kBandedIncreasing, in the attribute's own units.
  uint64_t band = 0;
  /// Group fields for kIncreasingInGroup.
  std::vector<std::string> group_fields;

  static OrderSpec None() { return OrderSpec{}; }
  static OrderSpec Strict() {
    return OrderSpec{OrderKind::kStrictlyIncreasing, 0, {}};
  }
  static OrderSpec Increasing() {
    return OrderSpec{OrderKind::kIncreasing, 0, {}};
  }
  static OrderSpec Banded(uint64_t band) {
    return OrderSpec{OrderKind::kBandedIncreasing, band, {}};
  }

  /// True for any increasing flavour usable to advance stream windows.
  bool IsIncreasingLike() const {
    return kind == OrderKind::kStrictlyIncreasing ||
           kind == OrderKind::kIncreasing ||
           kind == OrderKind::kBandedIncreasing;
  }

  std::string ToString() const;

  bool operator==(const OrderSpec& other) const {
    return kind == other.kind && band == other.band &&
           group_fields == other.group_fields;
  }
};

/// One attribute of a stream schema.
struct FieldDef {
  std::string name;
  DataType type = DataType::kInt;
  OrderSpec order;
};

/// Whether a stream is a raw packet source (Protocol) or a query output
/// (Stream) — §2.2's two flavours.
enum class StreamKind : uint8_t { kProtocol, kStream };

/// Schema of a Protocol or Stream.
class StreamSchema {
 public:
  StreamSchema() = default;
  StreamSchema(std::string name, StreamKind kind, std::vector<FieldDef> fields)
      : name_(std::move(name)), kind_(kind), fields_(std::move(fields)) {}

  const std::string& name() const { return name_; }
  StreamKind kind() const { return kind_; }
  const std::vector<FieldDef>& fields() const { return fields_; }
  size_t num_fields() const { return fields_.size(); }

  /// Index of the named field, or nullopt.
  std::optional<size_t> FieldIndex(const std::string& field_name) const;

  const FieldDef& field(size_t index) const { return fields_[index]; }

  /// Validates the schema: non-empty unique field names, group fields of
  /// IncreasingInGroup specs exist, ordered attributes are numeric.
  Status Validate() const;

  std::string ToString() const;

 private:
  std::string name_;
  StreamKind kind_ = StreamKind::kStream;
  std::vector<FieldDef> fields_;
};

}  // namespace gigascope::gsql

#endif  // GIGASCOPE_GSQL_SCHEMA_H_
