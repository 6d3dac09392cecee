#ifndef GIGASCOPE_RTS_PUNCTUATION_H_
#define GIGASCOPE_RTS_PUNCTUATION_H_

#include <array>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "expr/vm.h"
#include "rts/tuple.h"

namespace gigascope::rts {

// An ordering-update token (§3 "Unblocking Operators", after Tucker &
// Maier's punctuation) is a set of lower bounds on ordered attributes: all
// future tuples on the stream have attribute values >= the bound. Merge,
// join and the aggregations use them to advance without tuples.
//
// Payload: a u32 count, then per bound a u32 field index and 8 bytes.
// Schema validation limits ordered attributes to INT, UINT, FLOAT and IP,
// so the 8 bytes are the field's packed little-endian value (an IP in the
// low 4, zero above): a bound is read in place as a packed field of its
// type and is never converted.

/// A bound as an operator keeps it: the 8 bytes the payload carries.
using PackedBound = std::array<uint8_t, 8>;

/// The packed field of ordered type `type` at `at`, as a bound.
inline PackedBound ToBound(gsql::DataType type, const uint8_t* at) {
  PackedBound bound{};
  std::memcpy(bound.data(), at, expr::FixedWidth(type));
  return bound;
}

/// Where punctuation `payload` holds its bound on `field` of `schema`, or
/// null when it bounds no such field. A payload whose count disagrees with
/// its length, or that bounds a field outside `schema` or not of an
/// ordered type, bounds nothing.
const uint8_t* FindBound(ByteSpan payload, const gsql::StreamSchema& schema,
                         size_t field);

/// One bound to write: the packed value of field `field` at `value`.
struct Bound {
  size_t field = 0;
  const uint8_t* value = nullptr;
};

/// Appends a punctuation carrying `bounds` to `batch`, with `meta`'s trace
/// context (its kind is overridden). Every field must be of an ordered
/// type in `schema` (checked). A value may point into `batch`.
void AppendPunctuation(std::span<const Bound> bounds,
                       const gsql::StreamSchema& schema, MessageMeta meta,
                       StreamBatch* batch);

/// Lowers `*bound`, of ordered type `type`, by `band`: on a banded-
/// increasing stream a value v only guarantees that no future value falls
/// below v - band. UINT and IP saturate at 0 and INT at INT64_MIN; FLOAT
/// subtracts.
void LowerByBand(gsql::DataType type, uint64_t band, PackedBound* bound);

/// Maps a punctuation bound on one input field through an expression that
/// depends on that field alone and preserves its order (`time/60`): the
/// result bounds the expression's value. The expression runs over a packed
/// tuple of the input schema's default values, built once, with the
/// bounded field pointing at the bound. A bare reference to the field
/// needs no translation: its bound is the field's.
class BoundTranslator {
 public:
  explicit BoundTranslator(const gsql::StreamSchema& input);

  /// `expr` evaluated with input field `field` at the packed bound
  /// `bound`; nullopt when the evaluation fails or misses, or its result
  /// is not of an ordered type.
  std::optional<expr::Value> Translate(
      const expr::CompiledExpr& expr, size_t field, const uint8_t* bound,
      expr::Evaluator* vm, const std::vector<expr::Value>* params);

 private:
  ByteBuffer defaults_;             // the packed default tuple
  std::vector<const uint8_t*> at_;  // each field's bytes in defaults_
};

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_PUNCTUATION_H_
