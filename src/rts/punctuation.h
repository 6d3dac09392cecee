#ifndef GIGASCOPE_RTS_PUNCTUATION_H_
#define GIGASCOPE_RTS_PUNCTUATION_H_

#include <optional>
#include <utility>
#include <vector>

#include "expr/vm.h"
#include "rts/tuple.h"

namespace gigascope::rts {

/// An ordering-update token (§3 "Unblocking Operators", after Tucker &
/// Maier's punctuation): a set of lower bounds on ordered attributes of the
/// stream. All future tuples on the stream have attribute values >= the
/// bound. Merge and join use punctuations to advance their windows when a
/// slow stream provides no tuples.
struct Punctuation {
  /// (field index, lower bound). Sorted by field index.
  std::vector<std::pair<size_t, expr::Value>> bounds;

  /// Bound for `field`, if present.
  std::optional<expr::Value> BoundFor(size_t field) const;
};

/// Serializes a punctuation: u32 count, then (u32 field, u64 raw bits) per
/// bound. Only numeric ordered attributes can carry bounds.
void EncodePunctuation(const Punctuation& punctuation,
                       const gsql::StreamSchema& schema, ByteBuffer* out);

Result<Punctuation> DecodePunctuation(ByteSpan bytes,
                                      const gsql::StreamSchema& schema);

/// Appends `punctuation` to `batch` as a punctuation message carrying
/// `meta`'s trace context (its kind is overridden).
void AppendPunctuation(const Punctuation& punctuation,
                       const gsql::StreamSchema& schema, MessageMeta meta,
                       StreamBatch* batch);

/// A batch holding just `punctuation`.
StreamBatch MakePunctuationBatch(const Punctuation& punctuation,
                                 const gsql::StreamSchema& schema);

/// Maps a punctuation bound on one input field through an expression that
/// depends on that field alone and preserves its order (`time/60`): the
/// result bounds the expression's value. The expression runs over a packed
/// tuple of the input schema's default values, built once, with the
/// bounded field pointing at the bound's bytes.
class BoundTranslator {
 public:
  explicit BoundTranslator(const gsql::StreamSchema& input);

  /// `expr` evaluated with input field `field` at `bound`; nullopt when
  /// `bound` is not of the field's type, or the evaluation fails or
  /// misses.
  std::optional<expr::Value> Translate(
      const expr::CompiledExpr& expr, size_t field, const expr::Value& bound,
      expr::Evaluator* vm, const std::vector<expr::Value>* params);

 private:
  std::vector<gsql::DataType> types_;  // the input's field types
  ByteBuffer defaults_;                // the packed default tuple
  std::vector<const uint8_t*> at_;     // each field's bytes in defaults_
  ByteBuffer bound_;                   // the bound's packed bytes
};

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_PUNCTUATION_H_
