#ifndef GIGASCOPE_OPS_MERGE_H_
#define GIGASCOPE_OPS_MERGE_H_

#include <deque>
#include <optional>
#include <vector>

#include "rts/node.h"
#include "rts/punctuation.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// Order-preserving union (§2.2's MERGE) — "this operator is surprisingly
/// important": monitoring a full-duplex optical link means merging the two
/// simplex directions into one stream.
///
/// Each input buffers tuples until the merge attribute's global low
/// watermark passes them. A buffered tuple keeps its packed bytes and is
/// forwarded as is: merge reads only the merge field, and keeps each
/// input's watermark and each buffered tuple's key as that field's packed
/// bound (rts::PackedBound). A slow (or silent) input would block the
/// merge forever; punctuations (ordering-update tokens) advance that
/// input's watermark without tuples — the §3 unblocking mechanism, ablated
/// by bench/e4_heartbeats.
///
/// After each round the output is punctuated with the least of every
/// input's watermark and buffered head, whenever that has advanced: no
/// tuple still to come, buffered or not, falls below it.
class MergeNode : public rts::QueryNode {
 public:
  struct Spec {
    std::string name;
    gsql::StreamSchema schema;  // shared by all inputs and the output
    size_t merge_field = 0;
    /// Band width of the merge attribute when it is banded-increasing: a
    /// tuple with key k only guarantees that no future tuple is below
    /// k - band, so tuple-derived watermarks are slackened by this much.
    uint64_t band = 0;
    /// Upper bound on messages per published output batch.
    size_t output_batch = 64;
  };

  MergeNode(Spec spec, std::vector<rts::Subscription> inputs,
            rts::StreamRegistry* registry);

  size_t Poll(size_t budget) override;
  void Flush() override;

  /// Total tuples currently buffered (for the E4 experiment).
  size_t buffered() const;
  size_t buffer_high_water() const { return buffer_high_water_; }

 private:
  /// A packed tuple parked until the watermark passes it, keeping its
  /// trace context so sampled traces survive the buffering delay.
  struct BufferedTuple {
    rts::PackedBound key;  // the merge field
    ByteBuffer bytes;
    uint64_t trace_id = 0;
    int64_t trace_ns = 0;
    uint32_t weight = 1;  // sampling weight carried through the buffer
  };

  struct InputState {
    rts::Subscription channel;
    std::deque<BufferedTuple> buffer;
    std::optional<rts::PackedBound> watermark;  // all future tuples >= this
  };

  /// Folds one framed input tuple into the input's buffer and watermark.
  void Absorb(InputState& input, const rts::BatchItem& item,
              ByteSpan payload);
  /// Advances the input's watermark to a punctuation's bound.
  void AbsorbPunctuation(InputState& input, ByteSpan payload);
  /// Three-way comparison of two merge-field values.
  int Compare(const rts::PackedBound& a, const rts::PackedBound& b) const {
    return rts::ComparePacked(type_, a.data(), b.data());
  }
  /// Raises `watermark` to `bound` when it is higher.
  void Raise(std::optional<rts::PackedBound>& watermark,
             const rts::PackedBound& bound) const {
    if (!watermark.has_value() || Compare(bound, *watermark) > 0) {
      watermark = bound;
    }
  }
  /// The input whose head tuple has the smallest merge key; -1 when every
  /// buffer is empty.
  int SmallestHead() const;
  /// Drains ready tuples to the output in merge order.
  void EmitReady();
  void EmitTuple(const BufferedTuple& buffered);
  /// Punctuates the output with the least watermark or buffered head over
  /// the inputs, when it is past the last bound published.
  void PublishBound();

  Spec spec_;
  gsql::DataType type_;  // the merge field's
  rts::TupleCodec codec_;
  rts::BatchWriter writer_;
  std::vector<InputState> inputs_;
  std::optional<rts::PackedBound> published_;  // the last output bound
  size_t buffer_high_water_ = 0;
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_MERGE_H_
