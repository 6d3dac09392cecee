#ifndef GIGASCOPE_OPS_JOIN_H_
#define GIGASCOPE_OPS_JOIN_H_

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "expr/codegen.h"
#include "expr/vm.h"
#include "rts/node.h"
#include "rts/punctuation.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// Two-stream window join (§2.2): "the join predicate must include a
/// constraint which defines a window on ordered attributes from both
/// streams". The window `left_ts - right_ts ∈ [lo, hi]` bounds the state:
/// a buffered tuple is purged once the opposite stream's watermark proves
/// no future partner can exist.
///
/// Tuples stay packed. Each side buffers a tuple's bytes with its window
/// key; the residual predicate loads its fields in place from both tuples
/// (located through each side's read set), and a match is the left bytes
/// followed by the right bytes, which is the packed output tuple.
class WindowJoinNode : public rts::QueryNode {
 public:
  struct Spec {
    std::string name;
    gsql::StreamSchema left_schema;
    gsql::StreamSchema right_schema;
    gsql::StreamSchema output_schema;  // left fields then right fields
    /// Residual predicate evaluated with (row0 = left, row1 = right);
    /// includes the window constraints (re-checking them is cheap and keeps
    /// the operator honest).
    std::optional<expr::CompiledExpr> predicate;
    size_t left_field = 0;   // ordered attribute, left input
    size_t right_field = 0;  // ordered attribute, right input
    int64_t lo = 0;          // window: left_ts - right_ts >= lo
    int64_t hi = 0;          //         left_ts - right_ts <= hi
    /// Band slack of each input's ordered attribute (0 for monotone).
    uint64_t left_band = 0;
    uint64_t right_band = 0;
    /// Join algorithm choice (§2.1): the eager algorithm (false) emits
    /// matches as found — the output's window attribute is only
    /// banded-increasing by the window width; the order-preserving
    /// algorithm (true) buffers completed matches and releases them in
    /// window-attribute order once the watermarks pass — monotone output,
    /// "more buffer space".
    bool order_preserving = false;
    /// Upper bound on messages per published output batch.
    size_t output_batch = 64;
  };

  WindowJoinNode(Spec spec, rts::Subscription left, rts::Subscription right,
                 rts::StreamRegistry* registry, rts::ParamBlock params);

  size_t Poll(size_t budget) override;
  void Flush() override;

  size_t buffered_left() const { return left_buffer_.size(); }
  size_t buffered_right() const { return right_buffer_.size(); }
  size_t buffer_high_water() const { return buffer_high_water_; }
  /// Completed matches awaiting ordered release (order-preserving mode).
  size_t pending_matches() const { return pending_.size(); }

 private:
  /// A buffered input tuple: its window key and its packed bytes.
  struct Buffered {
    int64_t key = 0;
    ByteBuffer bytes;
  };

  void ProcessTuple(bool is_left, ByteSpan payload);
  void ProcessPunctuation(bool is_left, ByteSpan payload);
  /// Joins the tuple `bytes`, whose window key is `key` and whose fields
  /// are located, with every buffered partner on the other side.
  void ProbeAndEmit(bool from_left, int64_t key, ByteSpan bytes);
  void Purge();
  /// `left_key` is the match's window key (its left tuple's).
  void EmitJoined(int64_t left_key, ByteSpan left, ByteSpan right);
  /// Publishes one joined tuple downstream: `first` then `second`.
  void Publish(ByteSpan first, ByteSpan second = {});
  /// Releases buffered matches whose key has passed `bound`, in order.
  void ReleasePending(int64_t bound);

  Spec spec_;
  rts::Subscription left_;
  rts::Subscription right_;
  rts::ParamBlock params_;
  rts::TupleCodec left_codec_;
  rts::TupleCodec right_codec_;
  rts::BatchWriter writer_;
  expr::Evaluator vm_;
  /// Per side: the window field and the fields the predicate loads, and
  /// where the tuple being probed or joined holds them (one entry per
  /// field of that side's schema).
  rts::ReadSet left_reads_;
  rts::ReadSet right_reads_;
  std::vector<const uint8_t*> left_at_;
  std::vector<const uint8_t*> right_at_;

  std::deque<Buffered> left_buffer_;
  std::deque<Buffered> right_buffer_;
  std::optional<int64_t> left_watermark_;   // no future left key below this
  std::optional<int64_t> right_watermark_;
  std::optional<int64_t> last_published_bound_;
  /// Order-preserving mode: completed matches (packed) keyed by the
  /// output's left window attribute, released once the output bound
  /// passes them.
  std::multimap<int64_t, ByteBuffer> pending_;
  size_t buffer_high_water_ = 0;
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_JOIN_H_
