#ifndef GIGASCOPE_TESTS_CHANNEL_READER_H_
#define GIGASCOPE_TESTS_CHANNEL_READER_H_

#include "rts/node.h"
#include "rts/punctuation.h"
#include "rts/ring.h"
#include "rts/tuple.h"

namespace gigascope::testing_util {

/// Reads a channel one message at a time for tests that assert on single
/// messages. The ring hands out whole batches only; this keeps a cursor
/// into the batch it popped last.
class ChannelReader {
 public:
  explicit ChannelReader(rts::RingChannel* channel) : channel_(channel) {}

  /// The next message, or false when the channel is drained. `payload`
  /// stays valid until the next call.
  bool Next(rts::BatchItem* item, ByteSpan* payload) {
    while (cursor_ >= batch_.size()) {
      cursor_ = 0;
      if (!channel_->TryPop(&batch_)) return false;
    }
    *item = batch_.item(cursor_);
    *payload = batch_.payload(cursor_);
    ++cursor_;
    return true;
  }

 private:
  rts::RingChannel* channel_;
  rts::StreamBatch batch_;
  size_t cursor_ = 0;
};

/// Pops every batch `channel` holds and hands each message, in order, to
/// `node` through Feed, as a packet source feeds the LFTAs over its
/// stream. Returns how many messages it fed.
inline size_t FeedAll(rts::RingChannel* channel, rts::FedNode* node) {
  size_t fed = 0;
  rts::StreamBatch batch;
  while (channel->TryPop(&batch)) {
    for (const rts::BatchItem& item : batch.items()) {
      node->Feed(item, batch.payload(item));
    }
    fed += batch.size();
  }
  return fed;
}

/// A batch holding one tuple: `row` packed by `codec`.
inline rts::StreamBatch TupleBatch(const rts::TupleCodec& codec,
                                   const rts::Row& row) {
  rts::StreamBatch batch;
  batch.AppendTuple(codec, row);
  return batch;
}

/// A batch holding one message of raw bytes.
inline rts::StreamBatch RawBatch(
    const ByteBuffer& bytes,
    rts::MessageKind kind = rts::MessageKind::kTuple) {
  rts::MessageMeta meta;
  meta.kind = kind;
  rts::StreamBatch batch;
  batch.Append(meta, ByteSpan(bytes.data(), bytes.size()));
  return batch;
}

/// A batch holding one punctuation: `bound`, a value of the field's type,
/// on field `field` of `schema`.
inline rts::StreamBatch PunctuationBatch(const gsql::StreamSchema& schema,
                                         size_t field,
                                         const expr::Value& bound) {
  rts::PackedBound packed{};
  expr::WriteValue(bound, packed.data());
  const rts::Bound bounds[] = {{field, packed.data()}};
  rts::StreamBatch batch;
  rts::AppendPunctuation(bounds, schema, {}, &batch);
  return batch;
}

}  // namespace gigascope::testing_util

#endif  // GIGASCOPE_TESTS_CHANNEL_READER_H_
