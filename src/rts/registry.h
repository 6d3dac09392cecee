#ifndef GIGASCOPE_RTS_REGISTRY_H_
#define GIGASCOPE_RTS_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gsql/schema.h"
#include "rts/punctuation.h"
#include "rts/ring.h"

namespace gigascope::rts {

/// A subscriber's end of a stream: its private bounded channel.
using Subscription = std::shared_ptr<RingChannel>;

/// The stream manager's registry (§3): query nodes register the streams
/// they produce; consumers subscribe by name and receive a channel handle.
/// Publication fans out to every subscriber's channel; a slow subscriber
/// drops on its own channel without affecting others (the stream manager
/// "does not track the connection further").
class StreamRegistry {
 public:
  StreamRegistry() = default;

  /// Declares (or re-declares) a stream and its schema.
  Status DeclareStream(const gsql::StreamSchema& schema);

  bool HasStream(const std::string& name) const;

  Result<gsql::StreamSchema> GetSchema(const std::string& name) const;

  /// Subscribes to a stream; the returned channel receives every message
  /// published after this call. `capacity` bounds the subscriber's buffer.
  /// The channel is a heap ring until something shares it
  /// (RingChannel::Share; the engine does at StartProcesses).
  Result<Subscription> Subscribe(const std::string& name, size_t capacity);

  /// Publishes a whole batch to all subscribers (copied per subscriber,
  /// moved to the last). Returns the number of subscribers that accepted
  /// it; the ring parks a trailing punctuation instead of dropping it.
  /// With `parked` non-null, *parked says whether any subscriber channel
  /// holds a parked punctuation afterwards.
  size_t PublishBatch(const std::string& name, StreamBatch&& batch,
                      bool* parked = nullptr);

  /// Retries the parked punctuations on the subscriber channels of `name`.
  /// Returns whether any stays parked (its channel is still full). Parked
  /// punctuations are producer-side state, so only the stream's producer
  /// may call it: BatchWriter::Flush.
  bool FlushParkedPunctuations(const std::string& name);

  /// The subscriber channels of `name` (empty when unknown). Setup-time
  /// and fault-injection plumbing; the channels themselves remain
  /// single-producer/single-consumer.
  std::vector<Subscription> Subscribers(const std::string& name) const;

  /// The live subscriber list of `name`, null when unknown. Streams are
  /// never removed, so the pointer stays valid for the registry's life
  /// and the list it points at follows every later Subscribe.
  const std::vector<Subscription>* SubscriberList(
      const std::string& name) const;

  std::vector<std::string> StreamNames() const;

  /// A ring counter, such as &RingChannel::dropped.
  using RingCounter = uint64_t (RingChannel::*)() const;

  /// `counter` summed over the subscriber channels of `stream`, or of
  /// every stream when `stream` is empty. Safe to call concurrently with
  /// publishes: it reads atomic ring counters, and streams themselves are
  /// only added during setup.
  uint64_t Total(RingCounter counter, const std::string& stream = {}) const;

  /// Occupancy (size/capacity) of the fullest subscriber channel across all
  /// streams, in [0, 1]. The overload controller's ring-pressure signal.
  double MaxOccupancyFraction() const;

 private:
  struct StreamEntry {
    gsql::StreamSchema schema;
    std::vector<Subscription> subscribers;
  };
  std::map<std::string, StreamEntry> streams_;
};

/// Producer-side accumulator for a stream: operators, packet sources, the
/// stats source and the engine's row injection append messages straight
/// into the open batch's arena and the writer publishes them as batches.
/// A batch flushes when it reaches `max_batch` messages or when a
/// punctuation closes it (the batch invariant: punctuation only at the
/// tail); the owner calls Flush() at the end of every Poll so no output
/// outlives the poll round that produced it.
///
/// A punctuation a full channel parked belongs to this writer, the
/// stream's one producer, and so does its retry: the next batch published
/// carries it along, and while nothing is open each Flush retries it.
class BatchWriter {
 public:
  /// Messages per output batch of a node whose spec sets none.
  static constexpr size_t kDefaultMaxBatch = 64;

  BatchWriter(StreamRegistry* registry, std::string stream, size_t max_batch)
      : registry_(registry),
        stream_(std::move(stream)),
        max_batch_(max_batch == 0 ? 1 : max_batch) {}

  /// Appends `row` packed by `codec`, as a tuple carrying `meta`.
  void WriteTuple(const TupleCodec& codec, const Row& row,
                  const MessageMeta& meta) {
    open_.AppendTuple(codec, row, meta);
    FlushIfFull();
  }

  /// Appends a tuple of `length` bytes carrying `meta`; `fill(uint8_t*
  /// out)` writes its packed bytes in place, straight into the arena.
  template <typename Fill>
  void WriteTuple(const MessageMeta& meta, size_t length, Fill&& fill) {
    fill(AppendTuple(meta, length));
    FlushIfFull();
  }

  /// Appends a tuple of `length` bytes carrying `meta` and returns where
  /// its packed bytes go (valid until the next append), publishing
  /// nothing: a packet source appends its tuple, may close the batch with
  /// a punctuation read from that tuple, and flushes only at its boundary.
  uint8_t* AppendTuple(const MessageMeta& meta, size_t length) {
    return open_.Append(meta, length);
  }

  /// Appends an already packed message (a forwarded tuple).
  void Write(const MessageMeta& meta, ByteSpan bytes) {
    open_.Append(meta, bytes);
    if (meta.kind == MessageKind::kPunctuation ||
        open_.size() >= max_batch_) {
      Flush();
    }
  }

  /// Appends a punctuation carrying `bounds` (fields of `schema`) and
  /// `meta`'s trace context; it closes the batch.
  void WritePunctuation(std::span<const Bound> bounds,
                        const gsql::StreamSchema& schema,
                        const MessageMeta& meta) {
    AppendPunctuation(bounds, schema, meta, &open_);
    Flush();
  }

  /// Whether the stream has a subscriber channel; what is written while
  /// it has none reaches no one. The list is resolved once, at the first
  /// call after the stream is declared, so this is one load per call, and
  /// it follows a Subscribe from the very next call.
  bool has_subscribers() {
    if (subscribers_ == nullptr) [[unlikely]] {
      subscribers_ = registry_->SubscriberList(stream_);
      if (subscribers_ == nullptr) return false;
    }
    return !subscribers_->empty();
  }

  /// Publishes the open batch, if any, which carries a parked punctuation
  /// along; with nothing open, retries the parked punctuation while one
  /// may be parked. Returns whether it published.
  bool Flush() {
    if (open_.empty()) {
      if (parked_) [[unlikely]] {
        parked_ = registry_->FlushParkedPunctuations(stream_);
      }
      return false;
    }
    // The next batch is sized like this one: one allocation each for its
    // arena and item table, however many messages it will hold.
    const size_t items = open_.size();
    const size_t bytes = open_.arena().size();
    registry_->PublishBatch(stream_, std::move(open_), &parked_);
    open_.clear();
    open_.Reserve(items, bytes);
    return true;
  }

 private:
  /// Publishes the open batch once it holds `max_batch` messages.
  void FlushIfFull() {
    if (open_.size() >= max_batch_) Flush();
  }

  StreamRegistry* registry_;
  std::string stream_;
  size_t max_batch_;
  StreamBatch open_;
  /// The stream's subscriber list (has_subscribers), null until resolved.
  const std::vector<Subscription>* subscribers_ = nullptr;
  /// Whether a punctuation may be parked on one of the stream's channels:
  /// set by the publish that parked it, cleared by the retry (or publish)
  /// that leaves nothing parked.
  bool parked_ = false;
};

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_REGISTRY_H_
