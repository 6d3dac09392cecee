#ifndef GIGASCOPE_RTS_TUPLE_H_
#define GIGASCOPE_RTS_TUPLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "expr/codegen.h"
#include "expr/type.h"
#include "gsql/schema.h"

namespace gigascope::rts {

/// A decoded tuple: one Value per schema field.
using Row = std::vector<expr::Value>;

/// The fields an operator reads from its input tuples: ascending field
/// indexes, no duplicates. TupleCodec::LocateFields points at exactly
/// these.
using ReadSet = std::vector<uint32_t>;

/// Adds every field of input `input` (0 or 1) that `expr` loads to `set`,
/// keeping it sorted and unique. Each load's type must be the field's type
/// in `schema` (checked); a field outside `schema` is left out, and the VM
/// fails its load.
void AddLoadedFields(const expr::CompiledExpr& expr, size_t input,
                     const gsql::StreamSchema& schema, ReadSet* set);

/// The input field `expr` is a bare reference to (its whole program is one
/// kLoadField of row 0), or nullopt for a computed expression. Operators
/// copy or load such a field straight from the packed tuple instead of
/// running the VM.
std::optional<uint32_t> BareField(const expr::CompiledExpr& expr);

/// Canonical bits of a FLOAT kept in aggregation group state: -0.0 becomes
/// +0.0 and every NaN one quiet NaN. Two canonical FLOATs are equal as
/// bytes exactly when ComparePacked calls them equal.
uint64_t CanonicalFloatBits(uint64_t bits);

/// Three-way comparison of two packed values of `type`, in Value::Compare's
/// order except that NaN sorts after every number (and equal to NaN),
/// which makes it a strict weak order. BOOL compares as zero / nonzero.
int ComparePacked(gsql::DataType type, const uint8_t* a, const uint8_t* b);

/// Packs and unpacks tuples of one schema ("the fields of its tuples are
/// packed in a standard fashion", §2.2). The packed form is what crosses
/// the shared-memory channels between query nodes.
///
/// Layout: fields in schema order, each packed as expr::WriteValue writes
/// it (BOOL = 1 byte; INT/UINT/FLOAT = 8 bytes little-endian; IP = 4
/// bytes; STRING = u32 length + bytes). The layout is computed once per
/// schema: every field sits at a fixed distance from the end of the string
/// before it (or from the tuple start), so locating a field costs one
/// length read per preceding string and nothing else.
class TupleCodec {
 public:
  explicit TupleCodec(const gsql::StreamSchema& schema);

  const gsql::StreamSchema& schema() const { return schema_; }

  /// Appends the packed form of `row` to `out`, sizing it once. `row` must
  /// match the schema arity and field types (checked: callers validate
  /// untrusted rows first, see Engine::InjectRow).
  void Encode(const Row& row, ByteBuffer* out) const;

  /// Writes exactly EncodedSize(row) bytes of `row`'s packed form at `out`.
  void EncodeTo(const Row& row, uint8_t* out) const;

  /// Encoded size of `row` in bytes.
  size_t EncodedSize(const Row& row) const;

  /// Encoded size of a tuple whose strings are all empty: the fixed-width
  /// fields plus one length word per string.
  size_t fixed_size() const { return fixed_size_; }

  /// Deserializes a packed tuple; fails on truncation, a string length
  /// that runs past the end, or trailing bytes.
  Result<Row> Decode(ByteSpan bytes) const;

  /// Materializes every field of an already Framed() tuple into `row`
  /// (emptied first), each Value built once, in place, from its packed
  /// bits. Decode and the subscriber edge both decode through it.
  void DecodeFramed(ByteSpan framed, Row* row) const;

  /// Whether `bytes` is exactly one well-framed tuple: the checks Decode
  /// makes, without materializing anything.
  bool Framed(ByteSpan bytes) const;

  // -- Field-level access to packed bytes ------------------------------------

  /// Where one field lives: `offset` bytes past the start of segment
  /// `segment`, where segment k starts right after the k-th string (segment
  /// 0 at the tuple start). A string's offset points at its length word.
  struct Slot {
    gsql::DataType type = gsql::DataType::kUint;
    uint32_t width = 0;  // 0 for strings
    uint32_t segment = 0;
    uint32_t offset = 0;
  };

  /// The slot of field `field` (in range), the same in every tuple.
  const Slot& slot(size_t field) const { return slots_[field]; }

  /// Writes the start of segments 0 .. `count` - 1 of an already Framed()
  /// tuple to `starts` (`count` at most the number of strings plus one).
  void SegmentStarts(const uint8_t* framed, size_t count,
                     size_t* starts) const;

  /// Points `at[f]` (one entry per schema field) at the packed bytes of
  /// each field `f` of `fields` in an already Framed() tuple, a string at
  /// its length word; other entries are left as they are.
  void LocateFields(const uint8_t* framed, const ReadSet& fields,
                    const uint8_t** at) const;

  /// The packed bytes of field `field` in an already Framed() tuple.
  const uint8_t* Locate(const uint8_t* framed, size_t field) const;

  /// Rewrites the packed field of `type` at `at` in group-key form: a FLOAT
  /// to CanonicalFloatBits, a BOOL to 0 or 1; other types are already
  /// canonical. Equal keys are then equal bytes.
  static void CanonicalizeKeyField(gsql::DataType type, uint8_t* at);

 private:
  /// Null when `bytes` is well framed, else why it is not.
  const char* FramingError(ByteSpan bytes) const;

  gsql::StreamSchema schema_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> string_fields_;  // field index of each string
  size_t fixed_size_ = 0;
  size_t tail_bytes_ = 0;  // fixed bytes after the last string
};

/// What a message on a stream channel is: a tuple or a punctuation
/// (ordering-update token, §3 "Unblocking Operators").
enum class MessageKind : uint8_t { kTuple, kPunctuation };

/// The per-message metadata that travels beside the packed bytes.
///
/// The trace context piggybacks on the message: when the inject thread
/// samples a packet (telemetry::Tracer), every message derived from it —
/// through LFTA pre-aggregation, the rings, and the HFTA operators —
/// carries the originating trace id and inject timestamp, so operators can
/// record per-hop spans and the terminal node the inject→emit latency.
/// trace_id 0 (the default) means untraced; the hot path only ever
/// copies the two words.
struct MessageMeta {
  MessageKind kind = MessageKind::kTuple;
  /// How many offered tuples this message stands for. 1 normally; under
  /// L1 load shedding a surviving source tuple carries the sampling rate
  /// in force when it was injected (its Horvitz-Thompson weight), and
  /// aggregation folds COUNT/SUM with it. Stamped at the sampling
  /// decision — not read at fold time — so a backlog of pre-shed tuples
  /// is never retroactively scaled.
  uint32_t weight = 1;
  uint64_t trace_id = 0;
  int64_t trace_ns = 0;  // inject time, in the tracer's epoch
};

/// One row of a batch's item table: the message's metadata and where its
/// packed bytes sit in the batch arena.
struct BatchItem : MessageMeta {
  uint32_t offset = 0;
  uint32_t length = 0;
};

/// The unit a ring slot carries: zero or more tuples followed by at most
/// one punctuation, in stream order. Batching amortizes the per-message
/// ring handoff and operator dispatch over many tuples while preserving
/// the paper's §2 ordering semantics — everything inside a batch stays in
/// the order it was produced, and a punctuation always closes its batch
/// (nothing in this batch follows it, so its ordering guarantee covers
/// exactly the tuples that preceded it on the stream).
///
/// Storage is one byte arena holding every message's packed bytes back to
/// back, in item order, plus the item table. A batch therefore costs one
/// arena and one table allocation however many tuples it holds, and a
/// shared-memory ring moves it with a copy of each (rts/shm.h). The object
/// itself is one pointer, allocated on first append: a ring's slot array
/// of idle batches stays small.
///
/// The arena hands out bytes unwritten: a writer fills exactly the bytes
/// it reserves with Append(meta, length), every one of them, and nothing
/// zeroes them first. In AddressSanitizer builds Append fills them with a
/// non-zero pattern, so a byte a writer skips shows in its output.
class StreamBatch {
 public:
  StreamBatch() = default;
  StreamBatch(const StreamBatch& other)
      : data_(other.data_ != nullptr ? std::make_unique<Data>(*other.data_)
                                     : nullptr) {}
  StreamBatch& operator=(const StreamBatch& other) {
    if (this != &other) *this = StreamBatch(other);
    return *this;
  }
  StreamBatch(StreamBatch&&) noexcept = default;
  StreamBatch& operator=(StreamBatch&&) noexcept = default;

  size_t size() const { return items().size(); }
  bool empty() const { return items().empty(); }

  /// True when the batch ends in a punctuation. Producers maintain the
  /// invariant that a punctuation can only be the last item.
  bool has_punctuation() const {
    return !empty() && items().back().kind == MessageKind::kPunctuation;
  }

  const BatchItem& item(size_t i) const { return data_->items[i]; }
  const std::vector<BatchItem>& items() const {
    return data_ != nullptr ? data_->items : kNoItems;
  }

  /// The packed bytes of item `i`; valid until the batch is next changed.
  ByteSpan payload(size_t i) const { return payload(data_->items[i]); }
  ByteSpan payload(const BatchItem& item) const {
    return ByteSpan(data_->arena.data() + item.offset, item.length);
  }

  /// The arena: every item's bytes, back to back in item order (a prefix
  /// may be dead after DropFront).
  ByteSpan arena() const {
    return data_ != nullptr
               ? ByteSpan(data_->arena.data(), data_->arena.size())
               : ByteSpan();
  }

  /// Appends a message of `length` bytes and returns where to write them
  /// (valid until the next append). The bytes are unwritten: the caller
  /// writes all `length` of them.
  uint8_t* Append(const MessageMeta& meta, size_t length);

  /// Appends a message holding a copy of `bytes`.
  void Append(const MessageMeta& meta, ByteSpan bytes);

  /// Appends `row` packed by `codec`, as a tuple.
  void AppendTuple(const TupleCodec& codec, const Row& row,
                   MessageMeta meta = {});

  /// Appends a copy of item `i` of `other`.
  void AppendFrom(const StreamBatch& other, size_t i) {
    Append(other.item(i), other.payload(i));
  }

  /// Appends `count` items from a packed item table (`count` BatchItems
  /// laid out by memcpy, any alignment) whose offsets are relative to
  /// `arena`, and copies `arena` after the current arena. The caller has
  /// validated the table against `arena` (rts/shm.cc).
  void AppendPacked(const uint8_t* table, size_t count, ByteSpan arena);

  /// Removes the first `count` items (their bytes stay in the arena).
  void DropFront(size_t count);

  /// Empties the batch, keeping its allocations.
  void clear() {
    if (data_ == nullptr) return;
    data_->items.clear();
    data_->arena.clear();
  }

  /// Sizes the item table and arena for `items` messages of `bytes` in
  /// all.
  void Reserve(size_t items, size_t bytes);

 private:
  /// std::allocator whose value-less construct default-initializes: a
  /// vector of bytes grows without zeroing what it adds. Construction with
  /// a value (a copy) falls back to std::allocator_traits' default.
  template <typename T>
  struct UnzeroedAllocator : std::allocator<T> {
    UnzeroedAllocator() = default;
    template <typename U>
    UnzeroedAllocator(const UnzeroedAllocator<U>&) noexcept {}
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
  };
  struct Data {
    std::vector<BatchItem> items;
    std::vector<uint8_t, UnzeroedAllocator<uint8_t>> arena;
  };
  static const std::vector<BatchItem> kNoItems;

  Data& data() {
    if (data_ == nullptr) data_ = std::make_unique<Data>();
    return *data_;
  }

  std::unique_ptr<Data> data_;
};

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_TUPLE_H_
