#ifndef GIGASCOPE_OPS_AGGREGATE_H_
#define GIGASCOPE_OPS_AGGREGATE_H_

#include <optional>
#include <string>
#include <vector>

#include "expr/codegen.h"
#include "expr/vm.h"
#include "rts/node.h"
#include "rts/punctuation.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// Lowers a numeric bound by `band` (saturating for unsigned types):
/// on a banded-increasing stream, a value v only guarantees that no future
/// value falls below v - band.
expr::Value ReduceByBand(const expr::Value& value, uint64_t band);

/// One group as stored: its packed key and its accumulator cells.
struct GroupRef {
  ByteSpan key;
  const uint8_t* cells = nullptr;
  /// The group's STRING MIN/MAX extrema, GroupLayout::num_strings() of
  /// them (null when there are none).
  const std::string* strings = nullptr;
};

/// How aggregation group state is packed (DESIGN.md §12), shared by the
/// LFTA's direct-mapped table and the HFTA's group map.
///
/// A group is two parts. Its key is the output schema's key fields (the
/// first ones, one per group key) in rts::TupleCodec's layout, with FLOAT
/// and BOOL fields canonicalized (TupleCodec::CanonicalizeKeyField), so
/// keys are equal exactly when their bytes are and hash over those bytes.
/// Its cells hold one accumulator per aggregate, laid out as the output
/// schema's aggregate fields: COUNT a UINT, SUM an 8-byte total (INT and
/// UINT wrap through uint64_t as the VM's `+` and `*` do; FLOAT adds
/// doubles), and MIN/MAX the extremum in its own type, FLOAT
/// canonicalized. A STRING extremum is the one cell that is not
/// fixed-width: it lives out of line in a std::string the owning table
/// keeps per group and reuses. Emitting a group is its key bytes followed
/// by its cells: one or two memcpys when no STRING extremum is involved.
///
/// Aggregate arguments arrive as pointers to packed values of their
/// argument type (null for COUNT(*)). Every fold of a MIN/MAX carries a
/// value, so a group's extrema are set from the tuple that creates it.
class GroupLayout {
 public:
  /// `arg_types[i]` is the type aggregate `specs[i]` reads (ignored for
  /// COUNT). AVG must already be decomposed (checked).
  GroupLayout(std::vector<gsql::DataType> key_types,
              const std::vector<expr::AggregateSpec>& specs,
              const std::vector<gsql::DataType>& arg_types);

  gsql::DataType key_type(size_t k) const { return key_types_[k]; }
  /// Bytes of fixed-width cells per group.
  size_t cells_size() const { return cells_size_; }
  /// Out-of-line STRING extrema per group.
  size_t num_strings() const { return num_strings_; }

  /// Starts a group's cells from the tuple that creates it.
  void Init(uint8_t* cells, std::string* strings, const uint8_t* const* args,
            uint64_t weight) const;
  /// Folds one more tuple in. `weight` is the number of input tuples it
  /// stands for (Horvitz-Thompson): COUNT adds it and SUM adds weight * v,
  /// unbiased under 1-in-k source sampling; MIN/MAX take v unweighted.
  void Fold(uint8_t* cells, std::string* strings, const uint8_t* const* args,
            uint64_t weight) const;

  /// Packed size of `group`'s output tuple, and the tuple (key bytes, then
  /// the finalized aggregates) written at `out`.
  size_t OutputSize(const GroupRef& group) const;
  void WriteOutput(const GroupRef& group, uint8_t* out) const;

  /// The order-preserving encoding of packed key `key`: memcmp on two
  /// encodings has the sign of comparing the keys field by field with
  /// ComparePacked (Value::Compare's order, NaN after every number).
  /// Fixed-width fields are big-endian: INT with its sign bit flipped,
  /// FLOAT (canonicalized first) with its sign bit set when non-negative
  /// and every bit inverted when negative, so the canonical NaN sorts after
  /// +inf, and BOOL as 0 or 1. A STRING writes each 0x00 byte as 00 FF and
  /// ends with 00 00, so a prefix sorts first. No encoding is a proper
  /// prefix of another, so memcmp over the shorter one's length already
  /// tells two different keys apart. OrderedKeySize is the encoding's
  /// length; WriteOrderedKey writes exactly that many bytes at `out` and
  /// returns their end.
  size_t OrderedKeySize(const uint8_t* key) const;
  uint8_t* WriteOrderedKey(const uint8_t* key, uint8_t* out) const;
  /// Whether every key encodes in the same number of bytes: no key field
  /// is a STRING.
  bool fixed_width_keys() const { return ordered_key_size_ >= 0; }
  /// Key field `k` of packed key `key`.
  const uint8_t* KeyField(const uint8_t* key, size_t k) const;

  /// The group hash: a 64-bit mix over the key bytes, strong in the low
  /// bits that both tables index by.
  static uint64_t Hash(ByteSpan key);

 private:
  struct Cell {
    expr::AggFn fn = expr::AggFn::kCount;
    gsql::DataType type = gsql::DataType::kUint;  // the aggregate's result
    gsql::DataType arg = gsql::DataType::kUint;
    uint32_t offset = 0;  // into the fixed cells
    uint32_t width = 0;   // 0 for a STRING extremum
    int string_index = -1;
  };
  void Accumulate(const Cell& cell, uint8_t* at, std::string* strings,
                  const uint8_t* arg, uint64_t weight) const;
  /// Stores `arg` as the extremum of MIN/MAX cell `cell`.
  static void SetExtremum(const Cell& cell, uint8_t* at, std::string* strings,
                          const uint8_t* arg);

  std::vector<gsql::DataType> key_types_;
  /// Byte offset of each key field while no STRING key precedes it, else
  /// -1 (then KeyField walks the string lengths).
  std::vector<int> key_offsets_;
  /// OrderedKeySize of every key while no key field is a STRING, else -1.
  int ordered_key_size_ = 0;
  std::vector<Cell> cells_;
  size_t cells_size_ = 0;
  size_t num_strings_ = 0;
};

/// What one input tuple brings to its group: its packed key, and per
/// aggregate a pointer to its argument's packed bytes. Every field a key
/// or argument loads (the read set) is located in the input tuple. A bare
/// column reference (rts::BareField) is read from there: a key field is
/// copied and canonicalized, an argument points straight into the tuple. A
/// computed expression runs once through the VM over the same located
/// fields, and its result is packed into reused scratch. With only bare
/// references, nothing is allocated per tuple.
class GroupInput {
 public:
  /// kMiss: a partial function returned nothing, and the tuple is dropped
  /// (§2.2). kError: evaluation failed (counted as an eval error).
  enum class Outcome { kOk, kMiss, kError };

  /// `ordered_key` is the key whose advance closes windows (-1: none) and
  /// `key_sources[k]` the one input field key k depends on (-1: none).
  GroupInput(const std::vector<expr::CompiledExpr>& keys,
             const std::vector<std::optional<expr::CompiledExpr>>& args,
             int ordered_key, const std::vector<int>& key_sources,
             const GroupLayout& layout, const rts::TupleCodec& input_codec);

  /// Locates the fields of `framed` (already Framed()) and packs its key.
  Outcome PackKey(ByteSpan framed, expr::Evaluator* vm,
                  const std::vector<expr::Value>* params);
  /// Points args() at the aggregate arguments of the tuple PackKey saw.
  Outcome PackArgs(expr::Evaluator* vm,
                   const std::vector<expr::Value>* params);

  ByteSpan key() const { return ByteSpan(key_.data(), key_.size()); }
  const uint8_t* const* args() const { return args_.data(); }

  /// Packs into `*bound` the bound that punctuation `payload` puts on the
  /// ordered key, as that key's packed field: the punctuation's bound on
  /// the key's input field, translated through the key expression. False
  /// when it implies none.
  bool PunctuationBound(ByteSpan payload, expr::Evaluator* vm,
                        const std::vector<expr::Value>* params,
                        ByteBuffer* bound);

 private:
  /// Where one key or argument comes from: input field `at` when bare,
  /// else the computed expression.
  struct Source {
    int at = -1;
    const expr::CompiledExpr* expr = nullptr;
    gsql::DataType type = gsql::DataType::kUint;
  };
  Source MakeSource(const expr::CompiledExpr& expr);
  /// Evaluates computed source `source` into `*value`.
  Outcome Evaluate(const Source& source, expr::Evaluator* vm,
                   const std::vector<expr::Value>* params,
                   expr::Value* value);

  const rts::TupleCodec* input_codec_;
  std::vector<Source> keys_;
  std::vector<Source> args_in_;  // expr null and at -1: COUNT(*)
  rts::ReadSet reads_;           // fields the keys and arguments load
  std::vector<const uint8_t*> at_;   // where they are, one per input field
  std::vector<expr::Value> values_;  // computed results, reused
  ByteBuffer key_;
  ByteBuffer scratch_;  // packed computed arguments
  std::vector<const uint8_t*> args_;
  /// The ordered key's expression and type (null: no ordered key), and
  /// the input field a punctuation must bound to bound it (-1: none).
  const expr::CompiledExpr* ordered_ = nullptr;
  gsql::DataType ordered_type_ = gsql::DataType::kUint;
  int ordered_source_ = -1;
  rts::BoundTranslator bounds_;
};

/// The HFTA's open groups: packed keys back to back in one arena, cells in
/// one array, found through an open-addressing index over the key hash. No
/// per-group heap node: closing a window empties the arrays and keeps
/// their capacity for the next one.
class GroupMap {
 public:
  explicit GroupMap(const GroupLayout* layout) : layout_(layout) {}

  size_t size() const { return entries_.size(); }
  GroupRef group(size_t g) const;

  /// Folds a tuple into the group with `key`, creating it if new.
  void Upsert(ByteSpan key, const uint8_t* const* args, uint64_t weight);

  /// Removes the groups listed in `gone` (distinct indexes, any order);
  /// the others keep their relative order.
  void Erase(const std::vector<uint32_t>& gone);

 private:
  struct Entry {
    uint64_t hash = 0;
    uint32_t key_offset = 0;
    uint32_t key_size = 0;
  };
  void Rehash(size_t capacity);
  void Index(uint32_t g);

  const GroupLayout* layout_;
  std::vector<Entry> entries_;
  ByteBuffer keys_;
  ByteBuffer cells_;                  // entries_.size() * cells_size()
  std::vector<std::string> strings_;  // entries_.size() * num_strings()
  std::vector<uint32_t> index_;       // group + 1; 0 = free
  std::vector<uint8_t> keep_;         // Erase scratch
};

/// Ordered group-by/aggregation (§2.1): the group key contains an ordered
/// attribute; when a tuple arrives whose ordered key exceeds every open
/// group, all open groups are closed and flushed to the output. With no
/// ordered key (ordered_key = -1) the state is unbounded and emits only on
/// Flush() — permitted but warned about, as in the paper.
///
/// This node serves both as the HFTA-side full aggregation and as the
/// superaggregate of a split aggregation (the specs then re-aggregate the
/// LFTA's subaggregate columns).
class OrderedAggregateNode : public rts::QueryNode {
 public:
  struct Spec {
    std::string name;
    gsql::StreamSchema input_schema;
    gsql::StreamSchema output_schema;  // keys then aggregates
    std::vector<expr::CompiledExpr> keys;
    std::vector<expr::AggregateSpec> agg_specs;
    std::vector<std::optional<expr::CompiledExpr>> agg_args;  // per spec
    int ordered_key = -1;
    /// Band width of the ordered key: groups close only once the key's
    /// running maximum exceeds them by more than the band (0 = monotone).
    uint64_t ordered_key_band = 0;
    /// The single input field each key depends on (for punctuation), -1
    /// otherwise.
    std::vector<int> key_punctuation_source;
    /// Upper bound on messages per published output batch.
    size_t output_batch = 64;
  };

  OrderedAggregateNode(Spec spec, rts::Subscription input,
                       rts::StreamRegistry* registry, rts::ParamBlock params);

  size_t Poll(size_t budget) override;
  void Flush() override;
  void RegisterTelemetry(telemetry::Registry* metrics) const override;

  size_t open_groups() const { return groups_.size(); }
  uint64_t groups_flushed() const { return groups_flushed_.value(); }

 private:
  void ProcessTuple(ByteSpan payload, uint32_t weight);
  /// Closes the groups whose ordered key is strictly below the packed
  /// `bound` (all groups when null) in key order, then punctuates the
  /// output with `bound`.
  void CloseGroups(const uint8_t* bound);
  /// Puts closing_ in key order. Each closing key is written once in its
  /// order-preserving encoding (GroupLayout::WriteOrderedKey). Fixed-width
  /// keys are then ordered by one LSD radix sort over those rows, which
  /// finds the byte columns where the keys differ in one pass and counts
  /// only those. Keys with a STRING field keep their encodings unpadded
  /// and are ordered by memcmp, so one long key costs only its own bytes.
  void SortClosing();
  void EmitGroup(const GroupRef& group);

  Spec spec_;
  rts::Subscription input_;
  rts::ParamBlock params_;
  rts::TupleCodec input_codec_;
  rts::BatchWriter writer_;
  expr::Evaluator vm_;
  GroupLayout layout_;
  GroupInput grouping_;
  GroupMap groups_;
  ByteBuffer epoch_;  // packed max ordered-key value seen; empty: none yet
  ByteBuffer bound_;  // packed close bound, reused
  std::vector<uint32_t> closing_;  // groups being closed, reused
  // SortClosing's scratch, kept at the largest close seen. sort_keys_
  // holds the closing keys' encodings, at most twice the packed key bytes
  // groups_'s arena already keeps for them.
  ByteBuffer sort_keys_;
  std::vector<size_t> sort_offsets_;  // STRING keys: each start, then end
  std::vector<uint32_t> sort_order_;  // row order, and its radix scratch
  std::vector<uint32_t> sort_scratch_;
  ByteBuffer sort_varying_;  // per byte column: nonzero where keys differ
  telemetry::Counter groups_flushed_;
  /// Mirrors groups_.size() so other threads can read the gauge without
  /// touching the (unsynchronized) group map.
  telemetry::Counter open_groups_;
};

/// The packed group layout of an aggregation Spec: key types from its
/// output schema, argument types from its compiled arguments.
GroupLayout MakeGroupLayout(const OrderedAggregateNode::Spec& spec);

/// Packs `value` as the group-key field of `type` into `out` (resized).
void PackKeyValue(gsql::DataType type, const expr::Value& value,
                  ByteBuffer* out);

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_AGGREGATE_H_
