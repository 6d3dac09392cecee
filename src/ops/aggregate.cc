#include "ops/aggregate.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "expr/vm.h"
#include "telemetry/metric_names.h"

namespace gigascope::ops {

using expr::AggFn;
using expr::AggregateSpec;
using expr::Value;
using gsql::DataType;

namespace {

double LoadDouble(const uint8_t* p) {
  const uint64_t bits = LoadLe64(p);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void StoreDouble(uint8_t* p, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  StoreLe64(p, bits);
}

/// Lexicographic order of a packed STRING against a held one, as
/// std::string::compare orders them.
int CompareString(const uint8_t* packed, const std::string& held) {
  const uint32_t n = LoadLe32(packed);
  const int cmp = std::memcmp(packed + 4, held.data(),
                              std::min<size_t>(n, held.size()));
  if (cmp != 0) return cmp;
  return n < held.size() ? -1 : (n > held.size() ? 1 : 0);
}

/// FLOAT bits whose unsigned order is ComparePacked's order of the values:
/// a non-negative value gets its sign bit set and a negative one has every
/// bit inverted. Canonicalized first, so -0.0 encodes as +0.0 and every NaN
/// as the one quiet NaN, which then sorts after +inf.
uint64_t OrderedFloatBits(uint64_t bits) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  bits = rts::CanonicalFloatBits(bits);
  return (bits & kSign) == 0 ? bits | kSign : ~bits;
}

/// Orders `order` (indexes of rows of `width` bytes at `rows`) so that the
/// rows ascend in memcmp order: an LSD radix sort, one counting pass per
/// byte column from the last. One pass over the rows first marks each
/// column where some row differs from row 0 (`varying`, resized to
/// `width`); only those columns are counted and scattered. Stable.
/// `scratch` is resized to match `order`.
void RadixSortRows(const uint8_t* rows, size_t width,
                   std::vector<uint32_t>* order,
                   std::vector<uint32_t>* scratch, ByteBuffer* varying) {
  const size_t n = order->size();
  varying->assign(width, 0);
  uint8_t* differs = varying->data();
  for (size_t r = 1; r < n; ++r) {
    const uint8_t* row = rows + r * width;
    for (size_t c = 0; c < width; ++c) differs[c] |= row[c] ^ rows[c];
  }
  scratch->resize(n);
  for (size_t c = width; c-- > 0;) {
    if (differs[c] == 0) continue;  // one byte value in every row
    const uint8_t* column = rows + c;
    uint32_t count[256] = {};
    for (size_t r = 0; r < n; ++r) ++count[column[r * width]];
    uint32_t sum = 0;
    for (uint32_t& k : count) {
      const uint32_t here = k;
      k = sum;
      sum += here;
    }
    const uint32_t* from = order->data();
    uint32_t* to = scratch->data();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = from[i];
      to[count[column[r * width]]++] = r;
    }
    order->swap(*scratch);
  }
}

}  // namespace

GroupLayout::GroupLayout(std::vector<DataType> key_types,
                         const std::vector<AggregateSpec>& specs,
                         const std::vector<DataType>& arg_types)
    : key_types_(std::move(key_types)) {
  GS_CHECK(arg_types.size() == specs.size());
  int offset = 0;
  for (DataType type : key_types_) {
    key_offsets_.push_back(offset);
    const auto width = static_cast<int>(expr::FixedWidth(type));
    offset = offset < 0 || width == 0 ? -1 : offset + width;
    // A fixed-width field encodes in its own width.
    ordered_key_size_ =
        ordered_key_size_ < 0 || width == 0 ? -1 : ordered_key_size_ + width;
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    Cell cell;
    cell.fn = specs[i].fn;
    cell.type = specs[i].result_type;
    cell.arg = arg_types[i];
    GS_CHECK(cell.fn != AggFn::kAvg &&
             "AVG must be decomposed by the planner");
    if (cell.fn == AggFn::kSum) {
      // The total is an 8-byte cell of the result type; only a FLOAT
      // argument sums as a double.
      GS_CHECK((cell.type == DataType::kFloat) ==
               (cell.arg == DataType::kFloat));
    } else if (cell.fn != AggFn::kCount) {
      GS_CHECK(cell.arg == cell.type);  // an extremum keeps its type
    }
    if (cell.type == DataType::kString) {
      cell.string_index = static_cast<int>(num_strings_++);
    } else {
      cell.offset = static_cast<uint32_t>(cells_size_);
      cell.width = static_cast<uint32_t>(expr::FixedWidth(cell.type));
      cells_size_ += cell.width;
    }
    cells_.push_back(cell);
  }
}

void GroupLayout::Init(uint8_t* cells, std::string* strings,
                       const uint8_t* const* args, uint64_t weight) const {
  for (size_t i = 0; i < cells_.size(); ++i) {
    const Cell& cell = cells_[i];
    uint8_t* at = cells + cell.offset;
    switch (cell.fn) {
      case AggFn::kCount:
      case AggFn::kSum:
        StoreLe64(at, 0);  // +0.0 as a FLOAT: SUM(-0.0) is +0.0
        Accumulate(cell, at, strings, args[i], weight);
        break;
      default:  // MIN/MAX: the first value is the extremum
        SetExtremum(cell, at, strings, args[i]);
        break;
    }
  }
}

void GroupLayout::Fold(uint8_t* cells, std::string* strings,
                       const uint8_t* const* args, uint64_t weight) const {
  for (size_t i = 0; i < cells_.size(); ++i) {
    Accumulate(cells_[i], cells + cells_[i].offset, strings, args[i], weight);
  }
}

void GroupLayout::Accumulate(const Cell& cell, uint8_t* at,
                             std::string* strings, const uint8_t* arg,
                             uint64_t weight) const {
  switch (cell.fn) {
    case AggFn::kCount:
      StoreLe64(at, LoadLe64(at) + weight);
      return;
    case AggFn::kSum:
      if (cell.arg == DataType::kFloat) {
        StoreDouble(at, LoadDouble(at) +
                            LoadDouble(arg) * static_cast<double>(weight));
      } else {
        // INT and UINT totals wrap modulo 2^64, like the VM's `+` and `*`.
        const uint64_t v =
            cell.arg == DataType::kIp ? LoadLe32(arg) : LoadLe64(arg);
        StoreLe64(at, LoadLe64(at) + v * weight);
      }
      return;
    case AggFn::kMin:
    case AggFn::kMax: {
      const int cmp = cell.string_index >= 0
                          ? CompareString(arg, strings[cell.string_index])
                          : rts::ComparePacked(cell.type, arg, at);
      if (cell.fn == AggFn::kMin ? cmp < 0 : cmp > 0) {
        SetExtremum(cell, at, strings, arg);
      }
      return;
    }
    case AggFn::kAvg:
      return;  // rejected by the constructor
  }
}

void GroupLayout::SetExtremum(const Cell& cell, uint8_t* at,
                              std::string* strings, const uint8_t* arg) {
  if (cell.string_index >= 0) {
    strings[cell.string_index].assign(reinterpret_cast<const char*>(arg + 4),
                                      LoadLe32(arg));
  } else {
    std::memcpy(at, arg, cell.width);
    rts::TupleCodec::CanonicalizeKeyField(cell.type, at);
  }
}

size_t GroupLayout::OutputSize(const GroupRef& group) const {
  size_t size = group.key.size() + cells_size_;
  for (size_t s = 0; s < num_strings_; ++s) {
    size += 4 + group.strings[s].size();
  }
  return size;
}

void GroupLayout::WriteOutput(const GroupRef& group, uint8_t* out) const {
  if (!group.key.empty()) {
    std::memcpy(out, group.key.data(), group.key.size());
    out += group.key.size();
  }
  if (num_strings_ == 0) {
    // The cells are the output's aggregate fields, byte for byte.
    if (cells_size_ > 0) std::memcpy(out, group.cells, cells_size_);
    return;
  }
  for (const Cell& cell : cells_) {
    if (cell.string_index < 0) {
      std::memcpy(out, group.cells + cell.offset, cell.width);
      out += cell.width;
      continue;
    }
    const std::string& s = group.strings[cell.string_index];
    StoreLe32(out, static_cast<uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(out + 4, s.data(), s.size());
    out += 4 + s.size();
  }
}

size_t GroupLayout::OrderedKeySize(const uint8_t* key) const {
  if (ordered_key_size_ >= 0) return static_cast<size_t>(ordered_key_size_);
  size_t size = 0;
  for (DataType type : key_types_) {
    const size_t field = expr::FieldSize(type, key);
    if (type == DataType::kString) {
      // Each zero byte grows by one, and the terminator adds two.
      size += field - 4 +
              static_cast<size_t>(std::count(key + 4, key + field, 0)) + 2;
    } else {
      size += field;
    }
    key += field;
  }
  return size;
}

uint8_t* GroupLayout::WriteOrderedKey(const uint8_t* key, uint8_t* out) const {
  for (DataType type : key_types_) {
    switch (type) {
      case DataType::kBool:
        *out++ = *key != 0 ? 1 : 0;
        break;
      case DataType::kIp:
        StoreBe32(out, LoadLe32(key));
        out += 4;
        break;
      case DataType::kInt:
        StoreBe64(out, LoadLe64(key) ^ (uint64_t{1} << 63));
        out += 8;
        break;
      case DataType::kUint:
        StoreBe64(out, LoadLe64(key));
        out += 8;
        break;
      case DataType::kFloat:
        StoreBe64(out, OrderedFloatBits(LoadLe64(key)));
        out += 8;
        break;
      case DataType::kString: {
        // Runs between zero bytes copy as they are; a zero becomes 00 FF.
        const uint8_t* s = key + 4;
        const uint8_t* end = s + LoadLe32(key);
        for (;;) {
          const auto* zero = static_cast<const uint8_t*>(
              std::memchr(s, 0, static_cast<size_t>(end - s)));
          const uint8_t* stop = zero != nullptr ? zero : end;
          if (stop > s) std::memcpy(out, s, static_cast<size_t>(stop - s));
          out += stop - s;
          if (zero == nullptr) break;
          *out++ = 0x00;
          *out++ = 0xff;
          s = zero + 1;
        }
        *out++ = 0x00;
        *out++ = 0x00;
        break;
      }
    }
    key += expr::FieldSize(type, key);
  }
  return out;
}

const uint8_t* GroupLayout::KeyField(const uint8_t* key, size_t k) const {
  if (key_offsets_[k] >= 0) return key + key_offsets_[k];
  for (size_t i = 0; i < k; ++i) {
    key += expr::FieldSize(key_types_[i], key);
  }
  return key;
}

uint64_t GroupLayout::Hash(ByteSpan key) {
  // Eight bytes per multiply, then murmur3's finalizer, so every key byte
  // reaches the low bits the tables mask with.
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = key.size() * kMul;
  const uint8_t* p = key.data();
  size_t n = key.size();
  for (; n >= 8; p += 8, n -= 8) {
    h = (h ^ LoadLe64(p)) * kMul;
    h ^= h >> 29;
  }
  if (n > 0) {
    uint64_t tail = 0;
    for (size_t i = 0; i < n; ++i) tail |= uint64_t{p[i]} << (8 * i);
    h = (h ^ tail) * kMul;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

void PackKeyValue(DataType type, const Value& value, ByteBuffer* out) {
  GS_CHECK(value.type() == type);
  out->resize(expr::ValueSize(value));
  expr::WriteValue(value, out->data());
  rts::TupleCodec::CanonicalizeKeyField(type, out->data());
}

GroupInput::GroupInput(
    const std::vector<expr::CompiledExpr>& keys,
    const std::vector<std::optional<expr::CompiledExpr>>& args,
    int ordered_key, const std::vector<int>& key_sources,
    const GroupLayout& layout, const rts::TupleCodec& input_codec)
    : input_codec_(&input_codec),
      at_(input_codec.schema().num_fields(), nullptr),
      bounds_(input_codec.schema()) {
  for (size_t k = 0; k < keys.size(); ++k) {
    keys_.push_back(MakeSource(keys[k]));
    GS_CHECK(keys_.back().type == layout.key_type(k));
  }
  if (ordered_key >= 0) {
    const auto k = static_cast<size_t>(ordered_key);
    ordered_ = ordered_key;
    if (k < key_sources.size()) ordered_source_ = key_sources[k];
  }
  for (const std::optional<expr::CompiledExpr>& arg : args) {
    args_in_.push_back(arg.has_value() ? MakeSource(*arg) : Source{});
  }
  args_.resize(args.size(), nullptr);
  values_.resize(keys.size() + args.size());
}

GroupInput::Source GroupInput::MakeSource(const expr::CompiledExpr& expr) {
  Source source;
  source.type = expr.result_type;
  rts::AddLoadedFields(expr, 0, input_codec_->schema(), &reads_);
  std::optional<uint32_t> field = rts::BareField(expr);
  if (field.has_value() && *field < at_.size()) {
    source.at = static_cast<int>(*field);
  } else {
    source.expr = &expr;
  }
  return source;
}

GroupInput::Outcome GroupInput::Evaluate(
    const Source& source, expr::Evaluator* vm,
    const std::vector<Value>* params, Value* value) {
  expr::EvalContext ctx;
  ctx.row0 = at_;
  ctx.params = params;
  expr::EvalOutput out;
  if (!vm->Eval(*source.expr, ctx, &out).ok()) return Outcome::kError;
  if (!out.has_value) return Outcome::kMiss;
  *value = std::move(out.value);
  return Outcome::kOk;
}

GroupInput::Outcome GroupInput::PackKey(ByteSpan framed, expr::Evaluator* vm,
                                        const std::vector<Value>* params) {
  input_codec_->LocateFields(framed.data(), reads_, at_.data());
  size_t size = 0;
  for (size_t k = 0; k < keys_.size(); ++k) {
    const Source& key = keys_[k];
    if (key.expr == nullptr) {
      size += expr::FieldSize(key.type, at_[key.at]);
      continue;
    }
    const Outcome outcome = Evaluate(key, vm, params, &values_[k]);
    if (outcome != Outcome::kOk) return outcome;
    size += expr::ValueSize(values_[k]);
  }
  key_.resize(size);
  uint8_t* out = key_.data();
  for (size_t k = 0; k < keys_.size(); ++k) {
    const Source& key = keys_[k];
    uint8_t* field = out;
    if (key.expr == nullptr) {
      const size_t n = expr::FieldSize(key.type, at_[key.at]);
      std::memcpy(out, at_[key.at], n);
      out += n;
    } else {
      out = expr::WriteValue(values_[k], out);
    }
    rts::TupleCodec::CanonicalizeKeyField(key.type, field);
  }
  return Outcome::kOk;
}

GroupInput::Outcome GroupInput::PackArgs(expr::Evaluator* vm,
                                         const std::vector<Value>* params) {
  // Computed results are packed first and pointed at afterwards: scratch_
  // may move while it grows.
  size_t size = 0;
  for (size_t i = 0; i < args_in_.size(); ++i) {
    const Source& arg = args_in_[i];
    if (arg.expr == nullptr) continue;
    Value& value = values_[keys_.size() + i];
    const Outcome outcome = Evaluate(arg, vm, params, &value);
    if (outcome != Outcome::kOk) return outcome;
    size += expr::ValueSize(value);
  }
  scratch_.resize(size);
  uint8_t* out = scratch_.data();
  for (size_t i = 0; i < args_in_.size(); ++i) {
    const Source& arg = args_in_[i];
    if (arg.expr != nullptr) {
      args_[i] = out;
      out = expr::WriteValue(values_[keys_.size() + i], out);
    } else {
      args_[i] = arg.at >= 0 ? at_[arg.at] : nullptr;
    }
  }
  return Outcome::kOk;
}

const uint8_t* GroupInput::PunctuationBound(
    ByteSpan payload, expr::Evaluator* vm, const std::vector<Value>* params) {
  if (ordered_ < 0 || ordered_source_ < 0) return nullptr;
  const auto source = static_cast<size_t>(ordered_source_);
  const uint8_t* bound =
      rts::FindBound(payload, input_codec_->schema(), source);
  const Source& key = keys_[static_cast<size_t>(ordered_)];
  if (bound == nullptr || key.expr == nullptr) return bound;
  std::optional<Value> value =
      bounds_.Translate(*key.expr, source, bound, vm, params);
  if (!value.has_value()) return nullptr;
  PackKeyValue(key.type, *value, &bound_);
  return bound_.data();
}

GroupRef GroupMap::group(size_t g) const {
  const Entry& entry = entries_[g];
  GroupRef ref;
  ref.key = ByteSpan(keys_.data() + entry.key_offset, entry.key_size);
  ref.cells = cells_.data() + g * layout_->cells_size();
  if (layout_->num_strings() > 0) {
    ref.strings = &strings_[g * layout_->num_strings()];
  }
  return ref;
}

void GroupMap::Upsert(ByteSpan key, const uint8_t* const* args,
                      uint64_t weight) {
  if ((entries_.size() + 1) * 2 > index_.size()) {
    Rehash(std::max<size_t>(64, index_.size() * 2));
  }
  const uint64_t hash = GroupLayout::Hash(key);
  const size_t mask = index_.size() - 1;
  const size_t cells = layout_->cells_size();
  const size_t strings = layout_->num_strings();
  size_t i = hash & mask;
  for (; index_[i] != 0; i = (i + 1) & mask) {
    const size_t g = index_[i] - 1;
    const Entry& entry = entries_[g];
    if (entry.hash == hash && entry.key_size == key.size() &&
        (key.empty() || std::memcmp(keys_.data() + entry.key_offset,
                                    key.data(), key.size()) == 0)) {
      layout_->Fold(cells_.data() + g * cells,
                    strings > 0 ? &strings_[g * strings] : nullptr, args,
                    weight);
      return;
    }
  }
  const size_t g = entries_.size();
  Entry entry;
  entry.hash = hash;
  entry.key_offset = static_cast<uint32_t>(keys_.size());
  entry.key_size = static_cast<uint32_t>(key.size());
  entries_.push_back(entry);
  keys_.insert(keys_.end(), key.begin(), key.end());
  cells_.resize(cells_.size() + cells);
  strings_.resize(strings_.size() + strings);
  index_[i] = static_cast<uint32_t>(g + 1);
  layout_->Init(cells_.data() + g * cells,
                strings > 0 ? &strings_[g * strings] : nullptr, args, weight);
}

void GroupMap::Index(uint32_t g) {
  const size_t mask = index_.size() - 1;
  size_t i = entries_[g].hash & mask;
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = g + 1;
}

void GroupMap::Rehash(size_t capacity) {
  index_.assign(capacity, 0);
  for (uint32_t g = 0; g < entries_.size(); ++g) Index(g);
}

void GroupMap::Erase(const std::vector<uint32_t>& gone) {
  if (gone.empty()) return;
  const size_t cells = layout_->cells_size();
  const size_t strings = layout_->num_strings();
  if (gone.size() < entries_.size()) {
    // Slide the survivors down over the gaps, in order.
    keep_.assign(entries_.size(), 1);
    for (uint32_t g : gone) keep_[g] = 0;
    size_t kept = 0;
    size_t key_end = 0;
    for (size_t g = 0; g < entries_.size(); ++g) {
      if (keep_[g] == 0) continue;
      Entry entry = entries_[g];
      if (entry.key_size > 0) {
        std::memmove(keys_.data() + key_end,
                     keys_.data() + entry.key_offset, entry.key_size);
      }
      entry.key_offset = static_cast<uint32_t>(key_end);
      key_end += entry.key_size;
      if (cells > 0 && kept != g) {
        std::memmove(cells_.data() + kept * cells, cells_.data() + g * cells,
                     cells);
      }
      for (size_t s = 0; s < strings; ++s) {
        std::swap(strings_[kept * strings + s], strings_[g * strings + s]);
      }
      entries_[kept++] = entry;
    }
    entries_.resize(kept);
    keys_.resize(key_end);
  } else {
    entries_.clear();
    keys_.clear();
  }
  cells_.resize(entries_.size() * cells);
  strings_.resize(entries_.size() * strings);
  std::fill(index_.begin(), index_.end(), 0);
  for (uint32_t g = 0; g < entries_.size(); ++g) Index(g);
}

GroupLayout MakeGroupLayout(const OrderedAggregateNode::Spec& spec) {
  std::vector<DataType> key_types;
  for (size_t k = 0; k < spec.keys.size(); ++k) {
    key_types.push_back(spec.output_schema.field(k).type);
  }
  std::vector<DataType> arg_types;
  for (const std::optional<expr::CompiledExpr>& arg : spec.agg_args) {
    arg_types.push_back(arg.has_value() ? arg->result_type : DataType::kUint);
  }
  return GroupLayout(std::move(key_types), spec.agg_specs, arg_types);
}

OrderedAggregateNode::OrderedAggregateNode(Spec spec, rts::Subscription input,
                                           rts::StreamRegistry* registry,
                                           rts::ParamBlock params)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      input_(std::move(input)),
      params_(std::move(params)),
      input_codec_(spec_.input_schema),
      writer_(registry, spec_.name, spec_.output_batch),
      layout_(MakeGroupLayout(spec_)),
      grouping_(spec_.keys, spec_.agg_args, spec_.ordered_key,
                spec_.key_punctuation_source, layout_, input_codec_),
      groups_(&layout_) {
  RegisterInput(input_);
}

size_t OrderedAggregateNode::Poll(size_t budget) {
  const size_t processed = ReadInput(
      input_, input_codec_, budget,
      [this](const rts::BatchItem& item, ByteSpan payload) {
        ProcessTuple(payload, item.weight);
      },
      [this](ByteSpan payload) {
        const uint8_t* bound =
            grouping_.PunctuationBound(payload, &vm_, params_.get());
        if (bound != nullptr) CloseGroups(bound);
      });
  writer_.Flush();
  return processed;
}

void OrderedAggregateNode::ProcessTuple(ByteSpan payload, uint32_t weight) {
  GroupInput::Outcome outcome =
      grouping_.PackKey(payload, &vm_, params_.get());
  if (outcome != GroupInput::Outcome::kOk) {
    // A partial miss discards the tuple; an error also counts.
    if (outcome == GroupInput::Outcome::kError) ++eval_errors_;
    return;
  }

  // Group closing: a tuple whose ordered key exceeds all open groups
  // closes and flushes them (§2.1). For a banded key the guarantee is
  // weaker — late tuples up to `band` below the running maximum may still
  // arrive — so only groups below (key - band) close.
  if (spec_.ordered_key >= 0) {
    const auto k = static_cast<size_t>(spec_.ordered_key);
    const DataType type = layout_.key_type(k);
    const uint8_t* ordered = layout_.KeyField(grouping_.key().data(), k);
    if (!epoch_.has_value() ||
        rts::ComparePacked(type, ordered, epoch_->data()) > 0) {
      const bool first = !epoch_.has_value();
      epoch_ = rts::ToBound(type, ordered);
      if (!first) {
        bound_ = *epoch_;
        rts::LowerByBand(type, spec_.ordered_key_band, &bound_);
        CloseGroups(bound_.data());
      }
    }
  }

  outcome = grouping_.PackArgs(&vm_, params_.get());
  if (outcome != GroupInput::Outcome::kOk) {
    if (outcome == GroupInput::Outcome::kError) ++eval_errors_;
    return;
  }
  // HFTA inputs are LFTA partials or operator output (weight 1); only a
  // raw source stream under L1 sampling carries a larger weight, and a
  // non-split aggregate must scale by it just like the LFTA table does.
  groups_.Upsert(grouping_.key(), grouping_.args(), weight);
  open_groups_.Set(groups_.size());
}

void OrderedAggregateNode::CloseGroups(const uint8_t* bound) {
  closing_.clear();
  const auto k = static_cast<size_t>(spec_.ordered_key);
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    if (bound == nullptr || spec_.ordered_key < 0 ||
        rts::ComparePacked(layout_.key_type(k),
                           layout_.KeyField(groups_.group(g).key.data(), k),
                           bound) < 0) {
      closing_.push_back(g);
    }
  }
  // Deterministic output order: key order, NaN after every number.
  SortClosing();
  for (uint32_t g : closing_) EmitGroup(groups_.group(g));
  groups_.Erase(closing_);
  open_groups_.Set(groups_.size());
  if (bound == nullptr) return;

  const rts::Bound bounds[] = {{k, bound}};
  rts::MessageMeta meta;
  meta.kind = rts::MessageKind::kPunctuation;
  StampOutput(&meta);
  writer_.WritePunctuation(bounds, spec_.output_schema, meta);
}

void OrderedAggregateNode::SortClosing() {
  const size_t n = closing_.size();
  if (n < 2) return;
  const auto key = [this](size_t r) {
    return groups_.group(closing_[r]).key.data();
  };
  sort_order_.resize(n);
  std::iota(sort_order_.begin(), sort_order_.end(), 0);
  if (layout_.fixed_width_keys()) {
    const size_t width = layout_.OrderedKeySize(key(0));
    sort_keys_.resize(n * width);
    for (size_t r = 0; r < n; ++r) {
      layout_.WriteOrderedKey(key(r), sort_keys_.data() + r * width);
    }
    RadixSortRows(sort_keys_.data(), width, &sort_order_, &sort_scratch_,
                  &sort_varying_);
  } else {
    // STRING keys vary in length: padded to one width for a radix sort,
    // every row would pay for the longest key.
    sort_offsets_.resize(n + 1);
    sort_offsets_[0] = 0;
    for (size_t r = 0; r < n; ++r) {
      sort_offsets_[r + 1] = sort_offsets_[r] + layout_.OrderedKeySize(key(r));
    }
    sort_keys_.resize(sort_offsets_[n]);
    for (size_t r = 0; r < n; ++r) {
      layout_.WriteOrderedKey(key(r), sort_keys_.data() + sort_offsets_[r]);
    }
    // No encoding is a proper prefix of another, so the shorter one's
    // length decides.
    const uint8_t* keys = sort_keys_.data();
    const size_t* offsets = sort_offsets_.data();
    std::sort(sort_order_.begin(), sort_order_.end(),
              [keys, offsets](uint32_t a, uint32_t b) {
                const size_t common = std::min(offsets[a + 1] - offsets[a],
                                               offsets[b + 1] - offsets[b]);
                return std::memcmp(keys + offsets[a], keys + offsets[b],
                                   common) < 0;
              });
  }
  sort_scratch_.resize(n);
  for (size_t k = 0; k < n; ++k) sort_scratch_[k] = closing_[sort_order_[k]];
  closing_.swap(sort_scratch_);
}

void OrderedAggregateNode::EmitGroup(const GroupRef& group) {
  // Flushed groups inherit the trace context of the message that closed
  // them, so a traced tuple's e2e latency spans inject → group close.
  rts::MessageMeta meta;
  StampOutput(&meta);
  writer_.WriteTuple(meta, layout_.OutputSize(group),
                     [&](uint8_t* out) { layout_.WriteOutput(group, out); });
  ++tuples_out_;
  ++groups_flushed_;
}

void OrderedAggregateNode::Flush() {
  CloseGroups(nullptr);
  writer_.Flush();  // Flush may run outside a Poll round
}

void OrderedAggregateNode::RegisterTelemetry(
    telemetry::Registry* metrics) const {
  QueryNode::RegisterTelemetry(metrics);
  metrics->Register(name(), telemetry::metric::kOpenGroups, &open_groups_);
  metrics->Register(name(), telemetry::metric::kGroupsFlushed,
                    &groups_flushed_);
}

}  // namespace gigascope::ops
