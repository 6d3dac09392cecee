#include "ops/select_project.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "expr/vm.h"

namespace gigascope::ops {

using expr::Value;
using gsql::DataType;

namespace {

template <typename T>
int ThreeWay(T a, T b) {
  // Identical to Value::Compare's cmp3 (NaN compares "equal" for floats).
  return a < b ? -1 : (a > b ? 1 : 0);
}

}  // namespace

SelectProjectNode::SelectProjectNode(Spec spec, rts::Subscription input,
                                     rts::StreamRegistry* registry,
                                     rts::ParamBlock params)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      input_(std::move(input)),
      params_(std::move(params)),
      input_codec_(spec_.input_schema),
      output_codec_(spec_.output_schema),
      writer_(registry, spec_.name, spec_.output_batch),
      at_(spec_.input_schema.num_fields(), nullptr),
      bounds_(spec_.input_schema),
      mapped_(spec_.projections.size()) {
  if (input_ != nullptr) RegisterInput(input_);
  BuildRawFilter();
  BuildCopyProjection();
  for (const expr::CompiledExpr& projection : spec_.projections) {
    rts::AddLoadedFields(projection, 0, spec_.input_schema, &reads_);
  }
  if (spec_.predicate.has_value()) {
    rts::AddLoadedFields(*spec_.predicate, 0, spec_.input_schema, &reads_);
  }
}

void SelectProjectNode::BuildCopyProjection() {
  std::vector<uint32_t> fields;
  for (size_t i = 0; i < spec_.projections.size(); ++i) {
    std::optional<uint32_t> field = rts::BareField(spec_.projections[i]);
    if (!field.has_value() || *field >= spec_.input_schema.num_fields() ||
        spec_.input_schema.field(*field).type !=
            spec_.output_schema.field(i).type) {
      return;
    }
    fields.push_back(*field);
  }
  if (fields.empty()) return;
  size_t segments = 1;
  for (uint32_t field : fields) {
    const rts::TupleCodec::Slot& slot = input_codec_.slot(field);
    segments = std::max<size_t>(segments, slot.segment + 1);
    // A string's length word is part of the constant size.
    copy_fixed_bytes_ += slot.width != 0 ? slot.width : 4;
    CopyRun* last = copy_runs_.empty() ? nullptr : &copy_runs_.back();
    if (slot.width != 0 && last != nullptr && last->length != 0 &&
        last->segment == slot.segment &&
        last->offset + last->length == slot.offset) {
      last->length += slot.width;  // the field continues the run
    } else {
      copy_runs_.push_back({slot.segment, slot.offset, slot.width});
    }
  }
  copy_starts_.assign(segments, 0);
  copy_whole_ = fields.size() == spec_.input_schema.num_fields();
  for (size_t i = 0; copy_whole_ && i < fields.size(); ++i) {
    copy_whole_ = fields[i] == i;
  }
}

void SelectProjectNode::BuildRawFilter() {
  if (!spec_.predicate.has_value()) return;
  auto terms = expr::MatchFilterTerms(*spec_.predicate);
  if (!terms.has_value()) return;
  std::vector<RawTerm> raw;
  for (const expr::FilterTerm& term : *terms) {
    if (term.field >= spec_.input_schema.num_fields()) return;
    const DataType type = spec_.input_schema.field(term.field).type;
    // Same-type comparison only: that is what the VM executes (compiled
    // predicates insert casts otherwise, and those bytecodes don't match).
    if (term.constant.type() != type) return;
    // A fixed-width field no string precedes: at one offset in every tuple.
    const rts::TupleCodec::Slot& slot = input_codec_.slot(term.field);
    if (slot.segment != 0 || slot.width == 0) return;
    RawTerm rt;
    rt.offset = slot.offset;
    rt.type = type;
    rt.cmp = term.cmp;
    switch (type) {
      case DataType::kUint: rt.u = term.constant.uint_value(); break;
      case DataType::kIp: rt.u = term.constant.ip_value(); break;
      case DataType::kBool: rt.u = term.constant.bool_value() ? 1 : 0; break;
      case DataType::kInt: rt.i = term.constant.int_value(); break;
      case DataType::kFloat: rt.f = term.constant.float_value(); break;
      case DataType::kString: return;  // unreachable (no fixed width)
    }
    raw.push_back(rt);
  }
  raw_terms_ = std::move(raw);
}

bool SelectProjectNode::RawFilterPass(ByteSpan payload) const {
  const uint8_t* data = payload.data();
  for (const RawTerm& term : raw_terms_) {
    int cmp = 0;
    switch (term.type) {
      case DataType::kUint:
        cmp = ThreeWay(LoadLe64(data + term.offset), term.u);
        break;
      case DataType::kIp:
        cmp = ThreeWay<uint64_t>(LoadLe32(data + term.offset), term.u);
        break;
      case DataType::kBool:
        cmp = ThreeWay<uint64_t>(data[term.offset] != 0 ? 1 : 0, term.u);
        break;
      case DataType::kInt:
        cmp = ThreeWay(static_cast<int64_t>(LoadLe64(data + term.offset)),
                       term.i);
        break;
      case DataType::kFloat: {
        cmp = ThreeWay(std::bit_cast<double>(LoadLe64(data + term.offset)),
                       term.f);
        break;
      }
      case DataType::kString:
        return false;  // never built
    }
    if (!expr::CompareHolds(term.cmp, cmp)) return false;
  }
  return true;
}

size_t SelectProjectNode::Poll(size_t budget) {
  size_t processed = 0;
  if (input_ != nullptr) {
    processed = ReadInput(
        input_, input_codec_, budget,
        [this](const rts::BatchItem&, ByteSpan payload) {
          ProcessTuple(payload);
        },
        [this](ByteSpan payload) { ProcessPunctuation(payload); });
  }
  writer_.Flush();
  return processed;
}

void SelectProjectNode::Feed(const rts::MessageMeta& message,
                             ByteSpan payload) {
  ReadFed(
      message, payload, input_codec_,
      [this](const rts::MessageMeta&, ByteSpan tuple) { ProcessTuple(tuple); },
      [this](ByteSpan punctuation) { ProcessPunctuation(punctuation); });
}

void SelectProjectNode::ProcessTuple(ByteSpan payload) {
  const bool raw = !raw_terms_.empty();
  // Columnar fast path: the whole predicate runs on packed bytes (framing
  // guarantees every fixed-offset field is present); rejected tuples are
  // never read further.
  if (raw && !RawFilterPass(payload)) return;
  // The copy path reads its fields itself: only a predicate the raw filter
  // could not take needs them located.
  if (!raw || copy_runs_.empty()) {
    input_codec_.LocateFields(payload.data(), reads_, at_.data());
  }
  if (raw || PredicateHolds()) {
    if (copy_runs_.empty()) {
      EvaluateProjections();
    } else {
      CopyProjection(payload);
    }
  }
}

bool SelectProjectNode::PredicateHolds() {
  if (!spec_.predicate.has_value()) return true;
  expr::EvalContext ctx;
  ctx.row0 = at_;
  ctx.params = params_.get();
  expr::EvalOutput predicate_result;
  Status status = vm_.Eval(*spec_.predicate, ctx, &predicate_result);
  if (!status.ok()) {
    ++eval_errors_;
    return false;
  }
  // Partial-function miss or false: tuple discarded (§2.2).
  return predicate_result.has_value && predicate_result.value.bool_value();
}

void SelectProjectNode::EvaluateProjections() {
  expr::EvalContext ctx;
  ctx.row0 = at_;
  ctx.params = params_.get();
  out_row_.clear();
  for (const expr::CompiledExpr& projection : spec_.projections) {
    expr::EvalOutput out;
    Status status = vm_.Eval(projection, ctx, &out);
    if (!status.ok()) {
      ++eval_errors_;
      return;
    }
    if (!out.has_value) return;  // partial miss anywhere discards the tuple
    out_row_.push_back(std::move(out.value));
  }

  rts::MessageMeta meta;
  meta.weight = active_weight();  // sampling weight rides through
  StampOutput(&meta);
  writer_.WriteTuple(output_codec_, out_row_, meta);
  ++tuples_out_;
}

void SelectProjectNode::CopyProjection(ByteSpan payload) {
  rts::MessageMeta meta;
  meta.weight = active_weight();  // sampling weight rides through
  StampOutput(&meta);
  ++tuples_out_;
  if (copy_whole_) {
    writer_.Write(meta, payload);
    return;
  }
  // The tuple is Framed(), so every run lies inside it. Segment 0 starts
  // at 0 in every tuple; later ones move with the strings before them.
  const uint8_t* data = payload.data();
  if (copy_starts_.size() > 1) {
    input_codec_.SegmentStarts(data, copy_starts_.size(), copy_starts_.data());
  }
  size_t size = copy_fixed_bytes_;
  for (const CopyRun& run : copy_runs_) {
    if (run.length == 0) {
      size += LoadLe32(data + copy_starts_[run.segment] + run.offset);
    }
  }
  writer_.WriteTuple(meta, size, [&](uint8_t* out) {
    for (const CopyRun& run : copy_runs_) {
      const uint8_t* from = data + copy_starts_[run.segment] + run.offset;
      const size_t n = run.length != 0 ? run.length : 4 + LoadLe32(from);
      std::memcpy(out, from, n);
      out += n;
    }
  });
}

void SelectProjectNode::ProcessPunctuation(ByteSpan payload) {
  out_bounds_.clear();
  for (size_t i = 0; i < spec_.projections.size(); ++i) {
    const int source = spec_.punctuation_source[i];
    if (source < 0) continue;
    const auto field = static_cast<size_t>(source);
    const uint8_t* bound = rts::FindBound(payload, spec_.input_schema, field);
    if (bound == nullptr) continue;
    // The projection depends on the bounded field alone and preserves its
    // order, so its value at the bound bounds the output field: a bare
    // column's is the bound itself.
    if (!rts::BareField(spec_.projections[i]).has_value()) {
      std::optional<Value> mapped = bounds_.Translate(
          spec_.projections[i], field, bound, &vm_, params_.get());
      if (!mapped.has_value()) continue;
      mapped_[i] = {};
      expr::WriteValue(*mapped, mapped_[i].data());
      bound = mapped_[i].data();
    }
    out_bounds_.push_back({i, bound});
  }
  if (out_bounds_.empty()) return;
  // Forwarded punctuation keeps the trace context so downstream
  // punctuation-driven group closes stay attributed to the traced packet.
  rts::MessageMeta meta;
  meta.kind = rts::MessageKind::kPunctuation;
  StampOutput(&meta);
  writer_.WritePunctuation(out_bounds_, spec_.output_schema, meta);
}

}  // namespace gigascope::ops
