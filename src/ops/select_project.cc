#include "ops/select_project.h"

#include <algorithm>
#include <cstring>

#include "expr/vm.h"

namespace gigascope::ops {

using expr::Value;

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
      filter_(spec_.predicate, input_codec_),
      at_(spec_.input_schema.num_fields(), nullptr),
      bounds_(spec_.input_schema),
      mapped_(spec_.projections.size()) {
  if (input_ != nullptr) RegisterInput(input_);
  BuildCopyProjection();
  for (const expr::CompiledExpr& projection : spec_.projections) {
    rts::AddLoadedFields(projection, 0, spec_.input_schema, &reads_);
  }
  filter_.AddLoadedFields(spec_.input_schema, &reads_);
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
  const bool raw = filter_.raw();
  // Columnar fast path: the whole predicate runs on packed bytes (framing
  // guarantees every fixed-offset field is present); rejected tuples are
  // never read further.
  if (raw && !filter_.RawPass(payload)) return;
  // The copy path reads its fields itself: only a predicate the raw filter
  // could not take needs them located.
  if (!raw || copy_runs_.empty()) {
    input_codec_.LocateFields(payload.data(), reads_, at_.data());
  }
  if (!raw) {
    const Filter::Outcome outcome = filter_.Eval(at_, &vm_, params_.get());
    if (outcome != Filter::Outcome::kPass) {
      if (outcome == Filter::Outcome::kError) ++eval_errors_;
      return;
    }
  }
  if (copy_runs_.empty()) {
    EvaluateProjections();
  } else {
    CopyProjection(payload);
  }
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
