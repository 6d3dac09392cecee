#include "ops/join.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/vm.h"

namespace gigascope::ops {

using expr::Value;

WindowJoinNode::WindowJoinNode(Spec spec, rts::Subscription left,
                               rts::Subscription right,
                               rts::StreamRegistry* registry,
                               rts::ParamBlock params)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      left_(std::move(left)),
      right_(std::move(right)),
      registry_(registry),
      params_(std::move(params)),
      left_codec_(spec_.left_schema),
      right_codec_(spec_.right_schema),
      output_codec_(spec_.output_schema),
      writer_(registry, spec_.name, spec_.output_batch) {
  RegisterInput(left_);
  RegisterInput(right_);
}

int64_t WindowJoinNode::KeyOf(const rts::Row& row, bool is_left) const {
  const Value& value =
      row[is_left ? spec_.left_field : spec_.right_field];
  switch (value.type()) {
    case gsql::DataType::kInt:
      return value.int_value();
    case gsql::DataType::kUint:
    case gsql::DataType::kIp:
      return static_cast<int64_t>(value.uint_value());
    case gsql::DataType::kFloat:
      return static_cast<int64_t>(value.float_value());
    default:
      return 0;
  }
}

size_t WindowJoinNode::Poll(size_t budget) {
  size_t processed = 0;
  // Alternate whole batches between the sides so neither input starves;
  // the budget may overshoot by at most one batch per side.
  while (processed < budget) {
    bool any = false;
    if (left_->TryPop(&batch_)) {
      for (const rts::BatchItem& item : batch_.items()) {
        BeginMessage(item);
        ProcessSide(/*is_left=*/true, item, batch_.payload(item));
        EndMessage();
        ++processed;
      }
      any = true;
    }
    if (processed < budget && right_->TryPop(&batch_)) {
      for (const rts::BatchItem& item : batch_.items()) {
        BeginMessage(item);
        ProcessSide(/*is_left=*/false, item, batch_.payload(item));
        EndMessage();
        ++processed;
      }
      any = true;
    }
    if (!any) break;
  }
  Purge();
  // Measured after purging: the state the window genuinely requires, not
  // the transient batch parked between polls.
  buffer_high_water_ = std::max(
      buffer_high_water_,
      left_buffer_.size() + right_buffer_.size() + pending_.size());
  writer_.Flush();
  return processed;
}

void WindowJoinNode::ProcessSide(bool is_left, const rts::BatchItem& item,
                                 ByteSpan payload) {
  const gsql::StreamSchema& schema =
      is_left ? spec_.left_schema : spec_.right_schema;
  rts::TupleCodec& codec = is_left ? left_codec_ : right_codec_;
  std::optional<int64_t>& watermark =
      is_left ? left_watermark_ : right_watermark_;
  uint64_t band = is_left ? spec_.left_band : spec_.right_band;

  if (item.kind == rts::MessageKind::kPunctuation) {
    auto punctuation = rts::DecodePunctuation(payload, schema);
    if (!punctuation.ok()) return;
    auto bound = punctuation->BoundFor(
        is_left ? spec_.left_field : spec_.right_field);
    if (!bound.has_value()) return;
    int64_t key;
    switch (bound->type()) {
      case gsql::DataType::kInt: key = bound->int_value(); break;
      case gsql::DataType::kUint:
        key = static_cast<int64_t>(bound->uint_value());
        break;
      case gsql::DataType::kFloat:
        key = static_cast<int64_t>(bound->float_value());
        break;
      default:
        return;
    }
    if (!watermark.has_value() || key > *watermark) watermark = key;
    return;
  }

  ++tuples_in_;
  auto row = codec.Decode(payload);
  if (!row.ok()) {
    ++eval_errors_;
    return;
  }
  int64_t key = KeyOf(row.value(), is_left);
  int64_t guarantee = key - static_cast<int64_t>(band);
  if (!watermark.has_value() || guarantee > *watermark) {
    watermark = guarantee;
  }

  ProbeAndEmit(is_left, row.value());

  // Buffer for future partners, kept sorted on the window key so purging
  // can pop from the front.
  std::deque<rts::Row>& buffer = is_left ? left_buffer_ : right_buffer_;
  if (!buffer.empty() && KeyOf(buffer.back(), is_left) > key) {
    auto pos = std::upper_bound(
        buffer.begin(), buffer.end(), key,
        [this, is_left](int64_t k, const rts::Row& r) {
          return k < KeyOf(r, is_left);
        });
    buffer.insert(pos, std::move(row).value());
  } else {
    buffer.push_back(std::move(row).value());
  }
}

void WindowJoinNode::ProbeAndEmit(bool from_left, const rts::Row& row) {
  const std::deque<rts::Row>& other =
      from_left ? right_buffer_ : left_buffer_;
  int64_t key = KeyOf(row, from_left);
  for (const rts::Row& partner : other) {
    int64_t partner_key = KeyOf(partner, !from_left);
    int64_t delta = from_left ? key - partner_key : partner_key - key;
    if (delta < spec_.lo || delta > spec_.hi) continue;
    const rts::Row& left_row = from_left ? row : partner;
    const rts::Row& right_row = from_left ? partner : row;
    if (spec_.predicate.has_value()) {
      expr::EvalContext ctx;
      ctx.row0 = &left_row;
      ctx.row1 = &right_row;
      ctx.params = params_.get();
      if (!vm_.EvalPredicate(*spec_.predicate, ctx)) continue;
    }
    EmitJoined(left_row, right_row);
  }
}

void WindowJoinNode::Purge() {
  // A right tuple r can still match a future left l >= left_watermark iff
  // left_watermark - r.key <= hi, i.e. r.key >= left_watermark - hi.
  if (left_watermark_.has_value()) {
    int64_t cutoff = *left_watermark_ - spec_.hi;
    while (!right_buffer_.empty() &&
           KeyOf(right_buffer_.front(), false) < cutoff) {
      right_buffer_.pop_front();
    }
  }
  // A left tuple l can still match a future right r >= right_watermark iff
  // l.key - right_watermark >= lo, i.e. l.key >= right_watermark + lo.
  if (right_watermark_.has_value()) {
    int64_t cutoff = *right_watermark_ + spec_.lo;
    while (!left_buffer_.empty() &&
           KeyOf(left_buffer_.front(), true) < cutoff) {
      left_buffer_.pop_front();
    }
  }

  // Downstream ordering guarantee on the output's left-ts field (only
  // published when it advances). A future output comes either from a new
  // left tuple (key >= left watermark) or from a surviving buffered left
  // tuple joined with a future right (key >= right watermark + lo, the
  // purge cutoff) — so the bound is the smaller of the two.
  if (left_watermark_.has_value() && right_watermark_.has_value()) {
    int64_t bound =
        std::min(*left_watermark_, *right_watermark_ + spec_.lo);
    if (last_published_bound_.has_value() &&
        bound <= *last_published_bound_) {
      return;
    }
    last_published_bound_ = bound;
    if (spec_.order_preserving) ReleasePending(bound);
    rts::Punctuation punctuation;
    const gsql::DataType type =
        spec_.output_schema.field(spec_.left_field).type;
    Value value = type == gsql::DataType::kInt
                      ? Value::Int(bound)
                      : Value::Uint(bound < 0 ? 0
                                              : static_cast<uint64_t>(bound));
    punctuation.bounds.emplace_back(spec_.left_field, std::move(value));
    writer_.WritePunctuation(punctuation, spec_.output_schema,
                             rts::MessageMeta{});
  }
}

void WindowJoinNode::EmitJoined(const rts::Row& left, const rts::Row& right) {
  rts::Row out = left;
  out.insert(out.end(), right.begin(), right.end());
  if (spec_.order_preserving) {
    // Hold the match until the output bound proves nothing earlier can
    // still be produced ("monotonically increasing requires more buffer
    // space", §2.1).
    int64_t key = KeyOf(out, /*is_left=*/true);
    pending_.emplace(key, std::move(out));
    return;
  }
  Publish(out);
}

void WindowJoinNode::Publish(const rts::Row& out) {
  // A match against buffered state inherits the trace of the probing
  // message; order-preserving holds released later lose it (no active
  // message), which is fine for sampled tracing.
  rts::MessageMeta meta;
  StampOutput(&meta);
  writer_.WriteTuple(output_codec_, out, meta);
  ++tuples_out_;
}

void WindowJoinNode::ReleasePending(int64_t bound) {
  auto end = pending_.upper_bound(bound);
  for (auto it = pending_.begin(); it != end; ++it) {
    Publish(it->second);
  }
  pending_.erase(pending_.begin(), end);
}

void WindowJoinNode::Flush() {
  // Remaining buffered tuples have already emitted every match that both
  // buffers contain (probes run on arrival); only order-preserving holds
  // remain to be released.
  left_buffer_.clear();
  right_buffer_.clear();
  for (const auto& [key, row] : pending_) Publish(row);
  pending_.clear();
  writer_.Flush();  // Flush runs outside any Poll round
}

}  // namespace gigascope::ops
