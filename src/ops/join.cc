#include "ops/join.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "expr/vm.h"

namespace gigascope::ops {

using expr::Value;
using gsql::DataType;

namespace {

/// The window key of the packed field of `type` at `at`: INT as is, UINT
/// and IP reinterpreted as int64_t, FLOAT truncated, anything else 0.
int64_t WindowKey(DataType type, const uint8_t* at) {
  switch (type) {
    case DataType::kInt:
    case DataType::kUint:
      return static_cast<int64_t>(LoadLe64(at));
    case DataType::kIp:
      return LoadLe32(at);
    case DataType::kFloat:
      return static_cast<int64_t>(std::bit_cast<double>(LoadLe64(at)));
    default:
      return 0;
  }
}

}  // namespace

WindowJoinNode::WindowJoinNode(Spec spec, rts::Subscription left,
                               rts::Subscription right,
                               rts::StreamRegistry* registry,
                               rts::ParamBlock params)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      left_(std::move(left)),
      right_(std::move(right)),
      params_(std::move(params)),
      left_codec_(spec_.left_schema),
      right_codec_(spec_.right_schema),
      writer_(registry, spec_.name, spec_.output_batch),
      left_reads_{static_cast<uint32_t>(spec_.left_field)},
      right_reads_{static_cast<uint32_t>(spec_.right_field)},
      left_at_(spec_.left_schema.num_fields(), nullptr),
      right_at_(spec_.right_schema.num_fields(), nullptr) {
  // A match is the left tuple's bytes followed by the right tuple's, so
  // the output must be the left fields then the right fields.
  const size_t left_fields = left_at_.size();
  GS_CHECK(spec_.left_field < left_fields &&
           spec_.right_field < right_at_.size() &&
           spec_.output_schema.num_fields() == left_fields + right_at_.size());
  for (size_t f = 0; f < spec_.output_schema.num_fields(); ++f) {
    GS_CHECK(spec_.output_schema.field(f).type ==
             (f < left_fields ? spec_.left_schema.field(f)
                              : spec_.right_schema.field(f - left_fields))
                 .type);
  }
  if (spec_.predicate.has_value()) {
    rts::AddLoadedFields(*spec_.predicate, 0, spec_.left_schema,
                         &left_reads_);
    rts::AddLoadedFields(*spec_.predicate, 1, spec_.right_schema,
                         &right_reads_);
  }
  RegisterInput(left_);
  RegisterInput(right_);
}

size_t WindowJoinNode::Poll(size_t budget) {
  const auto read_side = [this](bool is_left) {
    return ReadBatch(
        is_left ? left_ : right_, is_left ? left_codec_ : right_codec_,
        [this, is_left](const rts::BatchItem&, ByteSpan payload) {
          ProcessTuple(is_left, payload);
        },
        [this, is_left](ByteSpan payload) {
          ProcessPunctuation(is_left, payload);
        });
  };
  size_t processed = 0;
  // Alternate whole batches between the sides so neither input starves;
  // the budget may overshoot by at most one batch per side.
  while (processed < budget) {
    const size_t left = read_side(/*is_left=*/true);
    const size_t right =
        processed + left < budget ? read_side(/*is_left=*/false) : 0;
    processed += left + right;
    if (left + right == 0) break;
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

void WindowJoinNode::ProcessPunctuation(bool is_left, ByteSpan payload) {
  auto punctuation = rts::DecodePunctuation(
      payload, is_left ? spec_.left_schema : spec_.right_schema);
  if (!punctuation.ok()) return;
  auto bound =
      punctuation->BoundFor(is_left ? spec_.left_field : spec_.right_field);
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
  std::optional<int64_t>& watermark =
      is_left ? left_watermark_ : right_watermark_;
  if (!watermark.has_value() || key > *watermark) watermark = key;
}

void WindowJoinNode::ProcessTuple(bool is_left, ByteSpan payload) {
  const gsql::StreamSchema& schema =
      is_left ? spec_.left_schema : spec_.right_schema;
  rts::TupleCodec& codec = is_left ? left_codec_ : right_codec_;
  std::optional<int64_t>& watermark =
      is_left ? left_watermark_ : right_watermark_;
  uint64_t band = is_left ? spec_.left_band : spec_.right_band;
  const size_t window = is_left ? spec_.left_field : spec_.right_field;
  std::vector<const uint8_t*>& at = is_left ? left_at_ : right_at_;
  codec.LocateFields(payload.data(), is_left ? left_reads_ : right_reads_,
                     at.data());
  const int64_t key = WindowKey(schema.field(window).type, at[window]);
  int64_t guarantee = key - static_cast<int64_t>(band);
  if (!watermark.has_value() || guarantee > *watermark) {
    watermark = guarantee;
  }

  ProbeAndEmit(is_left, key, payload);

  // Buffer for future partners, kept sorted on the window key so purging
  // can pop from the front.
  std::deque<Buffered>& buffer = is_left ? left_buffer_ : right_buffer_;
  Buffered buffered{key, ByteBuffer(payload.begin(), payload.end())};
  if (!buffer.empty() && buffer.back().key > key) {
    auto pos = std::upper_bound(
        buffer.begin(), buffer.end(), key,
        [](int64_t k, const Buffered& b) { return k < b.key; });
    buffer.insert(pos, std::move(buffered));
  } else {
    buffer.push_back(std::move(buffered));
  }
}

void WindowJoinNode::ProbeAndEmit(bool from_left, int64_t key,
                                  ByteSpan bytes) {
  const std::deque<Buffered>& other = from_left ? right_buffer_ : left_buffer_;
  const rts::TupleCodec& other_codec = from_left ? right_codec_ : left_codec_;
  const rts::ReadSet& other_reads = from_left ? right_reads_ : left_reads_;
  std::vector<const uint8_t*>& other_at = from_left ? right_at_ : left_at_;
  for (const Buffered& partner : other) {
    int64_t delta = from_left ? key - partner.key : partner.key - key;
    if (delta < spec_.lo || delta > spec_.hi) continue;
    const ByteSpan partner_bytes(partner.bytes.data(), partner.bytes.size());
    if (spec_.predicate.has_value()) {
      other_codec.LocateFields(partner_bytes.data(), other_reads,
                               other_at.data());
      expr::EvalContext ctx;
      ctx.row0 = left_at_;
      ctx.row1 = right_at_;
      ctx.params = params_.get();
      expr::EvalOutput matched;
      if (!vm_.Eval(*spec_.predicate, ctx, &matched).ok()) {
        ++eval_errors_;  // e.g. a division by zero: the pair joins nothing
        continue;
      }
      // Partial-function miss or false: no match (§2.2).
      if (!matched.has_value || !matched.value.bool_value()) continue;
    }
    EmitJoined(from_left ? key : partner.key,
               from_left ? bytes : partner_bytes,
               from_left ? partner_bytes : bytes);
  }
}

void WindowJoinNode::Purge() {
  // A right tuple r can still match a future left l >= left_watermark iff
  // left_watermark - r.key <= hi, i.e. r.key >= left_watermark - hi.
  if (left_watermark_.has_value()) {
    int64_t cutoff = *left_watermark_ - spec_.hi;
    while (!right_buffer_.empty() && right_buffer_.front().key < cutoff) {
      right_buffer_.pop_front();
    }
  }
  // A left tuple l can still match a future right r >= right_watermark iff
  // l.key - right_watermark >= lo, i.e. l.key >= right_watermark + lo.
  if (right_watermark_.has_value()) {
    int64_t cutoff = *right_watermark_ + spec_.lo;
    while (!left_buffer_.empty() && left_buffer_.front().key < cutoff) {
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

void WindowJoinNode::EmitJoined(int64_t left_key, ByteSpan left,
                                ByteSpan right) {
  if (spec_.order_preserving) {
    // Hold the match until the output bound proves nothing earlier can
    // still be produced ("monotonically increasing requires more buffer
    // space", §2.1).
    ByteBuffer match(left.begin(), left.end());
    match.insert(match.end(), right.begin(), right.end());
    pending_.emplace(left_key, std::move(match));
    return;
  }
  Publish(left, right);
}

void WindowJoinNode::Publish(ByteSpan first, ByteSpan second) {
  // A match against buffered state inherits the trace of the probing
  // message; order-preserving holds released later lose it (no active
  // message), which is fine for sampled tracing.
  rts::MessageMeta meta;
  StampOutput(&meta);
  writer_.WriteTuple(meta, first.size() + second.size(), [&](uint8_t* out) {
    std::memcpy(out, first.data(), first.size());
    if (!second.empty()) {
      std::memcpy(out + first.size(), second.data(), second.size());
    }
  });
  ++tuples_out_;
}

void WindowJoinNode::ReleasePending(int64_t bound) {
  auto end = pending_.upper_bound(bound);
  for (auto it = pending_.begin(); it != end; ++it) {
    Publish(ByteSpan(it->second.data(), it->second.size()));
  }
  pending_.erase(pending_.begin(), end);
}

void WindowJoinNode::Flush() {
  // Remaining buffered tuples have already emitted every match that both
  // buffers contain (probes run on arrival); only order-preserving holds
  // remain to be released.
  left_buffer_.clear();
  right_buffer_.clear();
  for (const auto& [key, match] : pending_) {
    Publish(ByteSpan(match.data(), match.size()));
  }
  pending_.clear();
  writer_.Flush();  // Flush runs outside any Poll round
}

}  // namespace gigascope::ops
