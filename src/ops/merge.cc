#include "ops/merge.h"

#include <algorithm>

#include "common/logging.h"
#include "ops/aggregate.h"

namespace gigascope::ops {

using expr::Value;

MergeNode::MergeNode(Spec spec, std::vector<rts::Subscription> inputs,
                     rts::StreamRegistry* registry)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      codec_(spec_.schema),
      writer_(registry, spec_.name, spec_.output_batch) {
  GS_CHECK(inputs.size() >= 2);
  for (rts::Subscription& input : inputs) {
    InputState state;
    state.channel = std::move(input);
    RegisterInput(state.channel);
    inputs_.push_back(std::move(state));
  }
}

size_t MergeNode::Poll(size_t budget) {
  size_t processed = 0;
  // Each input in turn; the budget may overshoot by at most one batch.
  for (InputState& input : inputs_) {
    if (processed >= budget) break;
    processed += ReadInput(
        input.channel, codec_, budget - processed,
        [&](const rts::BatchItem& item, ByteSpan payload) {
          Absorb(input, item, payload);
        },
        [&](ByteSpan payload) { AbsorbPunctuation(input, payload); });
  }
  size_t total = buffered();
  buffer_high_water_ = std::max(buffer_high_water_, total);
  EmitReady();
  writer_.Flush();
  return processed;
}

void MergeNode::Absorb(InputState& input, const rts::BatchItem& item,
                       ByteSpan payload) {
  const size_t field = spec_.merge_field;
  const Value key = expr::ReadField(spec_.schema.field(field).type,
                                    codec_.Locate(payload.data(), field));
  // A tuple also carries ordering information: on a (banded-)increasing
  // stream no future tuple can fall more than `band` below it, so it
  // advances the watermark like a punctuation would (slackened by the
  // band).
  Value guarantee = ReduceByBand(key, spec_.band);
  if (!input.watermark.has_value() ||
      guarantee.Compare(*input.watermark) > 0) {
    input.watermark = guarantee;
  }
  // Banded inputs arrive slightly out of order; keep the buffer sorted on
  // the merge key so the head is always the minimum.
  BufferedTuple buffered{key, ByteBuffer(payload.begin(), payload.end()),
                         item.trace_id, item.trace_ns, item.weight};
  if (spec_.band > 0 && !input.buffer.empty() &&
      input.buffer.back().key.Compare(buffered.key) > 0) {
    auto pos = std::upper_bound(
        input.buffer.begin(), input.buffer.end(), buffered,
        [](const BufferedTuple& a, const BufferedTuple& b) {
          return a.key.Compare(b.key) < 0;
        });
    input.buffer.insert(pos, std::move(buffered));
  } else {
    input.buffer.push_back(std::move(buffered));
  }
}

void MergeNode::AbsorbPunctuation(InputState& input, ByteSpan payload) {
  auto punctuation = rts::DecodePunctuation(payload, spec_.schema);
  if (!punctuation.ok()) return;
  auto bound = punctuation->BoundFor(spec_.merge_field);
  if (bound.has_value() &&
      (!input.watermark.has_value() ||
       bound->Compare(*input.watermark) > 0)) {
    input.watermark = *bound;
  }
}

int MergeNode::SmallestHead() const {
  int best = -1;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].buffer.empty()) continue;
    if (best < 0 ||
        inputs_[i].buffer.front().key.Compare(
            inputs_[static_cast<size_t>(best)].buffer.front().key) < 0) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

void MergeNode::EmitReady() {
  while (true) {
    // Emitting the smallest head is safe only if every *other* input
    // guarantees (via watermark) that it will never produce a smaller key.
    const int best = SmallestHead();
    if (best < 0) return;
    const Value& candidate =
        inputs_[static_cast<size_t>(best)].buffer.front().key;
    for (size_t i = 0; i < inputs_.size(); ++i) {
      if (static_cast<int>(i) == best) continue;
      if (!inputs_[i].buffer.empty()) continue;  // its head already compared
      if (!inputs_[i].watermark.has_value() ||
          inputs_[i].watermark->Compare(candidate) < 0) {
        return;  // input i might still produce something smaller: blocked
      }
    }
    EmitTuple(inputs_[static_cast<size_t>(best)].buffer.front());
    inputs_[static_cast<size_t>(best)].buffer.pop_front();
  }
}

void MergeNode::EmitTuple(const BufferedTuple& buffered) {
  rts::MessageMeta meta;
  meta.weight = buffered.weight;
  // Restore the context carried through the buffer: the merged tuple keeps
  // the trace of the input message it came from, not whichever message the
  // poll loop happens to be processing.
  StampOutputWithContext(&meta, buffered.trace_id, buffered.trace_ns);
  writer_.Write(meta, ByteSpan(buffered.bytes.data(), buffered.bytes.size()));
  ++tuples_out_;

  // Downstream watermark: the smallest guarantee across inputs.
  std::optional<Value> low;
  for (const InputState& input : inputs_) {
    if (!input.watermark.has_value()) return;
    if (!low.has_value() || input.watermark->Compare(*low) < 0) {
      low = input.watermark;
    }
  }
  if (low.has_value()) {
    rts::Punctuation punctuation;
    punctuation.bounds.emplace_back(spec_.merge_field, *low);
    writer_.WritePunctuation(punctuation, spec_.schema, rts::MessageMeta{});
  }
}

void MergeNode::Flush() {
  // End of all streams: emit everything in merge order.
  for (int best = SmallestHead(); best >= 0; best = SmallestHead()) {
    EmitTuple(inputs_[static_cast<size_t>(best)].buffer.front());
    inputs_[static_cast<size_t>(best)].buffer.pop_front();
  }
  writer_.Flush();  // Flush runs outside any Poll round
}

size_t MergeNode::buffered() const {
  size_t total = 0;
  for (const InputState& input : inputs_) total += input.buffer.size();
  return total;
}

}  // namespace gigascope::ops
