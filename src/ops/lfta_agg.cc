#include "ops/lfta_agg.h"

#include <cstring>

#include "common/logging.h"
#include "expr/vm.h"
#include "telemetry/metric_names.h"

namespace gigascope::ops {

using gsql::DataType;

DirectMappedAggTable::DirectMappedAggTable(int log2_slots,
                                           const GroupLayout* layout)
    : layout_(layout) {
  GS_CHECK(log2_slots >= 0 && log2_slots <= 24);
  slots_.resize(size_t{1} << log2_slots);
  cells_.resize(slots_.size() * layout_->cells_size());
  strings_.resize(slots_.size() * layout_->num_strings());
  mask_ = slots_.size() - 1;
}

GroupRef DirectMappedAggTable::Group(size_t s) const {
  GroupRef group;
  const std::string& key = slots_[s].key;
  group.key =
      ByteSpan(reinterpret_cast<const uint8_t*>(key.data()), key.size());
  group.cells = cells_.data() + s * layout_->cells_size();
  if (layout_->num_strings() > 0) {
    group.strings = &strings_[s * layout_->num_strings()];
  }
  return group;
}

void DirectMappedAggTable::Claim(size_t s, ByteSpan key,
                                 const uint8_t* const* args,
                                 uint64_t weight) {
  Slot& slot = slots_[s];
  slot.key.assign(reinterpret_cast<const char*>(key.data()), key.size());
  slot.last_touch = ++tick_;
  layout_->Init(cells_.data() + s * layout_->cells_size(),
                layout_->num_strings() > 0
                    ? &strings_[s * layout_->num_strings()]
                    : nullptr,
                args, weight);
}

bool DirectMappedAggTable::FoldIfSame(size_t s, ByteSpan key,
                                      const uint8_t* const* args,
                                      uint64_t weight) {
  Slot& slot = slots_[s];
  if (slot.key.size() != key.size() ||
      (!key.empty() &&
       std::memcmp(slot.key.data(), key.data(), key.size()) != 0)) {
    return false;
  }
  slot.last_touch = ++tick_;
  layout_->Fold(cells_.data() + s * layout_->cells_size(),
                layout_->num_strings() > 0
                    ? &strings_[s * layout_->num_strings()]
                    : nullptr,
                args, weight);
  return true;
}

LftaAggregateNode::LftaAggregateNode(Spec spec, int log2_slots,
                                     rts::Subscription input,
                                     rts::StreamRegistry* registry,
                                     rts::ParamBlock params,
                                     const rts::ShedState* shed)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      input_(std::move(input)),
      params_(std::move(params)),
      input_codec_(spec_.input_schema),
      writer_(registry, spec_.name, spec_.output_batch),
      layout_(MakeGroupLayout(spec_)),
      grouping_(spec_.keys, spec_.agg_args, spec_.ordered_key,
                spec_.key_punctuation_source, layout_, input_codec_),
      table_(log2_slots, &layout_),
      shed_(shed) {
  RegisterInput(input_);
}

size_t LftaAggregateNode::Poll(size_t budget) {
  const size_t processed = ReadInput(
      input_, input_codec_, budget,
      [this](const rts::BatchItem& item, ByteSpan payload) {
        ProcessTuple(payload, item.weight);
      },
      [this](ByteSpan payload) {
        if (grouping_.PunctuationBound(payload, &vm_, params_.get(),
                                       &bound_)) {
          AdvanceEpoch(bound_.data(), /*drain_first=*/true);
        }
      });
  writer_.Flush();
  return processed;
}

void LftaAggregateNode::ProcessTuple(ByteSpan payload, uint32_t weight) {
  GroupInput::Outcome outcome =
      grouping_.PackKey(payload, &vm_, params_.get());
  if (outcome != GroupInput::Outcome::kOk) {
    if (outcome == GroupInput::Outcome::kError) ++eval_errors_;
    return;
  }
  if (spec_.ordered_key >= 0) {
    AdvanceEpoch(layout_.KeyField(grouping_.key().data(),
                                  static_cast<size_t>(spec_.ordered_key)),
                 /*drain_first=*/false);
  }
  outcome = grouping_.PackArgs(&vm_, params_.get());
  if (outcome != GroupInput::Outcome::kOk) {
    if (outcome == GroupInput::Outcome::kError) ++eval_errors_;
    return;
  }
  // Under L1 sampling each surviving tuple stands for `weight` offered
  // ones (stamped on the message at the sampling decision); fold with it
  // so COUNT/SUM stay unbiased.
  table_.Upsert(grouping_.key(), grouping_.args(), weight,
                [this](const GroupRef& group) { EmitPartial(group); });
  EnforceTableCap();
}

void LftaAggregateNode::AdvanceEpoch(const uint8_t* ordered,
                                     bool drain_first) {
  const DataType type =
      layout_.key_type(static_cast<size_t>(spec_.ordered_key));
  const bool first = epoch_.empty();
  if (!first && rts::ComparePacked(type, ordered, epoch_.data()) <= 0) return;
  // L2 shedding: batch several ordered-key advances into one drain, cutting
  // per-epoch drain + punctuation cost. Coarsening delays window closes but
  // never loses them — every coarsen-th advance still drains everything and
  // emits the punctuation for the newest bound.
  if (!first || drain_first) {
    const uint32_t coarsen = shed_ ? shed_->EpochCoarsen() : 1;
    if (coarsen <= 1 || ++epoch_advances_ >= coarsen) {
      epoch_advances_ = 0;
      DrainEpoch(ordered);
    }
  }
  epoch_.assign(ordered, ordered + expr::FieldSize(type, ordered));
}

void LftaAggregateNode::EnforceTableCap() {
  uint32_t cap_pct = shed_ ? shed_->TableCapPct() : 100;
  if (cap_pct >= 100) return;
  size_t cap = table_.num_slots() * cap_pct / 100;
  if (table_.occupied() <= cap) return;
  // Evict a chunk below the cap (not just one) so the O(slots) coldness
  // scan amortizes over many upserts.
  size_t target = cap - cap / 8;
  table_.EvictColdest(target,
                      [this](const GroupRef& group) { EmitPartial(group); });
}

void LftaAggregateNode::EmitPartial(const GroupRef& group) {
  // Ejected/drained partials carry the trace of the packet that triggered
  // them, keeping the sampled span chain unbroken across the LFTA table.
  rts::MessageMeta meta;
  StampOutput(&meta);
  writer_.WriteTuple(meta, layout_.OutputSize(group),
                     [&](uint8_t* out) { layout_.WriteOutput(group, out); });
  ++tuples_out_;
}

void LftaAggregateNode::DrainEpoch(const uint8_t* new_epoch) {
  // Draining everything is always safe — ejected groups are partial
  // aggregates the HFTA re-merges — but the ordering promise must honour
  // the band: late arrivals within it will re-open groups below new_epoch.
  table_.DrainAll([this](const GroupRef& group) { EmitPartial(group); });
  const auto k = static_cast<size_t>(spec_.ordered_key);
  rts::Punctuation punctuation;
  punctuation.bounds.emplace_back(
      k, ReduceByBand(expr::ReadField(layout_.key_type(k),
                                                 new_epoch),
                      spec_.ordered_key_band));
  rts::MessageMeta meta;
  meta.kind = rts::MessageKind::kPunctuation;
  StampOutput(&meta);
  writer_.WritePunctuation(punctuation, spec_.output_schema, meta);
}

void LftaAggregateNode::Flush() {
  table_.DrainAll([this](const GroupRef& group) { EmitPartial(group); });
  writer_.Flush();  // Flush may run outside a Poll round
}

void LftaAggregateNode::RegisterTelemetry(
    telemetry::Registry* metrics) const {
  QueryNode::RegisterTelemetry(metrics);
  metrics->RegisterReader(name(), telemetry::metric::kLftaUpdates,
                          [this] { return table_.updates(); });
  metrics->RegisterReader(name(), telemetry::metric::kLftaEvictions,
                          [this] { return table_.evictions(); });
  metrics->RegisterReader(name(), telemetry::metric::kLftaOccupied, [this] {
    return static_cast<uint64_t>(table_.occupied());
  });
  metrics->RegisterReader(name(), telemetry::metric::kLftaShedEvictions,
                          [this] { return table_.shed_evictions(); });
}

}  // namespace gigascope::ops
