#include "ops/lfta_agg.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/vm.h"
#include "telemetry/metric_names.h"

namespace gigascope::ops {

using expr::Value;

DirectMappedAggTable::DirectMappedAggTable(
    int log2_slots, const std::vector<expr::AggregateSpec>* specs)
    : specs_(specs) {
  GS_CHECK(log2_slots >= 0 && log2_slots <= 24);
  slots_.resize(size_t{1} << log2_slots);
  mask_ = slots_.size() - 1;
}

std::optional<std::pair<rts::Row, rts::Row>> DirectMappedAggTable::Upsert(
    rts::Row keys, const std::vector<std::optional<Value>>& args,
    uint64_t weight) {
  ++updates_;
  size_t slot_index = RowHash{}(keys) & mask_;
  Slot& slot = slots_[slot_index];
  std::optional<std::pair<rts::Row, rts::Row>> ejected;

  if (slot.used && !RowEq{}(slot.keys, keys)) {
    // Collision: eject the incumbent as a partial aggregate (§3).
    ++evictions_;
    ejected.emplace(std::move(slot.keys), slot.acc->Finalize());
    slot.used = false;
    --occupied_;
  }
  if (!slot.used) {
    slot.used = true;
    slot.keys = std::move(keys);
    slot.acc.emplace(specs_);
    ++occupied_;
  }
  slot.last_touch = ++tick_;
  slot.acc->Update(args, weight);
  return ejected;
}

std::vector<std::pair<rts::Row, rts::Row>> DirectMappedAggTable::DrainAll() {
  std::vector<std::pair<rts::Row, rts::Row>> out;
  out.reserve(occupied());
  for (Slot& slot : slots_) {
    if (!slot.used) continue;
    out.emplace_back(std::move(slot.keys), slot.acc->Finalize());
    slot.used = false;
    slot.acc.reset();
  }
  occupied_.Set(0);
  return out;
}

std::vector<std::pair<rts::Row, rts::Row>> DirectMappedAggTable::EvictColdest(
    size_t target) {
  std::vector<std::pair<rts::Row, rts::Row>> out;
  if (occupied() <= target) return out;
  size_t to_evict = occupied() - target;
  // Collect used slots ordered by last_touch and evict the oldest. The scan
  // is O(slots); callers amortize it by evicting a chunk below the cap.
  std::vector<size_t> used;
  used.reserve(occupied());
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].used) used.push_back(i);
  }
  std::partial_sort(used.begin(), used.begin() + to_evict, used.end(),
                    [this](size_t a, size_t b) {
                      return slots_[a].last_touch < slots_[b].last_touch;
                    });
  out.reserve(to_evict);
  for (size_t i = 0; i < to_evict; ++i) {
    Slot& slot = slots_[used[i]];
    out.emplace_back(std::move(slot.keys), slot.acc->Finalize());
    slot.used = false;
    slot.acc.reset();
    ++evictions_;
    ++shed_evictions_;
    --occupied_;
  }
  return out;
}

LftaAggregateNode::LftaAggregateNode(Spec spec, int log2_slots,
                                     rts::Subscription input,
                                     rts::StreamRegistry* registry,
                                     rts::ParamBlock params,
                                     const rts::ShedState* shed)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      input_(std::move(input)),
      registry_(registry),
      params_(std::move(params)),
      input_codec_(spec_.input_schema),
      output_codec_(spec_.output_schema),
      writer_(registry, spec_.name, spec_.output_batch),
      table_(log2_slots, &spec_.agg_specs),
      shed_(shed) {
  RegisterInput(input_);
  for (const expr::CompiledExpr& key : spec_.keys) {
    rts::AddLoadedFields(key, &reads_);
  }
  for (const std::optional<expr::CompiledExpr>& arg : spec_.agg_args) {
    if (arg.has_value()) rts::AddLoadedFields(*arg, &reads_);
  }
}

size_t LftaAggregateNode::Poll(size_t budget) {
  size_t processed = 0;
  // Batch-at-a-time: one pop per ring slot, then a tight loop over its
  // messages (the budget may overshoot by at most one batch).
  while (processed < budget && input_->TryPop(&batch_)) {
    for (const rts::BatchItem& item : batch_.items()) {
      ++processed;
      BeginMessage(item);
      if (item.kind == rts::MessageKind::kTuple) {
        ProcessTuple(batch_.payload(item), item.weight);
      } else {
        ProcessPunctuation(batch_.payload(item));
      }
      EndMessage();
    }
  }
  writer_.Flush();
  return processed;
}

void LftaAggregateNode::ProcessTuple(ByteSpan payload, uint32_t weight) {
  ++tuples_in_;
  if (!input_codec_.DecodeFields(payload, reads_, &row_)) {
    ++eval_errors_;
    return;
  }
  expr::EvalContext ctx;
  ctx.row0 = &row_;
  ctx.params = params_.get();

  rts::Row keys;
  keys.reserve(spec_.keys.size());
  for (const expr::CompiledExpr& key : spec_.keys) {
    expr::EvalOutput out;
    if (!vm_.Eval(key, ctx, &out).ok()) {
      ++eval_errors_;
      return;
    }
    if (!out.has_value) return;
    keys.push_back(std::move(out.value));
  }

  if (spec_.ordered_key >= 0) {
    const Value& ordered = keys[static_cast<size_t>(spec_.ordered_key)];
    if (epoch_.has_value() && ordered.Compare(*epoch_) > 0) {
      MaybeDrainEpoch(ordered);
    }
    if (!epoch_.has_value() || ordered.Compare(*epoch_) > 0) {
      epoch_ = ordered;
    }
  }

  std::vector<std::optional<Value>> args(spec_.agg_specs.size());
  for (size_t i = 0; i < spec_.agg_args.size(); ++i) {
    if (!spec_.agg_args[i].has_value()) continue;
    expr::EvalOutput out;
    if (!vm_.Eval(*spec_.agg_args[i], ctx, &out).ok()) {
      ++eval_errors_;
      return;
    }
    if (!out.has_value) return;
    args[i] = std::move(out.value);
  }

  // Under L1 sampling each surviving tuple stands for `weight` offered
  // ones (stamped on the message at the sampling decision); fold with it
  // so COUNT/SUM stay unbiased.
  auto ejected = table_.Upsert(std::move(keys), args, weight);
  if (ejected.has_value()) {
    EmitPartial(ejected->first, ejected->second);
  }
  EnforceTableCap();
}

void LftaAggregateNode::ProcessPunctuation(ByteSpan payload) {
  if (spec_.ordered_key < 0) return;
  auto punctuation = rts::DecodePunctuation(payload, spec_.input_schema);
  if (!punctuation.ok()) return;
  int source = spec_.key_punctuation_source[
      static_cast<size_t>(spec_.ordered_key)];
  if (source < 0) return;
  auto bound = punctuation->BoundFor(static_cast<size_t>(source));
  if (!bound.has_value()) return;

  rts::Row synthetic;
  synthetic.reserve(spec_.input_schema.num_fields());
  for (size_t f = 0; f < spec_.input_schema.num_fields(); ++f) {
    synthetic.push_back(Value::Default(spec_.input_schema.field(f).type));
  }
  synthetic[static_cast<size_t>(source)] = *bound;
  expr::EvalContext ctx;
  ctx.row0 = &synthetic;
  ctx.params = params_.get();
  expr::EvalOutput out;
  if (!vm_.Eval(spec_.keys[static_cast<size_t>(spec_.ordered_key)], ctx,
                &out).ok() ||
      !out.has_value) {
    return;
  }
  if (!epoch_.has_value() || out.value.Compare(*epoch_) > 0) {
    MaybeDrainEpoch(out.value);
    epoch_ = out.value;
  }
}

void LftaAggregateNode::MaybeDrainEpoch(const Value& new_epoch) {
  // L2 shedding: batch several ordered-key advances into one drain, cutting
  // per-epoch drain + punctuation cost. Coarsening delays window closes but
  // never loses them — every coarsen-th advance still drains everything and
  // emits the punctuation for the newest bound.
  uint32_t coarsen = shed_ ? shed_->EpochCoarsen() : 1;
  if (coarsen > 1 && ++epoch_advances_ < coarsen) return;
  epoch_advances_ = 0;
  DrainEpoch(new_epoch);
}

void LftaAggregateNode::EnforceTableCap() {
  uint32_t cap_pct = shed_ ? shed_->TableCapPct() : 100;
  if (cap_pct >= 100) return;
  size_t cap = table_.num_slots() * cap_pct / 100;
  if (table_.occupied() <= cap) return;
  // Evict a chunk below the cap (not just one) so the O(slots) coldness
  // scan amortizes over many upserts.
  size_t target = cap - cap / 8;
  for (const auto& [keys, aggs] : table_.EvictColdest(target)) {
    EmitPartial(keys, aggs);
  }
}

void LftaAggregateNode::EmitPartial(const rts::Row& keys,
                                    const rts::Row& aggs) {
  out_row_.assign(keys.begin(), keys.end());
  out_row_.insert(out_row_.end(), aggs.begin(), aggs.end());
  // Ejected/drained partials carry the trace of the packet that triggered
  // them, keeping the sampled span chain unbroken across the LFTA table.
  rts::MessageMeta meta;
  StampOutput(&meta);
  writer_.WriteTuple(output_codec_, out_row_, meta);
  ++tuples_out_;
}

void LftaAggregateNode::DrainEpoch(const Value& new_epoch) {
  // Draining everything is always safe — ejected groups are partial
  // aggregates the HFTA re-merges — but the ordering promise must honour
  // the band: late arrivals within it will re-open groups below new_epoch.
  for (const auto& [keys, aggs] : table_.DrainAll()) {
    EmitPartial(keys, aggs);
  }
  rts::Punctuation punctuation;
  punctuation.bounds.emplace_back(
      static_cast<size_t>(spec_.ordered_key),
      ReduceByBand(new_epoch, spec_.ordered_key_band));
  rts::MessageMeta meta;
  meta.kind = rts::MessageKind::kPunctuation;
  StampOutput(&meta);
  writer_.WritePunctuation(punctuation, spec_.output_schema, meta);
}

void LftaAggregateNode::Flush() {
  for (const auto& [keys, aggs] : table_.DrainAll()) {
    EmitPartial(keys, aggs);
  }
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

void LftaAggregateNode::AttachJit(jit::QueryJit* jit) {
  RequestAggKernels(&spec_, jit);
}

void LftaAggregateNode::CountJitKernels(size_t* native, size_t* total) const {
  for (const expr::CompiledExpr& key : spec_.keys) {
    expr::CountKernelSlot(key, native, total);
  }
  for (const std::optional<expr::CompiledExpr>& arg : spec_.agg_args) {
    if (arg.has_value()) expr::CountKernelSlot(*arg, native, total);
  }
}

}  // namespace gigascope::ops
