#include "ops/aggregate.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/vm.h"
#include "jit/engine.h"
#include "telemetry/metric_names.h"

namespace gigascope::ops {

using expr::AggFn;
using expr::AggregateSpec;
using expr::Value;
using gsql::DataType;

GroupAccumulator::GroupAccumulator(const std::vector<AggregateSpec>* specs)
    : specs_(specs), cells_(specs->size()) {}

void GroupAccumulator::Update(
    const std::vector<std::optional<Value>>& args, uint64_t weight) {
  rows_ += weight;
  for (size_t i = 0; i < specs_->size(); ++i) {
    const AggregateSpec& spec = (*specs_)[i];
    Cell& cell = cells_[i];
    switch (spec.fn) {
      case AggFn::kCount:
        cell.count += weight;
        break;
      case AggFn::kSum: {
        GS_CHECK(args[i].has_value());
        const Value& v = *args[i];
        switch (v.type()) {
          case DataType::kInt:
            cell.sum_int += v.int_value() * static_cast<int64_t>(weight);
            break;
          case DataType::kUint:
            cell.sum_uint += v.uint_value() * weight;
            break;
          case DataType::kFloat:
            cell.sum_float += v.float_value() * static_cast<double>(weight);
            break;
          default:
            cell.sum_uint += v.uint_value() * weight;
            break;
        }
        break;
      }
      case AggFn::kMin:
      case AggFn::kMax: {
        GS_CHECK(args[i].has_value());
        const Value& v = *args[i];
        if (!cell.extremum.has_value()) {
          cell.extremum = v;
        } else {
          int cmp = v.Compare(*cell.extremum);
          if ((spec.fn == AggFn::kMin && cmp < 0) ||
              (spec.fn == AggFn::kMax && cmp > 0)) {
            cell.extremum = v;
          }
        }
        break;
      }
      case AggFn::kAvg:
        GS_CHECK(false && "AVG must be decomposed by the planner");
        break;
    }
  }
}

void GroupAccumulator::Merge(const GroupAccumulator& other) {
  GS_CHECK(specs_ == other.specs_ || specs_->size() == other.specs_->size());
  rows_ += other.rows_;
  for (size_t i = 0; i < cells_.size(); ++i) {
    const AggregateSpec& spec = (*specs_)[i];
    Cell& cell = cells_[i];
    const Cell& in = other.cells_[i];
    switch (spec.fn) {
      case AggFn::kCount:
        cell.count += in.count;
        break;
      case AggFn::kSum:
        cell.sum_int += in.sum_int;
        cell.sum_uint += in.sum_uint;
        cell.sum_float += in.sum_float;
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        if (in.extremum.has_value()) {
          if (!cell.extremum.has_value()) {
            cell.extremum = in.extremum;
          } else {
            int cmp = in.extremum->Compare(*cell.extremum);
            if ((spec.fn == AggFn::kMin && cmp < 0) ||
                (spec.fn == AggFn::kMax && cmp > 0)) {
              cell.extremum = in.extremum;
            }
          }
        }
        break;
      case AggFn::kAvg:
        break;
    }
  }
}

rts::Row GroupAccumulator::Finalize() const {
  rts::Row out;
  out.reserve(specs_->size());
  for (size_t i = 0; i < specs_->size(); ++i) {
    const AggregateSpec& spec = (*specs_)[i];
    const Cell& cell = cells_[i];
    switch (spec.fn) {
      case AggFn::kCount:
        out.push_back(Value::Uint(cell.count));
        break;
      case AggFn::kSum:
        switch (spec.result_type) {
          case DataType::kInt: out.push_back(Value::Int(cell.sum_int)); break;
          case DataType::kFloat:
            out.push_back(Value::Float(cell.sum_float));
            break;
          default:
            out.push_back(Value::Uint(cell.sum_uint));
            break;
        }
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        out.push_back(cell.extremum.value_or(
            Value::Default(spec.result_type)));
        break;
      case AggFn::kAvg:
        out.push_back(Value::Float(0));
        break;
    }
  }
  return out;
}

expr::Value ReduceByBand(const expr::Value& value, uint64_t band) {
  if (band == 0) return value;
  switch (value.type()) {
    case DataType::kUint:
      return Value::Uint(value.uint_value() >= band
                             ? value.uint_value() - band
                             : 0);
    case DataType::kInt:
      return Value::Int(value.int_value() - static_cast<int64_t>(band));
    case DataType::kFloat:
      return Value::Float(value.float_value() - static_cast<double>(band));
    default:
      return value;
  }
}

size_t RowHash::operator()(const rts::Row& row) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Value& value : row) {
    h ^= value.Hash();
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h);
}

bool RowEq::operator()(const rts::Row& a, const rts::Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

OrderedAggregateNode::OrderedAggregateNode(Spec spec, rts::Subscription input,
                                           rts::StreamRegistry* registry,
                                           rts::ParamBlock params)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      input_(std::move(input)),
      registry_(registry),
      params_(std::move(params)),
      input_codec_(spec_.input_schema),
      output_codec_(spec_.output_schema),
      writer_(registry, spec_.name, spec_.output_batch) {
  RegisterInput(input_);
  for (const expr::CompiledExpr& key : spec_.keys) {
    rts::AddLoadedFields(key, &reads_);
  }
  for (const std::optional<expr::CompiledExpr>& arg : spec_.agg_args) {
    if (arg.has_value()) rts::AddLoadedFields(*arg, &reads_);
  }
}

size_t OrderedAggregateNode::Poll(size_t budget) {
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

void OrderedAggregateNode::ProcessTuple(ByteSpan payload, uint32_t weight) {
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
    if (!out.has_value) return;  // partial miss discards the tuple
    keys.push_back(std::move(out.value));
  }

  // Group closing: a tuple whose ordered key exceeds all open groups
  // closes and flushes them (§2.1). For a banded key the guarantee is
  // weaker — late tuples up to `band` below the running maximum may still
  // arrive — so only groups below (key - band) close.
  if (spec_.ordered_key >= 0) {
    const Value& ordered = keys[static_cast<size_t>(spec_.ordered_key)];
    if (epoch_.has_value() && ordered.Compare(*epoch_) > 0) {
      Value close_bound = ReduceByBand(ordered, spec_.ordered_key_band);
      FlushGroups(close_bound);
      rts::Punctuation punctuation;
      punctuation.bounds.emplace_back(
          static_cast<size_t>(spec_.ordered_key), close_bound);
      rts::MessageMeta meta;
      meta.kind = rts::MessageKind::kPunctuation;
      StampOutput(&meta);
      writer_.WritePunctuation(punctuation, spec_.output_schema, meta);
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

  auto it = groups_.find(keys);
  if (it == groups_.end()) {
    it = groups_.emplace(std::move(keys),
                         GroupAccumulator(&spec_.agg_specs)).first;
    open_groups_.Set(groups_.size());
  }
  // HFTA inputs are LFTA partials or operator output (weight 1); only a
  // raw source stream under L1 sampling carries a larger weight, and a
  // non-split aggregate must scale by it just like the LFTA table does.
  it->second.Update(args, weight);
}

void OrderedAggregateNode::ProcessPunctuation(ByteSpan payload) {
  if (spec_.ordered_key < 0) return;
  auto punctuation = rts::DecodePunctuation(payload, spec_.input_schema);
  if (!punctuation.ok()) return;
  int source = spec_.key_punctuation_source[
      static_cast<size_t>(spec_.ordered_key)];
  if (source < 0) return;
  auto bound = punctuation->BoundFor(static_cast<size_t>(source));
  if (!bound.has_value()) return;

  // Translate the input-field bound through the key expression.
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
  FlushGroups(out.value);
  rts::Punctuation forward;
  forward.bounds.emplace_back(static_cast<size_t>(spec_.ordered_key),
                              out.value);
  rts::MessageMeta meta;
  meta.kind = rts::MessageKind::kPunctuation;
  StampOutput(&meta);
  writer_.WritePunctuation(forward, spec_.output_schema, meta);
}

void OrderedAggregateNode::FlushGroups(const std::optional<Value>& bound) {
  std::vector<const rts::Row*> to_flush;
  for (const auto& [keys, acc] : groups_) {
    if (!bound.has_value() || spec_.ordered_key < 0 ||
        keys[static_cast<size_t>(spec_.ordered_key)].Compare(*bound) < 0) {
      to_flush.push_back(&keys);
    }
  }
  // Deterministic output order.
  std::sort(to_flush.begin(), to_flush.end(),
            [](const rts::Row* a, const rts::Row* b) {
              for (size_t i = 0; i < a->size() && i < b->size(); ++i) {
                if ((*a)[i].type() != (*b)[i].type()) continue;
                int cmp = (*a)[i].Compare((*b)[i]);
                if (cmp != 0) return cmp < 0;
              }
              return a->size() < b->size();
            });
  for (const rts::Row* keys : to_flush) {
    auto it = groups_.find(*keys);
    EmitGroup(it->first, it->second);
    groups_.erase(it);
  }
  open_groups_.Set(groups_.size());
}

void OrderedAggregateNode::EmitGroup(const rts::Row& keys,
                                     const GroupAccumulator& acc) {
  rts::Row aggs = acc.Finalize();
  out_row_.assign(keys.begin(), keys.end());
  out_row_.insert(out_row_.end(), aggs.begin(), aggs.end());
  // Flushed groups inherit the trace context of the message that closed
  // them, so a traced tuple's e2e latency spans inject → group close.
  rts::MessageMeta meta;
  StampOutput(&meta);
  writer_.WriteTuple(output_codec_, out_row_, meta);
  ++tuples_out_;
  ++groups_flushed_;
}

void OrderedAggregateNode::Flush() {
  FlushGroups(std::nullopt);
  writer_.Flush();  // Flush may run outside a Poll round
}

void OrderedAggregateNode::RegisterTelemetry(
    telemetry::Registry* metrics) const {
  QueryNode::RegisterTelemetry(metrics);
  metrics->Register(name(), telemetry::metric::kOpenGroups, &open_groups_);
  metrics->Register(name(), telemetry::metric::kGroupsFlushed,
                    &groups_flushed_);
}

void OrderedAggregateNode::AttachJit(jit::QueryJit* jit) {
  RequestAggKernels(&spec_, jit);
}

void OrderedAggregateNode::CountJitKernels(size_t* native,
                                           size_t* total) const {
  for (const expr::CompiledExpr& key : spec_.keys) {
    expr::CountKernelSlot(key, native, total);
  }
  for (const std::optional<expr::CompiledExpr>& arg : spec_.agg_args) {
    if (arg.has_value()) expr::CountKernelSlot(*arg, native, total);
  }
}

void RequestAggKernels(OrderedAggregateNode::Spec* spec, jit::QueryJit* jit) {
  for (expr::CompiledExpr& key : spec->keys) {
    jit->RequestExpr(&key);
  }
  for (std::optional<expr::CompiledExpr>& arg : spec->agg_args) {
    if (arg.has_value()) jit->RequestExpr(&*arg);
  }
}

}  // namespace gigascope::ops
