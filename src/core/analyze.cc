// EXPLAIN ANALYZE assembly: resolves each retained query plan's operators
// to their instantiated nodes and hands plan/explain.h's renderers a lookup
// over live runtime counters. Node counters come from one registry
// snapshot — the same (proc-tagged) read path that feeds gs_stats — so
// ANALYZE never disagrees with the stats stream; ring health is read from
// the node's input rings, whose counters the ring_* metrics also read.

#include <map>
#include <string>
#include <utility>

#include "core/engine.h"
#include "telemetry/metric_names.h"

namespace gigascope::core {

namespace metric = telemetry::metric;

void Engine::AssembleAnalyze(
    std::map<std::string, plan::AnalyzeNodeStats>* by_node,
    plan::AnalyzeSummary* summary) const {
  // Snapshot once, index by (entity, metric). There is exactly one row per
  // (entity, metric) — proc is an owner tag, not a second series.
  std::map<std::pair<std::string, std::string>, uint64_t> values;
  for (const telemetry::MetricSample& sample : telemetry_.Snapshot()) {
    values[{sample.entity, sample.metric}] = sample.value;
  }
  auto value_of = [&values](const std::string& entity,
                            const std::string& name) -> uint64_t {
    auto it = values.find({entity, name});
    return it == values.end() ? 0 : it->second;
  };
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const rts::QueryNode* node = nodes_[i].get();
    const std::string& name = node->name();
    plan::AnalyzeNodeStats s;
    s.proc = telemetry_.EntityProc(name);
    if (pool_ != nullptr && i < node_worker_.size() &&
        node_worker_[i] != kInjectThread) {
      s.restarts = pool_->restarts(static_cast<size_t>(node_worker_[i]));
    }
    s.tuples_in = value_of(name, metric::kTuplesIn);
    s.tuples_out = value_of(name, metric::kTuplesOut);
    s.eval_errors = value_of(name, metric::kEvalErrors);
    s.poll_ns_p50 =
        value_of(name, std::string(metric::kPollNs) + metric::kP50Suffix);
    s.poll_ns_p99 =
        value_of(name, std::string(metric::kPollNs) + metric::kP99Suffix);
    s.tuple_ns_p50 =
        value_of(name, std::string(metric::kTupleNs) + metric::kP50Suffix);
    s.tuple_ns_p99 =
        value_of(name, std::string(metric::kTupleNs) + metric::kP99Suffix);
    // Ring health, summed over the node's input channels: the same
    // control-block counters the ring_* metrics read. A fed node has none.
    s.has_ring = !node->inputs().empty();
    for (const rts::Subscription& input : node->inputs()) {
      s.ring_pushed += input->pushed();
      s.ring_popped += input->popped();
      s.ring_dropped += input->dropped();
      s.ring_size += input->size();
      s.ring_high_water += input->high_water_mark();
    }
    summary->trace_truncated += node->trace_truncated();
    by_node->emplace(name, std::move(s));
  }
  summary->pump_mode = pump_mode_;
  summary->shed_level = value_of("engine", metric::kShedLevel);
  summary->worker_restarts =
      supervisor_ != nullptr ? supervisor_->restarts() : 0;
  summary->workers_degraded =
      supervisor_ != nullptr ? supervisor_->degraded_count() : 0;
}

std::string Engine::AnalyzeText(bool mask_volatile) const {
  std::map<std::string, plan::AnalyzeNodeStats> by_node;
  plan::AnalyzeSummary summary;
  AssembleAnalyze(&by_node, &summary);
  plan::AnalyzeOptions opts;
  opts.mask_volatile = mask_volatile;
  plan::AnalyzeLookup lookup =
      [&by_node](const std::string& name) -> const plan::AnalyzeNodeStats* {
    auto it = by_node.find(name);
    return it == by_node.end() ? nullptr : &it->second;
  };
  std::string out;
  for (const AnalyzePlan& p : analyze_plans_) {
    if (!out.empty()) out += "\n";
    out += plan::ExplainAnalyzeText(p.planned, p.split, lookup, summary, opts);
  }
  return out;
}

std::string Engine::AnalyzeJson(bool mask_volatile) const {
  std::map<std::string, plan::AnalyzeNodeStats> by_node;
  plan::AnalyzeSummary summary;
  AssembleAnalyze(&by_node, &summary);
  plan::AnalyzeOptions opts;
  opts.mask_volatile = mask_volatile;
  plan::AnalyzeLookup lookup =
      [&by_node](const std::string& name) -> const plan::AnalyzeNodeStats* {
    auto it = by_node.find(name);
    return it == by_node.end() ? nullptr : &it->second;
  };
  std::string out = "{\"queries\":[";
  for (size_t i = 0; i < analyze_plans_.size(); ++i) {
    if (i > 0) out += ",";
    out += plan::ExplainAnalyzeJson(analyze_plans_[i].planned,
                                    analyze_plans_[i].split, lookup, summary,
                                    opts);
  }
  out += "]}";
  return out;
}

}  // namespace gigascope::core
