#include "plan/explain.h"

#include <cstdio>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "expr/cost.h"

namespace gigascope::plan {
namespace {

// Costs print via %g so integral estimates stay short ("5", not "5.000000")
// and the text is stable across platforms.
std::string FormatCost(double cost) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", cost);
  return buf;
}

/// Per-evaluation expression cost of one operator (arithmetic-op units,
/// the same scale as expr::kLftaCostBudget).
double NodeCost(const PlanNode& node) {
  double cost = 0;
  if (node.predicate != nullptr) cost += expr::EstimateCost(node.predicate);
  switch (node.kind) {
    case PlanKind::kSelectProject:
      for (const expr::IrPtr& p : node.projections) {
        cost += expr::EstimateCost(p);
      }
      break;
    case PlanKind::kAggregate:
      for (const expr::IrPtr& k : node.group_keys) {
        cost += expr::EstimateCost(k);
      }
      for (const expr::AggregateSpec& agg : node.aggregates) {
        if (agg.arg != nullptr) cost += expr::EstimateCost(agg.arg);
      }
      break;
    case PlanKind::kJoin:
      if (node.join_predicate != nullptr) {
        cost += expr::EstimateCost(node.join_predicate);
      }
      break;
    case PlanKind::kSource:
    case PlanKind::kMerge:
      break;
  }
  return cost;
}

std::string PlacementName(const SplitQuery& split) {
  if (split.lfta != nullptr && split.hfta != nullptr) return "split";
  if (split.lfta != nullptr) return "lfta-only";
  return "hfta-only";
}

/// Which OS process each half executes in under the paper's §4 process
/// model: the LFTA runs inside the RTS next to the capture loop, the HFTA
/// in a supervised worker process (engine --processes mode; a worker
/// thread or the inject thread stand in for it in the other pump modes).
std::string ProcessLine(const SplitQuery& split) {
  std::string out;
  if (split.lfta != nullptr) out += "lfta=rts";
  if (split.hfta != nullptr) {
    if (!out.empty()) out += " ";
    out += "hfta=worker-process";
  }
  return out;
}

std::string OrderingLine(const gsql::StreamSchema& schema) {
  std::string out;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const gsql::FieldDef& field = schema.field(i);
    if (i > 0) out += ", ";
    out += field.name;
    out += " ";
    out += gsql::DataTypeName(field.type);
    if (field.order.kind != gsql::OrderKind::kNone) {
      out += " [" + field.order.ToString() + "]";
    }
  }
  return out;
}

/// Shedding-ladder knobs that can act on this node when the overload
/// controller escalates (DESIGN.md §13): packet sources feel L1 1-in-k
/// sampling; LFTA aggregates (the direct-mapped table) feel L2 epoch
/// coarsening and the L3 occupancy cap. Empty for HFTA-placed nodes —
/// shedding happens at the low layer, where data reduction is cheapest.
std::vector<const char*> ShedEligible(const PlanNode& node,
                                      const char* placement) {
  std::vector<const char*> knobs;
  if (std::string_view(placement) != "lfta") return knobs;
  if (node.kind == PlanKind::kSource) knobs.push_back("source-sampling");
  if (node.kind == PlanKind::kAggregate) {
    knobs.push_back("epoch-coarsen");
    knobs.push_back("table-cap");
  }
  return knobs;
}

/// ANALYZE rendering state: the lookup resolving runtime node names to live
/// stats, and the masking options. Null when rendering plain EXPLAIN.
struct AnalyzeContext {
  const AnalyzeLookup* lookup;
  const AnalyzeOptions* opts;
};

/// The stream name a Source leaf reads at runtime (mirrors the engine's
/// ProtocolStreamName convention).
std::string SourceRuntimeName(const PlanNode& node) {
  if (node.source_is_protocol && !node.interface_name.empty()) {
    return node.interface_name + "." + node.source_stream;
  }
  return node.source_stream;
}

void AnalyzeNodeText(const AnalyzeContext& analyze,
                     const std::string& runtime_name, const std::string& pad2,
                     std::string* out) {
  const AnalyzeNodeStats* stats = (*analyze.lookup)(runtime_name);
  if (stats == nullptr) return;
  *out += pad2 + "actual: in=" + std::to_string(stats->tuples_in) +
          " out=" + std::to_string(stats->tuples_out) +
          " errors=" + std::to_string(stats->eval_errors) + "\n";
  *out += pad2 + "proc: " + stats->proc;
  if (stats->restarts > 0) {
    *out += " (restarts " + std::to_string(stats->restarts) + ")";
  }
  *out += "\n";
  if (stats->has_ring) {
    *out += pad2 + "ring: pushed=" + std::to_string(stats->ring_pushed) +
            " popped=" + std::to_string(stats->ring_popped) +
            " dropped=" + std::to_string(stats->ring_dropped);
    if (!analyze.opts->mask_volatile) {
      *out += " size=" + std::to_string(stats->ring_size) +
              " high-water=" + std::to_string(stats->ring_high_water);
    }
    *out += "\n";
  }
  if (!analyze.opts->mask_volatile) {
    *out += pad2 + "timing: poll p50=" + std::to_string(stats->poll_ns_p50) +
            "ns p99=" + std::to_string(stats->poll_ns_p99) +
            "ns, per-tuple p50=" + std::to_string(stats->tuple_ns_p50) +
            "ns p99=" + std::to_string(stats->tuple_ns_p99) + "ns\n";
  }
}

void ExplainNodeText(const PlanNode& node, const char* placement,
                     const std::string& runtime_name,
                     const AnalyzeContext* analyze, int indent,
                     std::string* out) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  const std::string pad2 = pad + "  ";
  *out += pad;
  *out += PlanKindName(node.kind);
  *out += " @";
  *out += placement;
  *out += "\n";
  if (node.predicate != nullptr) {
    *out += pad2 + "where: " + node.predicate->ToString() + " (cost " +
            FormatCost(expr::EstimateCost(node.predicate)) + ")\n";
  }
  switch (node.kind) {
    case PlanKind::kSource:
      *out += pad2 + "stream: " + node.source_stream;
      if (!node.interface_name.empty()) {
        *out += " (interface " + node.interface_name + ")";
      }
      *out += "\n";
      break;
    case PlanKind::kSelectProject: {
      std::string projections;
      for (size_t i = 0; i < node.projections.size(); ++i) {
        if (i > 0) projections += ", ";
        projections += node.projections[i]->ToString();
      }
      *out += pad2 + "project: [" + projections + "]\n";
      break;
    }
    case PlanKind::kAggregate: {
      std::string keys;
      for (size_t i = 0; i < node.group_keys.size(); ++i) {
        if (i > 0) keys += ", ";
        keys += node.group_keys[i]->ToString();
      }
      *out += pad2 + "group-by: [" + keys + "]\n";
      std::string aggs;
      for (size_t i = 0; i < node.aggregates.size(); ++i) {
        if (i > 0) aggs += ", ";
        aggs += node.aggregates[i].ToString();
      }
      *out += pad2 + "aggregates: [" + aggs + "]\n";
      if (node.ordered_key >= 0) {
        *out += pad2 + "ordered-key: group key " +
                std::to_string(node.ordered_key);
        if (node.ordered_key_band > 0) {
          *out += " (band " + std::to_string(node.ordered_key_band) + ")";
        }
        *out += "\n";
      } else {
        *out += pad2 + "ordered-key: none (unbounded state)\n";
      }
      break;
    }
    case PlanKind::kJoin:
      *out += pad2 + "window: left[" +
              std::to_string(node.left_window_field) + "] - right[" +
              std::to_string(node.right_window_field) + "] in [" +
              std::to_string(node.window_lo) + ", " +
              std::to_string(node.window_hi) + "]\n";
      if (node.join_predicate != nullptr) {
        *out += pad2 + "on: " + node.join_predicate->ToString() + "\n";
      }
      *out += pad2 + "algorithm: ";
      *out += node.join_order_preserving ? "order-preserving" : "eager";
      *out += "\n";
      break;
    case PlanKind::kMerge:
      *out += pad2 + "merge-field: " + std::to_string(node.merge_field) +
              "\n";
      break;
  }
  if (node.kind != PlanKind::kSource) {
    *out += pad2 + "cost: " + FormatCost(NodeCost(node)) + " (lfta budget " +
            FormatCost(expr::kLftaCostBudget) + ")\n";
  }
  const std::vector<const char*> shed = ShedEligible(node, placement);
  if (!shed.empty()) {
    *out += pad2 + "shed-eligible: ";
    for (size_t i = 0; i < shed.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += shed[i];
    }
    *out += "\n";
  }
  *out += pad2 + "output: " + OrderingLine(node.output_schema) + "\n";
  if (analyze != nullptr) {
    AnalyzeNodeText(*analyze, runtime_name, pad2, out);
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    const PlanPtr& child = node.children[i];
    const std::string child_name =
        child->kind == PlanKind::kSource
            ? SourceRuntimeName(*child)
            : runtime_name + "#" + std::to_string(i);
    ExplainNodeText(*child, placement, child_name, analyze, indent + 1,
                    out);
  }
}

void AnalyzeNodeJson(const AnalyzeContext& analyze,
                     const std::string& runtime_name, std::string* out) {
  const AnalyzeNodeStats* stats = (*analyze.lookup)(runtime_name);
  if (stats == nullptr) return;
  *out += ",\"actual\":{\"node\":" + JsonQuote(runtime_name);
  *out += ",\"proc\":" + JsonQuote(stats->proc);
  *out += ",\"restarts\":" + std::to_string(stats->restarts);
  *out += ",\"tuples_in\":" + std::to_string(stats->tuples_in);
  *out += ",\"tuples_out\":" + std::to_string(stats->tuples_out);
  *out += ",\"eval_errors\":" + std::to_string(stats->eval_errors);
  if (stats->has_ring) {
    *out += ",\"ring\":{\"pushed\":" + std::to_string(stats->ring_pushed) +
            ",\"popped\":" + std::to_string(stats->ring_popped) +
            ",\"dropped\":" + std::to_string(stats->ring_dropped);
    if (!analyze.opts->mask_volatile) {
      *out += ",\"size\":" + std::to_string(stats->ring_size) +
              ",\"high_water\":" + std::to_string(stats->ring_high_water);
    }
    *out += "}";
  }
  if (!analyze.opts->mask_volatile) {
    *out += ",\"timing\":{\"poll_ns_p50\":" +
            std::to_string(stats->poll_ns_p50) + ",\"poll_ns_p99\":" +
            std::to_string(stats->poll_ns_p99) + ",\"tuple_ns_p50\":" +
            std::to_string(stats->tuple_ns_p50) + ",\"tuple_ns_p99\":" +
            std::to_string(stats->tuple_ns_p99) + "}";
  }
  *out += "}";
}

void ExplainNodeJson(const PlanNode& node, const char* placement,
                     const std::string& runtime_name,
                     const AnalyzeContext* analyze, std::string* out) {
  *out += "{\"op\":";
  *out += JsonQuote(PlanKindName(node.kind));
  *out += ",\"placement\":";
  *out += JsonQuote(placement);
  if (node.predicate != nullptr) {
    *out += ",\"where\":" + JsonQuote(node.predicate->ToString());
  }
  switch (node.kind) {
    case PlanKind::kSource:
      *out += ",\"stream\":" + JsonQuote(node.source_stream);
      if (!node.interface_name.empty()) {
        *out += ",\"interface\":" + JsonQuote(node.interface_name);
      }
      break;
    case PlanKind::kSelectProject: {
      *out += ",\"projections\":[";
      for (size_t i = 0; i < node.projections.size(); ++i) {
        if (i > 0) *out += ",";
        *out += JsonQuote(node.projections[i]->ToString());
      }
      *out += "]";
      break;
    }
    case PlanKind::kAggregate: {
      *out += ",\"group_keys\":[";
      for (size_t i = 0; i < node.group_keys.size(); ++i) {
        if (i > 0) *out += ",";
        *out += JsonQuote(node.group_keys[i]->ToString());
      }
      *out += "],\"aggregates\":[";
      for (size_t i = 0; i < node.aggregates.size(); ++i) {
        if (i > 0) *out += ",";
        *out += JsonQuote(node.aggregates[i].ToString());
      }
      *out += "],\"ordered_key\":" + std::to_string(node.ordered_key);
      *out += ",\"ordered_key_band\":" +
              std::to_string(node.ordered_key_band);
      break;
    }
    case PlanKind::kJoin:
      *out += ",\"window\":{\"left_field\":" +
              std::to_string(node.left_window_field) + ",\"right_field\":" +
              std::to_string(node.right_window_field) + ",\"lo\":" +
              std::to_string(node.window_lo) + ",\"hi\":" +
              std::to_string(node.window_hi) + "}";
      if (node.join_predicate != nullptr) {
        *out += ",\"on\":" + JsonQuote(node.join_predicate->ToString());
      }
      *out += ",\"algorithm\":";
      *out += node.join_order_preserving ? "\"order-preserving\""
                                         : "\"eager\"";
      break;
    case PlanKind::kMerge:
      *out += ",\"merge_field\":" + std::to_string(node.merge_field);
      break;
  }
  *out += ",\"cost\":" + FormatCost(NodeCost(node));
  const std::vector<const char*> shed = ShedEligible(node, placement);
  if (!shed.empty()) {
    *out += ",\"shed_eligible\":[";
    for (size_t i = 0; i < shed.size(); ++i) {
      if (i > 0) *out += ",";
      *out += JsonQuote(shed[i]);
    }
    *out += "]";
  }
  *out += ",\"output\":[";
  for (size_t i = 0; i < node.output_schema.num_fields(); ++i) {
    const gsql::FieldDef& field = node.output_schema.field(i);
    if (i > 0) *out += ",";
    *out += "{\"name\":" + JsonQuote(field.name) + ",\"type\":" +
            JsonQuote(gsql::DataTypeName(field.type)) + ",\"order\":" +
            JsonQuote(field.order.ToString()) + "}";
  }
  *out += "]";
  if (analyze != nullptr) {
    AnalyzeNodeJson(*analyze, runtime_name, out);
  }
  *out += ",\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ",";
    const PlanPtr& child = node.children[i];
    const std::string child_name =
        child->kind == PlanKind::kSource
            ? SourceRuntimeName(*child)
            : runtime_name + "#" + std::to_string(i);
    ExplainNodeJson(*child, placement, child_name, analyze, out);
  }
  *out += "]}";
}

/// The runtime name of the LFTA plan's root node: the query's public name
/// when the whole query is the LFTA, else the mangled LFTA stream name.
std::string LftaRootName(const SplitQuery& split) {
  return split.hfta != nullptr ? split.lfta_name : split.name;
}

std::string ExplainTextImpl(const PlannedQuery& planned,
                            const SplitQuery& split,
                            const AnalyzeContext* analyze,
                            const AnalyzeSummary* summary) {
  std::string out;
  out += "query: " + split.name + "\n";
  out += "placement: " + PlacementName(split) + "\n";
  out += "process: " + ProcessLine(split) + "\n";
  out += std::string("split-aggregation: ") +
         (split.split_aggregation ? "yes" : "no") + "\n";
  out += std::string("unbounded-aggregation: ") +
         (planned.unbounded_aggregation ? "yes" : "no") + "\n";
  if (split.has_nic_program) {
    out += "nic-filter: yes (snap_len " + std::to_string(split.snap_len) +
           ")\n";
  } else {
    out += "nic-filter: no\n";
  }
  if (summary != nullptr) {
    out += "analyze: pump=" + summary->pump_mode +
           " shed-level=" + std::to_string(summary->shed_level) +
           " worker-restarts=" + std::to_string(summary->worker_restarts) +
           " workers-degraded=" + std::to_string(summary->workers_degraded) +
           " trace-truncated=" + std::to_string(summary->trace_truncated) +
           "\n";
  }
  if (split.hfta != nullptr) {
    out += "hfta:\n";
    ExplainNodeText(*split.hfta, "hfta", split.name, analyze, 1, &out);
  }
  if (split.lfta != nullptr) {
    if (split.hfta != nullptr) {
      out += "lfta (publishes " + split.lfta_name + "):\n";
    } else {
      out += "lfta:\n";
    }
    ExplainNodeText(*split.lfta, "lfta", LftaRootName(split), analyze, 1,
                    &out);
  }
  return out;
}

std::string ExplainJsonImpl(const PlannedQuery& planned,
                            const SplitQuery& split,
                            const AnalyzeContext* analyze,
                            const AnalyzeSummary* summary) {
  std::string out = "{\"query\":" + JsonQuote(split.name);
  out += ",\"placement\":" + JsonQuote(PlacementName(split));
  out += ",\"process\":{\"lfta\":";
  out += split.lfta != nullptr ? "\"rts\"" : "null";
  out += ",\"hfta\":";
  out += split.hfta != nullptr ? "\"worker-process\"" : "null";
  out += "}";
  out += std::string(",\"split_aggregation\":") +
         (split.split_aggregation ? "true" : "false");
  out += std::string(",\"unbounded_aggregation\":") +
         (planned.unbounded_aggregation ? "true" : "false");
  out += std::string(",\"nic_filter\":") +
         (split.has_nic_program ? "true" : "false");
  out += ",\"snap_len\":" + std::to_string(split.snap_len);
  if (summary != nullptr) {
    out += ",\"analyze\":{\"pump\":" + JsonQuote(summary->pump_mode);
    out += ",\"shed_level\":" + std::to_string(summary->shed_level);
    out += ",\"worker_restarts\":" + std::to_string(summary->worker_restarts);
    out +=
        ",\"workers_degraded\":" + std::to_string(summary->workers_degraded);
    out += ",\"trace_truncated\":" + std::to_string(summary->trace_truncated);
    out += "}";
  }
  if (split.hfta != nullptr) {
    out += ",\"hfta\":";
    ExplainNodeJson(*split.hfta, "hfta", split.name, analyze, &out);
  } else {
    out += ",\"hfta\":null";
  }
  if (split.lfta != nullptr) {
    out += ",\"lfta_stream\":" +
           JsonQuote(split.hfta != nullptr ? split.lfta_name : split.name);
    out += ",\"lfta\":";
    ExplainNodeJson(*split.lfta, "lfta", LftaRootName(split), analyze,
                    &out);
  } else {
    out += ",\"lfta\":null";
  }
  out += "}";
  return out;
}

}  // namespace

std::string ExplainText(const PlannedQuery& planned, const SplitQuery& split) {
  return ExplainTextImpl(planned, split, nullptr, nullptr);
}

std::string ExplainJson(const PlannedQuery& planned, const SplitQuery& split) {
  return ExplainJsonImpl(planned, split, nullptr, nullptr);
}

std::string ExplainAnalyzeText(const PlannedQuery& planned,
                               const SplitQuery& split,
                               const AnalyzeLookup& lookup,
                               const AnalyzeSummary& summary,
                               const AnalyzeOptions& opts) {
  AnalyzeContext analyze{&lookup, &opts};
  return ExplainTextImpl(planned, split, &analyze, &summary);
}

std::string ExplainAnalyzeJson(const PlannedQuery& planned,
                               const SplitQuery& split,
                               const AnalyzeLookup& lookup,
                               const AnalyzeSummary& summary,
                               const AnalyzeOptions& opts) {
  AnalyzeContext analyze{&lookup, &opts};
  return ExplainJsonImpl(planned, split, &analyze, &summary);
}

}  // namespace gigascope::plan
