#include "plan/logical_plan.h"

namespace gigascope::plan {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSource: return "Source";
    case PlanKind::kSelectProject: return "SelectProject";
    case PlanKind::kAggregate: return "Aggregate";
    case PlanKind::kJoin: return "Join";
    case PlanKind::kMerge: return "Merge";
  }
  return "?";
}

std::string PlanNode::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + PlanKindName(kind);
  if (predicate != nullptr) out += " where " + predicate->ToString();
  switch (kind) {
    case PlanKind::kSource:
      out += " " + source_stream;
      if (!interface_name.empty()) out += " @" + interface_name;
      break;
    case PlanKind::kSelectProject:
      out += " -> [";
      for (size_t i = 0; i < projections.size(); ++i) {
        if (i > 0) out += ", ";
        out += projections[i]->ToString();
      }
      out += "]";
      break;
    case PlanKind::kAggregate: {
      out += " by [";
      for (size_t i = 0; i < group_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += group_keys[i]->ToString();
      }
      out += "] agg [";
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0) out += ", ";
        out += aggregates[i].ToString();
      }
      out += "]";
      if (ordered_key >= 0) {
        out += " ordered_key=" + std::to_string(ordered_key);
      } else {
        out += " UNBOUNDED";
      }
      break;
    }
    case PlanKind::kJoin:
      out += " window[" + std::to_string(window_lo) + "," +
             std::to_string(window_hi) + "]";
      if (join_predicate != nullptr) {
        out += " on " + join_predicate->ToString();
      }
      break;
    case PlanKind::kMerge:
      out += " on field " + std::to_string(merge_field);
      break;
  }
  out += "  :: " + output_schema.ToString() + "\n";
  for (const PlanPtr& child : children) {
    out += child->ToString(indent + 1);
  }
  return out;
}

PlanPtr MakeSourceNode(const gsql::StreamSchema& schema,
                       const std::string& interface_name) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kSource;
  node->output_schema = schema;
  node->source_stream = schema.name();
  node->interface_name = interface_name;
  node->source_is_protocol = schema.kind() == gsql::StreamKind::kProtocol;
  return node;
}

PlanPtr MakeSelectProjectNode(PlanPtr child, expr::IrPtr predicate,
                              std::vector<expr::IrPtr> projections,
                              gsql::StreamSchema output_schema) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kSelectProject;
  node->children.push_back(std::move(child));
  node->predicate = std::move(predicate);
  node->projections = std::move(projections);
  node->output_schema = std::move(output_schema);
  return node;
}

size_t PlanSize(const PlanPtr& plan) {
  if (plan == nullptr) return 0;
  size_t size = 1;
  for (const PlanPtr& child : plan->children) size += PlanSize(child);
  return size;
}

}  // namespace gigascope::plan
