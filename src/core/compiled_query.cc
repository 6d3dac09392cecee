#include "core/compiled_query.h"

#include "ops/aggregate.h"
#include "ops/join.h"
#include "ops/lfta_agg.h"
#include "ops/merge.h"
#include "ops/select_project.h"
#include "plan/ordering.h"

namespace gigascope::core {

namespace {

using expr::CompiledExpr;
using expr::IrPtr;
using plan::PlanKind;
using plan::PlanPtr;

/// The single input field an expression depends on, when its output order
/// was imputed as increasing-like — used for punctuation mapping.
int PunctuationSource(const IrPtr& ir, const gsql::OrderSpec& output_order) {
  if (!output_order.IsIncreasingLike()) return -1;
  std::vector<std::pair<size_t, size_t>> refs;
  expr::CollectFieldRefs(ir, &refs);
  if (refs.size() != 1 || refs[0].first != 0) return -1;
  return static_cast<int>(refs[0].second);
}

/// Resolves the stream name a plan child is read from. For operators the
/// name is synthesized from the parent's output name and child position.
Result<std::string> ChildStreamName(const PlanPtr& child,
                                    const std::string& parent_name,
                                    size_t index,
                                    InstantiationContext* ctx) {
  if (child->kind == PlanKind::kSource) {
    std::string name =
        child->source_is_protocol
            ? ProtocolStreamName(child->interface_name, child->source_stream)
            : child->source_stream;
    if (!ctx->registry->HasStream(name)) {
      return Status::NotFound(
          "query reads stream '" + name +
          "' which is not registered (did an upstream query register it?)");
    }
    return name;
  }
  return parent_name + "#" + std::to_string(index);
}

Result<std::optional<CompiledExpr>> CompileOptional(
    const IrPtr& ir, const std::vector<expr::Value>& param_values) {
  if (ir == nullptr) return std::optional<CompiledExpr>();
  GS_ASSIGN_OR_RETURN(CompiledExpr compiled,
                      expr::Compile(ir, param_values));
  return std::optional<CompiledExpr>(std::move(compiled));
}

uint64_t BandOf(const gsql::OrderSpec& order) {
  return order.kind == gsql::OrderKind::kBandedIncreasing ? order.band : 0;
}

/// The packet source that feeds an LFTA operator reading `child` in place,
/// or null when the operator reads `child` through a ring.
PacketSource* FeedingSource(const PlanPtr& child, InstantiationContext* ctx) {
  if (ctx->sources == nullptr || child->kind != PlanKind::kSource ||
      !child->source_is_protocol) {
    return nullptr;
  }
  auto it = ctx->sources->find(
      ProtocolStreamName(child->interface_name, child->source_stream));
  return it == ctx->sources->end() ? nullptr : it->second.get();
}

/// The ring an operator reads input `name` through, or null when `feeder`
/// feeds it in place.
Result<rts::Subscription> InputRing(const std::string& name,
                                    const PacketSource* feeder,
                                    InstantiationContext* ctx) {
  if (feeder != nullptr) return rts::Subscription();
  return ctx->registry->Subscribe(name, ctx->channel_capacity);
}

}  // namespace

std::string ProtocolStreamName(const std::string& interface_name,
                               const std::string& protocol) {
  return interface_name + "." + protocol;
}

Status InstantiatePlan(const plan::PlanPtr& node,
                       const std::string& output_name,
                       InstantiationContext* ctx) {
  if (node == nullptr) return Status::Internal("null plan node");
  if (node->kind == PlanKind::kSource) {
    return Status::Internal(
        "a bare Source plan has no operator to instantiate");
  }

  // Instantiate operator children and determine input stream names.
  std::vector<std::string> input_names;
  for (size_t i = 0; i < node->children.size(); ++i) {
    const PlanPtr& child = node->children[i];
    GS_ASSIGN_OR_RETURN(std::string child_name,
                        ChildStreamName(child, output_name, i, ctx));
    if (child->kind != PlanKind::kSource) {
      GS_RETURN_IF_ERROR(InstantiatePlan(child, child_name, ctx));
    }
    input_names.push_back(std::move(child_name));
  }

  // Declare this operator's output stream before wiring the node, so that
  // Publish() has a destination and downstream operators can subscribe.
  {
    gsql::StreamSchema named(output_name, gsql::StreamKind::kStream,
                             node->output_schema.fields());
    GS_RETURN_IF_ERROR(ctx->registry->DeclareStream(named));
  }

  switch (node->kind) {
    case PlanKind::kSelectProject: {
      ops::SelectProjectNode::Spec spec;
      spec.name = output_name;
      spec.output_batch = ctx->output_batch;
      GS_ASSIGN_OR_RETURN(spec.input_schema,
                          ctx->registry->GetSchema(input_names[0]));
      spec.output_schema = node->output_schema;
      GS_ASSIGN_OR_RETURN(spec.predicate,
                          CompileOptional(node->predicate,
                                          ctx->param_values));
      for (size_t i = 0; i < node->projections.size(); ++i) {
        GS_ASSIGN_OR_RETURN(CompiledExpr compiled,
                            expr::Compile(node->projections[i],
                                          ctx->param_values));
        spec.projections.push_back(std::move(compiled));
        spec.punctuation_source.push_back(PunctuationSource(
            node->projections[i], node->output_schema.field(i).order));
      }
      PacketSource* feeder = FeedingSource(node->children[0], ctx);
      GS_ASSIGN_OR_RETURN(rts::Subscription input,
                          InputRing(input_names[0], feeder, ctx));
      auto select = std::make_unique<ops::SelectProjectNode>(
          std::move(spec), std::move(input), ctx->registry, ctx->params);
      if (feeder != nullptr) feeder->AddFedNode(select.get());
      ctx->nodes->push_back(std::move(select));
      return Status::Ok();
    }

    case PlanKind::kAggregate: {
      ops::OrderedAggregateNode::Spec spec;
      spec.name = output_name;
      spec.output_batch = ctx->output_batch;
      GS_ASSIGN_OR_RETURN(spec.input_schema,
                          ctx->registry->GetSchema(input_names[0]));
      spec.output_schema = node->output_schema;
      // The aggregate's output schema is unnamed inside the plan; name it.
      spec.output_schema = gsql::StreamSchema(
          output_name, gsql::StreamKind::kStream,
          node->output_schema.fields());
      spec.ordered_key = node->ordered_key;
      spec.ordered_key_band = node->ordered_key_band;
      for (size_t k = 0; k < node->group_keys.size(); ++k) {
        GS_ASSIGN_OR_RETURN(CompiledExpr compiled,
                            expr::Compile(node->group_keys[k],
                                          ctx->param_values));
        spec.keys.push_back(std::move(compiled));
        spec.key_punctuation_source.push_back(PunctuationSource(
            node->group_keys[k],
            plan::ImputeExprOrder(node->group_keys[k], spec.input_schema)));
      }
      spec.agg_specs = node->aggregates;
      for (const expr::AggregateSpec& agg : node->aggregates) {
        if (agg.arg == nullptr) {
          spec.agg_args.emplace_back();
        } else {
          GS_ASSIGN_OR_RETURN(CompiledExpr compiled,
                              expr::Compile(agg.arg, ctx->param_values));
          spec.agg_args.emplace_back(std::move(compiled));
        }
      }
      PacketSource* feeder = ctx->use_lfta_table
                                 ? FeedingSource(node->children[0], ctx)
                                 : nullptr;
      GS_ASSIGN_OR_RETURN(rts::Subscription input,
                          InputRing(input_names[0], feeder, ctx));
      if (ctx->use_lfta_table) {
        auto lfta = std::make_unique<ops::LftaAggregateNode>(
            std::move(spec), ctx->lfta_hash_log2, std::move(input),
            ctx->registry, ctx->params, ctx->shed);
        if (feeder != nullptr) feeder->AddFedNode(lfta.get());
        ctx->nodes->push_back(std::move(lfta));
      } else {
        ctx->nodes->push_back(std::make_unique<ops::OrderedAggregateNode>(
            std::move(spec), std::move(input), ctx->registry, ctx->params));
      }
      return Status::Ok();
    }

    case PlanKind::kJoin: {
      ops::WindowJoinNode::Spec spec;
      spec.name = output_name;
      spec.output_batch = ctx->output_batch;
      GS_ASSIGN_OR_RETURN(spec.left_schema,
                          ctx->registry->GetSchema(input_names[0]));
      GS_ASSIGN_OR_RETURN(spec.right_schema,
                          ctx->registry->GetSchema(input_names[1]));
      spec.output_schema = gsql::StreamSchema(
          output_name, gsql::StreamKind::kStream,
          node->output_schema.fields());
      GS_ASSIGN_OR_RETURN(spec.predicate,
                          CompileOptional(node->join_predicate,
                                          ctx->param_values));
      spec.left_field = node->left_window_field;
      spec.right_field = node->right_window_field;
      spec.lo = node->window_lo;
      spec.hi = node->window_hi;
      spec.order_preserving = node->join_order_preserving;
      spec.left_band =
          BandOf(spec.left_schema.field(spec.left_field).order);
      spec.right_band =
          BandOf(spec.right_schema.field(spec.right_field).order);
      GS_ASSIGN_OR_RETURN(rts::Subscription left,
                          ctx->registry->Subscribe(input_names[0],
                                                   ctx->channel_capacity));
      GS_ASSIGN_OR_RETURN(rts::Subscription right,
                          ctx->registry->Subscribe(input_names[1],
                                                   ctx->channel_capacity));
      ctx->nodes->push_back(std::make_unique<ops::WindowJoinNode>(
          std::move(spec), std::move(left), std::move(right), ctx->registry,
          ctx->params));
      return Status::Ok();
    }

    case PlanKind::kMerge: {
      ops::MergeNode::Spec spec;
      spec.name = output_name;
      spec.output_batch = ctx->output_batch;
      spec.schema = gsql::StreamSchema(output_name, gsql::StreamKind::kStream,
                                       node->output_schema.fields());
      spec.merge_field = node->merge_field;
      spec.band = BandOf(node->output_schema.field(node->merge_field).order);
      std::vector<rts::Subscription> inputs;
      for (const std::string& input_name : input_names) {
        GS_ASSIGN_OR_RETURN(rts::Subscription input,
                            ctx->registry->Subscribe(input_name,
                                                     ctx->channel_capacity));
        inputs.push_back(std::move(input));
      }
      ctx->nodes->push_back(std::make_unique<ops::MergeNode>(
          std::move(spec), std::move(inputs), ctx->registry));
      return Status::Ok();
    }

    case PlanKind::kSource:
      break;
  }
  return Status::Internal("unhandled plan node kind");
}

}  // namespace gigascope::core
