#include "plan/planner.h"

#include <algorithm>

#include "expr/fold.h"
#include "plan/ordering.h"
#include "plan/window.h"

namespace gigascope::plan {

namespace {

using expr::AggFn;
using expr::AggregateSpec;
using expr::IrKind;
using expr::IrPtr;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::SelectItem;
using gsql::StreamKind;
using gsql::StreamSchema;

std::string DefaultFieldName(const gsql::ExprPtr& expr, size_t index) {
  if (auto* ref = std::get_if<gsql::ColumnRefExpr>(&expr->node)) {
    return ref->column;
  }
  // Unaliased aggregates read better as count/sum_len/... than fN.
  if (auto* call = std::get_if<gsql::CallExpr>(&expr->node)) {
    if (call->star || call->args.empty()) return call->function;
    if (auto* arg =
            std::get_if<gsql::ColumnRefExpr>(&call->args[0]->node)) {
      return call->function + "_" + arg->column;
    }
    return call->function;
  }
  return "f" + std::to_string(index);
}

std::string ItemName(const SelectItem& item, size_t index) {
  return item.alias.empty() ? DefaultFieldName(item.expr, index) : item.alias;
}

/// Output field names must be unique; `SELECT s.time, f.time` derives
/// "time" twice, so later duplicates get a positional suffix.
void UniquifyFieldNames(std::vector<FieldDef>* fields) {
  for (size_t i = 0; i < fields->size(); ++i) {
    bool duplicate = false;
    for (size_t j = 0; j < i; ++j) {
      if ((*fields)[j].name == (*fields)[i].name) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      (*fields)[i].name += "_" + std::to_string(i);
    }
  }
}

Result<AggFn> ParseAggFn(const std::string& name) {
  if (name == "count") return AggFn::kCount;
  if (name == "sum") return AggFn::kSum;
  if (name == "min") return AggFn::kMin;
  if (name == "max") return AggFn::kMax;
  if (name == "avg") return AggFn::kAvg;
  return Status::Internal("not an aggregate: " + name);
}

DataType AggResultType(AggFn fn, DataType arg_type) {
  switch (fn) {
    case AggFn::kCount:
      return DataType::kUint;
    case AggFn::kSum:
      return arg_type == DataType::kFloat ? DataType::kFloat
             : arg_type == DataType::kInt ? DataType::kInt
                                          : DataType::kUint;
    case AggFn::kMin:
    case AggFn::kMax:
      return arg_type;
    case AggFn::kAvg:
      return DataType::kFloat;
  }
  return DataType::kUint;
}

/// Builds the query's plan above the source (or join) for an aggregation
/// query. Shared with the splitter via the plan structure.
class AggregationBuilder {
 public:
  AggregationBuilder(const gsql::ResolvedSelect& resolved,
                     const expr::TypeCheckContext& input_ctx)
      : resolved_(resolved), input_ctx_(input_ctx) {}

  Result<PlanPtr> Build(PlanPtr input);

 private:
  /// Adds an aggregate spec, deduplicating structurally identical ones.
  /// Returns its index in specs_.
  Result<size_t> AddAggregate(AggFn fn, const gsql::CallExpr& call);

  /// Lowers a post-aggregation AST expression (a SELECT item or HAVING)
  /// into IR over the Aggregate node's output schema. Supported shapes:
  /// group keys (by alias or identical text), aggregate calls, literals,
  /// parameters, and arithmetic/comparison/logic over those.
  Result<IrPtr> LowerPostAgg(const gsql::ExprPtr& expr);

  std::optional<size_t> MatchGroupKey(const gsql::ExprPtr& expr) const;

  const gsql::ResolvedSelect& resolved_;
  const expr::TypeCheckContext& input_ctx_;

  std::vector<IrPtr> key_irs_;
  std::vector<std::string> key_names_;
  std::vector<AggregateSpec> specs_;
  std::vector<std::string> spec_texts_;  // for dedup
  StreamSchema agg_schema_;              // keys then aggregates
};

std::optional<size_t> AggregationBuilder::MatchGroupKey(
    const gsql::ExprPtr& expr) const {
  const auto& keys = resolved_.stmt.group_by;
  // By alias: a bare column ref naming a key's alias.
  if (auto* ref = std::get_if<gsql::ColumnRefExpr>(&expr->node)) {
    if (ref->stream.empty()) {
      for (size_t k = 0; k < keys.size(); ++k) {
        if (!keys[k].alias.empty() && keys[k].alias == ref->column) return k;
      }
    }
  }
  // By identical expression text.
  std::string text = expr->ToString();
  for (size_t k = 0; k < keys.size(); ++k) {
    if (keys[k].expr->ToString() == text) return k;
  }
  return std::nullopt;
}

Result<size_t> AggregationBuilder::AddAggregate(AggFn fn,
                                                const gsql::CallExpr& call) {
  AggregateSpec spec;
  spec.fn = fn;
  if (call.star || call.args.empty()) {
    if (fn != AggFn::kCount) {
      return Status::PlanError(std::string(expr::AggFnName(fn)) +
                               " requires an argument");
    }
    spec.arg = nullptr;
    spec.result_type = DataType::kUint;
  } else {
    if (call.args.size() != 1) {
      return Status::PlanError("aggregates take exactly one argument");
    }
    GS_ASSIGN_OR_RETURN(spec.arg, expr::TypeCheck(call.args[0], input_ctx_));
    spec.arg = expr::FoldConstants(spec.arg);
    if (fn != AggFn::kCount && fn != AggFn::kMin && fn != AggFn::kMax &&
        !expr::IsNumericType(spec.arg->type)) {
      return Status::TypeError(std::string(expr::AggFnName(fn)) +
                               " requires a numeric argument");
    }
    spec.result_type = AggResultType(fn, spec.arg->type);
  }
  std::string text = spec.ToString();
  for (size_t i = 0; i < spec_texts_.size(); ++i) {
    if (spec_texts_[i] == text) return i;
  }
  specs_.push_back(std::move(spec));
  spec_texts_.push_back(std::move(text));
  return specs_.size() - 1;
}

Result<IrPtr> AggregationBuilder::LowerPostAgg(const gsql::ExprPtr& expr) {
  // Group key?
  if (auto key = MatchGroupKey(expr)) {
    return expr::MakeFieldRef(0, *key, key_irs_[*key]->type,
                              key_names_[*key]);
  }
  // Aggregate call?
  if (auto* call = std::get_if<gsql::CallExpr>(&expr->node)) {
    if (gsql::IsAggregateFunction(call->function)) {
      GS_ASSIGN_OR_RETURN(AggFn fn, ParseAggFn(call->function));
      if (fn == AggFn::kAvg) {
        // AVG(x) == SUM(x) / COUNT(*) — decompose so every stored
        // aggregate is decomposable for the LFTA/HFTA split.
        GS_ASSIGN_OR_RETURN(size_t sum_index, AddAggregate(AggFn::kSum, *call));
        gsql::CallExpr count_call;
        count_call.function = "count";
        count_call.star = true;
        GS_ASSIGN_OR_RETURN(size_t count_index,
                            AddAggregate(AggFn::kCount, count_call));
        IrPtr sum_ref = expr::MakeFieldRef(
            0, key_irs_.size() + sum_index, specs_[sum_index].result_type,
            "sum" + std::to_string(sum_index));
        IrPtr count_ref = expr::MakeFieldRef(
            0, key_irs_.size() + count_index, DataType::kUint,
            "cnt" + std::to_string(count_index));
        return expr::MakeBinaryIr(
            gsql::BinaryOp::kDiv, DataType::kFloat,
            expr::MakeCastIr(std::move(sum_ref), DataType::kFloat),
            expr::MakeCastIr(std::move(count_ref), DataType::kFloat));
      }
      GS_ASSIGN_OR_RETURN(size_t index, AddAggregate(fn, *call));
      return expr::MakeFieldRef(0, key_irs_.size() + index,
                                specs_[index].result_type,
                                "agg" + std::to_string(index));
    }
    return Status::PlanError(
        "scalar function '" + call->function +
        "' over aggregate results is not supported; compose a downstream "
        "query instead");
  }
  // Literals / params.
  if (std::get_if<gsql::LiteralExpr>(&expr->node) != nullptr ||
      std::get_if<gsql::ParamExpr>(&expr->node) != nullptr) {
    expr::TypeCheckContext empty_ctx;
    empty_ctx.params = input_ctx_.params;
    return expr::TypeCheck(expr, empty_ctx);
  }
  // Operators over lowered children.
  if (auto* unary = std::get_if<gsql::UnaryExpr>(&expr->node)) {
    GS_ASSIGN_OR_RETURN(IrPtr child, LowerPostAgg(unary->operand));
    if (unary->op == gsql::UnaryOp::kNot) {
      if (child->type != DataType::kBool) {
        return Status::TypeError("NOT requires a BOOL operand");
      }
      return expr::MakeUnaryIr(unary->op, DataType::kBool, std::move(child));
    }
    DataType type =
        child->type == DataType::kUint ? DataType::kInt : child->type;
    return expr::MakeUnaryIr(unary->op, type,
                             expr::MakeCastIr(std::move(child), type));
  }
  if (auto* binary = std::get_if<gsql::BinaryExpr>(&expr->node)) {
    GS_ASSIGN_OR_RETURN(IrPtr left, LowerPostAgg(binary->left));
    GS_ASSIGN_OR_RETURN(IrPtr right, LowerPostAgg(binary->right));
    using gsql::BinaryOp;
    BinaryOp op = binary->op;
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      if (left->type != DataType::kBool || right->type != DataType::kBool) {
        return Status::TypeError("logical operators require BOOL operands");
      }
      return expr::MakeBinaryIr(op, DataType::kBool, std::move(left),
                                std::move(right));
    }
    bool comparison = op == BinaryOp::kEq || op == BinaryOp::kNeq ||
                      op == BinaryOp::kLt || op == BinaryOp::kLe ||
                      op == BinaryOp::kGt || op == BinaryOp::kGe;
    GS_ASSIGN_OR_RETURN(DataType common,
                        expr::PromoteNumeric(left->type, right->type));
    left = expr::MakeCastIr(std::move(left), common);
    right = expr::MakeCastIr(std::move(right), common);
    return expr::MakeBinaryIr(op, comparison ? DataType::kBool : common,
                              std::move(left), std::move(right));
  }
  return Status::PlanError("unsupported expression over aggregate output: " +
                           expr->ToString());
}

Result<PlanPtr> AggregationBuilder::Build(PlanPtr input) {
  const gsql::SelectStmt& stmt = resolved_.stmt;
  const StreamSchema& input_schema = input->output_schema;

  // 1. Group keys.
  for (size_t k = 0; k < stmt.group_by.size(); ++k) {
    GS_ASSIGN_OR_RETURN(IrPtr key,
                        expr::TypeCheck(stmt.group_by[k].expr, input_ctx_));
    key = expr::FoldConstants(key);
    key_irs_.push_back(key);
    key_names_.push_back(ItemName(stmt.group_by[k], k));
  }

  // 2. Lower SELECT items and HAVING; this also collects aggregate specs.
  std::vector<IrPtr> final_projections;
  for (const SelectItem& item : stmt.items) {
    GS_ASSIGN_OR_RETURN(IrPtr projection, LowerPostAgg(item.expr));
    final_projections.push_back(std::move(projection));
  }
  IrPtr having;
  if (stmt.having != nullptr) {
    GS_ASSIGN_OR_RETURN(having, LowerPostAgg(stmt.having));
    if (having->type != DataType::kBool) {
      return Status::TypeError("HAVING must be a BOOL expression");
    }
  }
  if (specs_.empty()) {
    // Pure GROUP BY with no aggregates: count(*) keeps the operator
    // meaningful (every group emits once on close).
    AggregateSpec spec;
    spec.fn = AggFn::kCount;
    spec.result_type = DataType::kUint;
    specs_.push_back(spec);
    spec_texts_.push_back(spec.ToString());
  }

  // 3. The Aggregate node and its output schema: keys then aggregates.
  auto agg = std::make_shared<PlanNode>();
  agg->kind = PlanKind::kAggregate;
  agg->children.push_back(std::move(input));
  agg->group_keys = key_irs_;
  agg->aggregates = specs_;
  std::vector<FieldDef> agg_fields;
  for (size_t k = 0; k < key_irs_.size(); ++k) {
    OrderSpec order = ImputeAggregateKeyOrder(
        ImputeExprOrder(key_irs_[k], input_schema));
    agg_fields.push_back({key_names_[k], key_irs_[k]->type, order});
    if (agg->ordered_key < 0 && order.IsIncreasingLike()) {
      agg->ordered_key = static_cast<int>(k);
    }
  }
  // Re-derive the ordered key from the *input* ordering: group closing is
  // driven by the key expression's order over arriving tuples.
  agg->ordered_key = -1;
  for (size_t k = 0; k < key_irs_.size(); ++k) {
    OrderSpec key_order = ImputeExprOrder(key_irs_[k], input_schema);
    if (key_order.IsIncreasingLike()) {
      agg->ordered_key = static_cast<int>(k);
      agg->ordered_key_band =
          key_order.kind == gsql::OrderKind::kBandedIncreasing
              ? key_order.band
              : 0;
      break;
    }
  }
  for (size_t a = 0; a < specs_.size(); ++a) {
    agg_fields.push_back({"agg" + std::to_string(a), specs_[a].result_type,
                          OrderSpec::None()});
  }
  agg->output_schema = StreamSchema("", StreamKind::kStream,
                                    std::move(agg_fields));

  // 4. Final projection (+ HAVING) over the aggregate output.
  std::vector<FieldDef> out_fields;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    OrderSpec order =
        ImputeExprOrder(final_projections[i], agg->output_schema);
    out_fields.push_back(
        {ItemName(stmt.items[i], i), final_projections[i]->type, order});
  }
  UniquifyFieldNames(&out_fields);
  return MakeSelectProjectNode(
      agg, std::move(having), std::move(final_projections),
      StreamSchema("", StreamKind::kStream, std::move(out_fields)));
}

}  // namespace

Result<PlannedQuery> PlanSelect(const gsql::ResolvedSelect& resolved,
                                const PlannerOptions& options) {
  const gsql::SelectStmt& stmt = resolved.stmt;

  expr::TypeCheckContext ctx;
  for (const gsql::ResolvedInput& input : resolved.inputs) {
    ctx.inputs.push_back(input.schema);
  }
  ctx.bindings = &resolved.bindings;
  ctx.resolver = options.resolver;
  ctx.params = options.params;

  PlannedQuery planned;
  planned.name = stmt.define.query_name.empty() ? "query"
                                                : stmt.define.query_name;

  if (resolved.is_join()) {
    if (stmt.where == nullptr) {
      return Status::PlanError("a join requires a WHERE clause with a window "
                               "constraint on ordered attributes");
    }
    GS_ASSIGN_OR_RETURN(IrPtr predicate,
                        expr::TypeCheckPredicate(stmt.where, ctx));
    predicate = expr::FoldConstants(predicate);
    GS_ASSIGN_OR_RETURN(
        JoinWindow window,
        ExtractJoinWindow(predicate, resolved.inputs[0].schema,
                          resolved.inputs[1].schema));

    auto join = std::make_shared<PlanNode>();
    join->kind = PlanKind::kJoin;
    for (const gsql::ResolvedInput& input : resolved.inputs) {
      join->children.push_back(
          MakeSourceNode(input.schema, input.interface_name));
    }
    // Only the residual conjuncts are re-evaluated per pair; the window
    // constraints themselves are enforced by the join operator in signed
    // arithmetic (unsigned re-evaluation would underflow near zero).
    join->join_predicate = AndTogether(window.residual);
    join->left_window_field = window.left_field;
    join->right_window_field = window.right_field;
    join->window_lo = window.lo;
    join->window_hi = window.hi;
    join->join_order_preserving = options.order_preserving_join;

    // Join output: left fields then right fields, prefixed on collision.
    const StreamSchema& left = resolved.inputs[0].schema;
    const StreamSchema& right = resolved.inputs[1].schema;
    std::vector<FieldDef> joined;
    OrderSpec joined_order = ImputeJoinOrder(
        left.field(window.left_field).order,
        right.field(window.right_field).order, window.width(),
        options.order_preserving_join);
    for (size_t f = 0; f < left.num_fields(); ++f) {
      FieldDef field = left.field(f);
      field.order =
          f == window.left_field ? joined_order : OrderSpec::None();
      joined.push_back(std::move(field));
    }
    for (size_t f = 0; f < right.num_fields(); ++f) {
      FieldDef field = right.field(f);
      if (left.FieldIndex(field.name).has_value()) {
        field.name = resolved.inputs[1].ref.effective_name() + "_" +
                     field.name;
      }
      field.order = OrderSpec::None();
      joined.push_back(std::move(field));
    }
    join->output_schema =
        StreamSchema("", StreamKind::kStream, std::move(joined));

    // Remap two-input references to the concatenated join row.
    size_t left_count = left.num_fields();
    auto remap = [left_count](size_t input, size_t field) {
      return std::make_pair<size_t, size_t>(
          0, input == 0 ? field : left_count + field);
    };

    if (resolved.is_aggregation()) {
      // GROUP BY over a join: aggregate the join's flattened output. The
      // builder type-checks keys/arguments against the two inputs; remap
      // them onto the joined row afterwards, then re-derive the ordered
      // key (the join result's window attribute drives group closing).
      AggregationBuilder builder(resolved, ctx);
      GS_ASSIGN_OR_RETURN(planned.root, builder.Build(join));
      PlanNode& agg = *planned.root->children[0];
      for (IrPtr& key : agg.group_keys) {
        key = expr::CloneIr(key, remap);
      }
      for (expr::AggregateSpec& spec : agg.aggregates) {
        if (spec.arg != nullptr) spec.arg = expr::CloneIr(spec.arg, remap);
      }
      agg.ordered_key = -1;
      agg.ordered_key_band = 0;
      std::vector<FieldDef> agg_fields = agg.output_schema.fields();
      for (size_t k = 0; k < agg.group_keys.size(); ++k) {
        OrderSpec key_order =
            ImputeExprOrder(agg.group_keys[k], join->output_schema);
        agg_fields[k].order = ImputeAggregateKeyOrder(key_order);
        if (agg.ordered_key < 0 && key_order.IsIncreasingLike()) {
          agg.ordered_key = static_cast<int>(k);
          agg.ordered_key_band =
              key_order.kind == gsql::OrderKind::kBandedIncreasing
                  ? key_order.band
                  : 0;
        }
      }
      agg.output_schema = StreamSchema(
          agg.output_schema.name(), StreamKind::kStream, agg_fields);
      // The final projection's key-field orders follow the recomputed agg
      // schema (field refs into it impute directly).
      std::vector<FieldDef> final_fields =
          planned.root->output_schema.fields();
      for (size_t i = 0; i < planned.root->projections.size(); ++i) {
        final_fields[i].order = ImputeExprOrder(
            planned.root->projections[i], agg.output_schema);
      }
      planned.unbounded_aggregation = agg.ordered_key < 0;
      planned.output_schema = StreamSchema(planned.name, StreamKind::kStream,
                                           std::move(final_fields));
      planned.root->output_schema = planned.output_schema;
      return planned;
    }

    std::vector<IrPtr> projections;
    std::vector<FieldDef> out_fields;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      GS_ASSIGN_OR_RETURN(IrPtr item,
                          expr::TypeCheck(stmt.items[i].expr, ctx));
      item = expr::FoldConstants(item);
      IrPtr remapped = expr::CloneIr(item, remap);
      OrderSpec order = ImputeExprOrder(remapped, join->output_schema);
      out_fields.push_back({ItemName(stmt.items[i], i), remapped->type,
                            order});
      projections.push_back(std::move(remapped));
    }
    UniquifyFieldNames(&out_fields);
    planned.root = MakeSelectProjectNode(
        join, nullptr, std::move(projections),
        StreamSchema(planned.name, StreamKind::kStream,
                     std::move(out_fields)));
    planned.output_schema = planned.root->output_schema;
    return planned;
  }

  // Single-input queries: the operator over the source runs the WHERE.
  PlanPtr source = MakeSourceNode(resolved.inputs[0].schema,
                                  resolved.inputs[0].interface_name);
  IrPtr where;
  if (stmt.where != nullptr) {
    GS_ASSIGN_OR_RETURN(where, expr::TypeCheckPredicate(stmt.where, ctx));
    where = expr::FoldConstants(where);
  }

  if (resolved.is_aggregation()) {
    AggregationBuilder builder(resolved, ctx);
    GS_ASSIGN_OR_RETURN(planned.root, builder.Build(source));
    PlanNode& agg = *planned.root->children[0];
    agg.predicate = std::move(where);
    planned.unbounded_aggregation = agg.ordered_key < 0;
  } else {
    std::vector<IrPtr> projections;
    std::vector<FieldDef> out_fields;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      GS_ASSIGN_OR_RETURN(IrPtr item,
                          expr::TypeCheck(stmt.items[i].expr, ctx));
      item = expr::FoldConstants(item);
      OrderSpec order = ImputeExprOrder(item, source->output_schema);
      out_fields.push_back({ItemName(stmt.items[i], i), item->type, order});
      projections.push_back(std::move(item));
    }
    UniquifyFieldNames(&out_fields);
    planned.root = MakeSelectProjectNode(
        source, std::move(where), std::move(projections),
        StreamSchema("", StreamKind::kStream, std::move(out_fields)));
  }

  // Name the output schema after the query.
  {
    std::vector<FieldDef> fields = planned.root->output_schema.fields();
    planned.output_schema =
        StreamSchema(planned.name, StreamKind::kStream, std::move(fields));
    planned.root->output_schema = planned.output_schema;
  }
  return planned;
}

Result<PlannedQuery> PlanMerge(const gsql::ResolvedMerge& resolved,
                               const PlannerOptions& options) {
  (void)options;
  PlannedQuery planned;
  planned.name = resolved.stmt.define.query_name.empty()
                     ? "merge"
                     : resolved.stmt.define.query_name;

  auto merge = std::make_shared<PlanNode>();
  merge->kind = PlanKind::kMerge;
  merge->merge_field = resolved.merge_fields[0];

  OrderSpec order = resolved.inputs[0]
                        .schema.field(resolved.merge_fields[0])
                        .order;
  for (const gsql::ResolvedInput& input : resolved.inputs) {
    merge->children.push_back(
        MakeSourceNode(input.schema, input.interface_name));
    order = WeakestCommonOrder(
        order, input.schema.field(resolved.merge_fields[0]).order);
  }

  std::vector<FieldDef> fields = resolved.inputs[0].schema.fields();
  for (size_t f = 0; f < fields.size(); ++f) {
    fields[f].order = f == merge->merge_field ? order : OrderSpec::None();
  }
  merge->output_schema =
      StreamSchema(planned.name, StreamKind::kStream, std::move(fields));
  planned.root = merge;
  planned.output_schema = merge->output_schema;
  return planned;
}

}  // namespace gigascope::plan
