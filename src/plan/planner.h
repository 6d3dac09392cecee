#ifndef GIGASCOPE_PLAN_PLANNER_H_
#define GIGASCOPE_PLAN_PLANNER_H_

#include <string>
#include <utility>
#include <vector>

#include "expr/typecheck.h"
#include "gsql/analyzer.h"
#include "plan/logical_plan.h"

namespace gigascope::plan {

/// Inputs shared by all planning entry points.
struct PlannerOptions {
  /// UDF registry; may be null for queries without function calls.
  const expr::FunctionResolver* resolver = nullptr;

  /// Declared query parameters in slot order (name, type).
  std::vector<std::pair<std::string, expr::DataType>> params;

  /// Join algorithm choice (§2.1, revisited as a research direction in
  /// §5): the order-preserving algorithm yields a monotone window
  /// attribute downstream at the cost of buffering completed matches;
  /// the eager algorithm emits immediately with banded output order.
  bool order_preserving_join = true;
};

/// A compiled logical plan for one GSQL query.
struct PlannedQuery {
  std::string name;          // from DEFINE, or synthesized
  PlanPtr root;
  /// The query's output schema, registered in the catalog under `name` so
  /// downstream queries can read it (§2.2 query composition).
  gsql::StreamSchema output_schema;

  /// True when an aggregation has no increasing-like group key: its state
  /// is unbounded and output appears only on flush. The paper permits but
  /// warns about such queries.
  bool unbounded_aggregation = false;
};

/// Plans a resolved SELECT: scan, aggregation, two-stream window join, or
/// GROUP BY over a join (aggregation of the join's flattened output).
///
/// Aggregation plans have the shape
///   Source -> Aggregate(where) -> SelectProject(final)
/// with the WHERE as the Aggregate's predicate, and AVG already decomposed
/// into SUM/COUNT and recombined in the final projection — the
/// normalization that makes every aggregate decomposable for the
/// LFTA/HFTA split.
Result<PlannedQuery> PlanSelect(const gsql::ResolvedSelect& resolved,
                                const PlannerOptions& options);

/// Plans a resolved MERGE into Source* -> Merge.
Result<PlannedQuery> PlanMerge(const gsql::ResolvedMerge& resolved,
                               const PlannerOptions& options);

}  // namespace gigascope::plan

#endif  // GIGASCOPE_PLAN_PLANNER_H_
