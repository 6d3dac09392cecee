#ifndef GIGASCOPE_PLAN_LOGICAL_PLAN_H_
#define GIGASCOPE_PLAN_LOGICAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/ir.h"
#include "gsql/schema.h"

namespace gigascope::plan {

enum class PlanKind : uint8_t {
  kSource,         // a Protocol bound to an interface, or a named Stream
  kSelectProject,  // filter + compute output fields
  kAggregate,      // group-by + decomposable aggregates
  kJoin,           // two-stream window join
  kMerge,          // order-preserving union
};

const char* PlanKindName(PlanKind kind);

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// One logical plan operator.
///
/// A flat tagged struct (one node type, kind-specific members) rather than
/// a class hierarchy: the planner, splitter, and executor all pattern-match
/// on kind, and keeping the plan a passive value makes rewrites (the
/// LFTA/HFTA split clones and edits subtrees) straightforward.
struct PlanNode {
  PlanKind kind = PlanKind::kSource;

  /// Schema of this operator's output, including imputed ordering
  /// properties on every field.
  gsql::StreamSchema output_schema;

  std::vector<PlanPtr> children;

  // --- kSource ---
  std::string source_stream;    // Protocol or Stream name
  std::string interface_name;   // non-empty for Protocol sources
  bool source_is_protocol = false;

  // --- kSelectProject and kAggregate ---
  expr::IrPtr predicate;  // the WHERE, run first; may be null (no filter)

  // --- kSelectProject ---
  std::vector<expr::IrPtr> projections;   // one per output field

  // --- kAggregate ---
  std::vector<expr::IrPtr> group_keys;    // evaluated over the input
  std::vector<expr::AggregateSpec> aggregates;
  /// Index into group_keys of the ordered key that closes groups, or -1
  /// when no key is increasing-like (unbounded state; §2.2 "not enforced").
  int ordered_key = -1;
  /// Band width of the ordered key (0 for monotone keys). A banded key
  /// only closes groups more than `band` below the running maximum —
  /// flushing eagerly would lose the band's late arrivals (§2.1).
  uint64_t ordered_key_band = 0;
  /// Output layout: group keys first (in group_keys order), then aggregates
  /// (in aggregates order). output_schema matches this layout.

  // --- kJoin ---
  expr::IrPtr join_predicate;   // full residual predicate, over inputs 0/1
  size_t left_window_field = 0;   // ordered attribute of child 0
  size_t right_window_field = 0;  // ordered attribute of child 1
  /// Window constraint: left_ts - right_ts in [window_lo, window_hi].
  int64_t window_lo = 0;
  int64_t window_hi = 0;
  /// Join algorithm (§2.1): order-preserving (monotone output, more buffer
  /// space) or eager (banded output).
  bool join_order_preserving = false;

  // --- kMerge ---
  size_t merge_field = 0;  // shared attribute index in every child

  std::string ToString(int indent = 0) const;
};

PlanPtr MakeSourceNode(const gsql::StreamSchema& schema,
                       const std::string& interface_name);
PlanPtr MakeSelectProjectNode(PlanPtr child, expr::IrPtr predicate,
                              std::vector<expr::IrPtr> projections,
                              gsql::StreamSchema output_schema);

/// Total number of nodes in the plan tree.
size_t PlanSize(const PlanPtr& plan);

}  // namespace gigascope::plan

#endif  // GIGASCOPE_PLAN_LOGICAL_PLAN_H_
