#ifndef GIGASCOPE_PLAN_SPLITTER_H_
#define GIGASCOPE_PLAN_SPLITTER_H_

#include <string>

#include "bpf/program.h"
#include "plan/planner.h"

namespace gigascope::plan {

/// The two-level compilation result (§3).
///
/// The splitter pushes as much of the query as possible down the processing
/// stack: cheap selection/projection and decomposable pre-aggregation into
/// the LFTA (linked into the runtime next to the packet source), a BPF
/// pre-filter and snap length into the NIC when the predicate allows, and
/// everything expensive into the HFTA.
struct SplitQuery {
  std::string name;        // the query's public name
  std::string lfta_name;   // mangled LFTA stream name (name + "_lfta")

  /// Low-level plan: one operator directly over the Protocol source, a
  /// SelectProject or (under split aggregation) an Aggregate, each with
  /// the WHERE's cheap conjuncts as its predicate; null when the query
  /// reads only Streams (LFTAs accept only Protocol input).
  PlanPtr lfta;

  /// High-level plan whose Source is the LFTA's output stream; null when
  /// "a simple query can execute entirely as an LFTA".
  PlanPtr hfta;

  /// Schema of the LFTA→HFTA stream (only meaningful when both parts
  /// exist). Registered under `lfta_name`; §3: "both streams are available
  /// to the application, though the LFTA query will have a mangled name".
  gsql::StreamSchema lfta_schema;

  /// True when the LFTA performs pre-aggregation (the aggregate query
  /// splitting optimization).
  bool split_aggregation = false;

  /// NIC pushdown: a BPF pre-filter (superset of the LFTA predicate) plus
  /// the snap length for qualifying packets. has_nic_program is false when
  /// nothing could be pushed.
  bool has_nic_program = false;
  bpf::Program nic_program;
  uint32_t snap_len = 0;  // 0 = deliver whole packets
};

/// Splits a planned query. Join and merge plans, and plans over Stream
/// sources, run entirely as HFTAs.
Result<SplitQuery> SplitPlan(const PlannedQuery& planned);

/// Compiles the BPF pre-filter for an LFTA predicate over a packet
/// Protocol schema. Only conjuncts that are provably implied supersets
/// compile: `ipVersion = 4`, `protocol = c`, `srcIP/destIP = c` (requires
/// ipVersion=4 present), `srcPort/destPort = c` (requires ipVersion=4 and
/// protocol present). Returns false when no conjunct is pushable.
bool CompileNicFilter(const expr::IrPtr& predicate,
                      const gsql::StreamSchema& schema, uint32_t snap_len,
                      bpf::Program* out);

}  // namespace gigascope::plan

#endif  // GIGASCOPE_PLAN_SPLITTER_H_
