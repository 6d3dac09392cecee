#ifndef GIGASCOPE_PLAN_EXPLAIN_H_
#define GIGASCOPE_PLAN_EXPLAIN_H_

#include <cstdint>
#include <functional>
#include <string>

#include "plan/planner.h"
#include "plan/splitter.h"

namespace gigascope::plan {

/// EXPLAIN introspection of a compiled query: renders the post-split plan
/// — which operators landed in the LFTA next to the packet source and
/// which in the HFTA, the ordering properties the planner imputed on every
/// intermediate schema, window bounds, and per-operator expression cost
/// against the LFTA budget — without instantiating anything.
///
/// Both renderings are stable (no pointers, timestamps, or hash-order
/// iteration), so they serve as golden-test surfaces for the planner and
/// splitter: a split regression shows up as a placement diff, a lost
/// ordering property as an `order:` diff.

/// Human-readable form, used by `gsqlc --explain`.
std::string ExplainText(const PlannedQuery& planned, const SplitQuery& split);

/// Machine-readable form (one JSON object), used by `gsqlc --explain=json`.
std::string ExplainJson(const PlannedQuery& planned, const SplitQuery& split);

// -- EXPLAIN ANALYZE (gsrun --analyze) ---------------------------------------
//
// The same plan rendering annotated with live runtime counters: the engine
// resolves each plan operator to its instantiated node (root = the
// query/LFTA output name; child i of a node named N publishes N + "#i")
// and supplies its counters through AnalyzeLookup. Source leaves resolve
// to their stream names; the lookup may return null for any name it has no
// stats for, which just suppresses the actual-value lines.

/// Live counters of one instantiated operator node.
struct AnalyzeNodeStats {
  /// Owning process: "rts" (the parent) or a worker "w0", "w1", ....
  std::string proc = "rts";
  /// Restarts the owning worker process has consumed (0 for "rts").
  uint32_t restarts = 0;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t eval_errors = 0;
  /// Busy-poll duration / per-message latency percentiles, wall ns
  /// (volatile: masked under AnalyzeOptions::mask_volatile).
  uint64_t poll_ns_p50 = 0;
  uint64_t poll_ns_p99 = 0;
  uint64_t tuple_ns_p50 = 0;
  uint64_t tuple_ns_p99 = 0;
  /// Whether the node reads an input ring. A node its packet source feeds
  /// in place has none, and renders no ring health.
  bool has_ring = false;
  /// Input ring health, summed over the node's input channels.
  uint64_t ring_pushed = 0;
  uint64_t ring_popped = 0;
  uint64_t ring_dropped = 0;
  uint64_t ring_size = 0;        // volatile
  uint64_t ring_high_water = 0;  // volatile
};

/// Engine-level header values for one ANALYZE rendering.
struct AnalyzeSummary {
  std::string pump_mode = "single";  // "single" | "threads" | "processes"
  uint64_t shed_level = 0;
  uint64_t worker_restarts = 0;
  uint64_t workers_degraded = 0;
  /// Traced tuples whose span was lost at an operator with no tracer
  /// attached (worker-process nodes run untraced).
  uint64_t trace_truncated = 0;
};

struct AnalyzeOptions {
  /// Omits wall-clock and occupancy fields (timing percentiles, ring
  /// size/high-water) so the rendering is run-to-run stable and can serve
  /// as a golden-test surface like plain EXPLAIN.
  bool mask_volatile = false;
};

/// Resolves an instantiated node's runtime name to its live stats; null =
/// no stats known for that name.
using AnalyzeLookup =
    std::function<const AnalyzeNodeStats*(const std::string& runtime_name)>;

/// Human-readable EXPLAIN ANALYZE (`gsrun --analyze`): plain EXPLAIN plus
/// an `analyze:` header line and actual/proc/ring/timing lines per resolved
/// operator.
std::string ExplainAnalyzeText(const PlannedQuery& planned,
                               const SplitQuery& split,
                               const AnalyzeLookup& lookup,
                               const AnalyzeSummary& summary,
                               const AnalyzeOptions& opts = {});

/// Machine-readable form: the ExplainJson object with a top-level
/// "analyze" summary and an "actual" object per resolved operator.
std::string ExplainAnalyzeJson(const PlannedQuery& planned,
                               const SplitQuery& split,
                               const AnalyzeLookup& lookup,
                               const AnalyzeSummary& summary,
                               const AnalyzeOptions& opts = {});

}  // namespace gigascope::plan

#endif  // GIGASCOPE_PLAN_EXPLAIN_H_
