#ifndef GIGASCOPE_TELEMETRY_METRIC_NAMES_H_
#define GIGASCOPE_TELEMETRY_METRIC_NAMES_H_

namespace gigascope::telemetry::metric {

/// The engine's metric catalog: every name that can appear in the `metric`
/// column of the `gs_stats` stream, in one place. GSQL queries filter on
/// these strings (`WHERE metric = 'tuples_out'`), so ad-hoc literals at
/// call sites would make a typo fail silently — register and query through
/// these constants only. The full catalog (name, unit, writer) is
/// documented in DESIGN.md §11.

// -- Per-node counters (writer: the node's polling thread) -------------------
inline constexpr char kTuplesIn[] = "tuples_in";
inline constexpr char kTuplesOut[] = "tuples_out";
inline constexpr char kEvalErrors[] = "eval_errors";
inline constexpr char kBusyPolls[] = "busy_polls";

// -- Per-input-ring counters (prefix "ring" or "ring<i>") --------------------
inline constexpr char kRingPrefix[] = "ring";
inline constexpr char kRingPushedSuffix[] = "_pushed";
inline constexpr char kRingPoppedSuffix[] = "_popped";
inline constexpr char kRingDroppedSuffix[] = "_dropped";
inline constexpr char kRingSizeSuffix[] = "_size";
inline constexpr char kRingHighWaterSuffix[] = "_high_water";
/// Ring occupancy histogram (batches queued, sampled at each push).
inline constexpr char kRingOccupancySuffix[] = "_occupancy";
/// Messages per pushed batch (how well the data plane amortizes pushes).
inline constexpr char kRingBatchSizeSuffix[] = "_batch_size";

// -- Aggregation operators ---------------------------------------------------
inline constexpr char kOpenGroups[] = "open_groups";
inline constexpr char kGroupsFlushed[] = "groups_flushed";
inline constexpr char kLftaUpdates[] = "lfta_updates";
inline constexpr char kLftaEvictions[] = "lfta_evictions";
inline constexpr char kLftaOccupied[] = "lfta_occupied";

// -- Packet sources (writer: the inject thread) ------------------------------
inline constexpr char kPackets[] = "packets";
inline constexpr char kLastPunctSec[] = "last_punct_sec";
/// Sim-time gap between a packet and the last punctuation on its source.
inline constexpr char kPunctLagNs[] = "punct_lag_ns";
/// Packets whose bytes could not be decoded even at the Ethernet layer
/// (truncated/corrupt captures); interpreted as type defaults, never
/// crashed on.
inline constexpr char kParseErrors[] = "parse_errors";
/// Packets whose timestamp regressed behind the source's last emitted
/// punctuation; clamped to the punctuation bound instead of violating it.
inline constexpr char kTimeRegressions[] = "time_regressions";

// -- Overload controller (writer: the inject thread) -------------------------
/// Current rung of the shedding ladder (0 = exact processing).
inline constexpr char kShedLevel[] = "shed_level";
/// Percent of offered packets currently being shed by L1 sampling
/// ((k-1)*100/k; 0 when not sampling).
inline constexpr char kShedRate[] = "shed_rate";
/// Packets deterministically shed at the source (accounted, not lost:
/// surviving tuples are scaled to cover them).
inline constexpr char kShedTuples[] = "shed_tuples";
/// Pressure evaluations the controller has run.
inline constexpr char kShedChecks[] = "shed_checks";
/// LFTA groups force-evicted by the L3 occupancy cap (also counted in
/// lfta_evictions; partials, re-merged by the HFTA).
inline constexpr char kLftaShedEvictions[] = "lfta_shed_evictions";

// -- Multi-process supervision (writer: supervisor monitor thread) -----------
/// Worker processes re-forked after a crash or a hung-heartbeat kill.
inline constexpr char kWorkerRestarts[] = "worker_restarts";
/// Monitor ticks that found a live worker's heartbeat counter unchanged.
inline constexpr char kHeartbeatMisses[] = "heartbeat_misses";
/// Workers whose restart budget is exhausted (their nodes run in-process).
inline constexpr char kWorkersDegraded[] = "workers_degraded";
/// Punctuation-bounded recovery gaps: every worker restart plus every
/// degraded-worker adoption begins one (tuples inside it are discarded and
/// counted in resync_dropped).
inline constexpr char kResyncGaps[] = "resync_gaps";
/// Shm ring slots whose sequence/bounds validation failed at the consumer
/// (torn writes — injected or from a producer dying mid-publish).
inline constexpr char kTornSlots[] = "torn_slots";
/// Tuples discarded while a resynchronizing consumer waited for the next
/// punctuation boundary.
inline constexpr char kResyncDropped[] = "resync_dropped";
/// Messages too large for one shm ring slot, dropped at the producer.
inline constexpr char kOversizeDropped[] = "oversize_dropped";

// -- Engine-level ------------------------------------------------------------
inline constexpr char kHeartbeats[] = "heartbeats";
inline constexpr char kStatsSnapshots[] = "stats_snapshots";
/// Sampled packets tagged by the tracer (0 unless --trace-sample).
inline constexpr char kTraceSampled[] = "trace_sampled";
/// Trace events discarded once the tracer's event cap filled.
inline constexpr char kTraceDroppedEvents[] = "trace_dropped_events";
/// Sampled tuples that reached an operator with no tracer attached — in
/// process mode the trace context crosses the shm ring but worker-side
/// spans are not recorded, so the trace is explicitly marked truncated
/// rather than silently thinner.
inline constexpr char kTraceTruncated[] = "trace_truncated";

// -- Latency histogram bases (wall-clock ns unless noted) --------------------
// A histogram named <base> surfaces as <base>_p50/_p90/_p99/_max/_count.
/// Duration of one busy poll round of a node.
inline constexpr char kPollNs[] = "poll_ns";
/// Per-message share of a busy poll (poll duration / messages consumed).
inline constexpr char kTupleNs[] = "tuple_ns";
/// Inject→emit latency of traced tuples at a query's terminal node.
inline constexpr char kE2eLatencyNs[] = "e2e_latency_ns";
/// Time a worker spent parked waiting for input (one sample per park).
inline constexpr char kParkNs[] = "park_ns";

// -- Histogram stat suffixes -------------------------------------------------
inline constexpr char kP50Suffix[] = "_p50";
inline constexpr char kP90Suffix[] = "_p90";
inline constexpr char kP99Suffix[] = "_p99";
inline constexpr char kMaxSuffix[] = "_max";
inline constexpr char kCountSuffix[] = "_count";

}  // namespace gigascope::telemetry::metric

#endif  // GIGASCOPE_TELEMETRY_METRIC_NAMES_H_
