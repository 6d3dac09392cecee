#ifndef GIGASCOPE_CORE_ENGINE_H_
#define GIGASCOPE_CORE_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault.h"
#include "core/packet_source.h"
#include "core/shedding.h"
#include "core/supervisor.h"
#include "core/worker.h"
#include "gsql/catalog.h"
#include "net/packet.h"
#include "plan/explain.h"
#include "plan/splitter.h"
#include "rts/node.h"
#include "rts/registry.h"
#include "rts/shed_state.h"
#include "rts/tuple.h"
#include "telemetry/histogram.h"
#include "telemetry/registry.h"
#include "telemetry/stats_source.h"
#include "telemetry/tracer.h"
#include "udf/registry.h"

namespace gigascope::ops {
class LftaAggregateNode;
}  // namespace gigascope::ops

namespace gigascope::core {

/// A subscriber-side decoded view of a stream.
class TupleSubscription {
 public:
  TupleSubscription(rts::Subscription channel, gsql::StreamSchema schema);

  /// Next decoded tuple, skipping punctuations and malformed tuples;
  /// nullopt when drained.
  /// Pops a whole batch at a time and keeps a cursor into it.
  std::optional<rts::Row> NextRow();

  /// Messages not yet read, punctuations included: the unread rest of the
  /// batch NextRow is reading plus the channel's pushed - popped. The
  /// messages of a torn shared-memory slot (RingChannel::torn) count as
  /// pushed but are skipped, never popped, so they stay in this count.
  size_t pending() const {
    const uint64_t popped = channel_->popped();
    const uint64_t pushed = channel_->pushed();
    return batch_.size() - cursor_ +
           static_cast<size_t>(pushed > popped ? pushed - popped : 0);
  }
  uint64_t dropped() const { return channel_->dropped(); }
  /// Tuples NextRow skipped because they were not well framed.
  uint64_t malformed() const { return malformed_; }

  const gsql::StreamSchema& schema() const { return codec_.schema(); }

 private:
  rts::Subscription channel_;
  rts::TupleCodec codec_;
  rts::StreamBatch batch_;  // the batch being read
  size_t cursor_ = 0;       // next item of batch_
  uint64_t malformed_ = 0;
};

/// Engine construction knobs.
struct EngineOptions {
  /// Capacity of inter-node channels, in ring slots. Each slot carries one
  /// StreamBatch (up to batch_max_size messages), so the message capacity
  /// is channel_capacity * batch_max_size when sources batch fully.
  size_t channel_capacity = 8192;
  /// log2 of the LFTA direct-mapped hash table slot count.
  int lfta_hash_log2 = 12;
  /// Packet sources emit a punctuation every this many packets.
  size_t punctuation_interval = 256;
  /// Batched data plane: tuples accumulate into a StreamBatch that is
  /// published as one ring message once it holds this many: a packet
  /// source's for its ring subscribers, and every operator's output. Every
  /// this many tuples InjectPacket also reaches a boundary, at which worker
  /// modes flush the fed LFTAs' output. 1 restores per-tuple message flow
  /// (each message rides alone).
  size_t batch_max_size = 64;
  /// Period, in sim-time nanoseconds, of the built-in `gs_stats` telemetry
  /// stream: the engine snapshots its metric registry and emits one tuple
  /// per counter whenever injected time (packet timestamps, heartbeats)
  /// advances past the period. 0 disables periodic emission; the counters
  /// themselves are always maintained (one relaxed store on the hot path),
  /// and EmitStatsSnapshot still works.
  SimTime stats_period = 0;
  /// Sampled per-tuple tracing: tag roughly 1 in `trace_sample` injected
  /// packets and follow them through LFTA pre-aggregation, the rings, and
  /// the HFTA operators (gsrun --trace-sample). 0 disables the tracer
  /// entirely — no clock reads, no per-message work beyond a null check.
  /// The resulting trace exports as Chrome trace-event JSON
  /// (Engine::tracer()->WriteJson), loadable in Perfetto. The sampling
  /// RNG has a fixed seed: the same injection sequence traces the same
  /// packets.
  size_t trace_sample = 0;
  /// Closed-loop overload management (§3 graceful degradation): with
  /// shed.enabled the engine periodically evaluates its own telemetry
  /// (ring occupancy, drops, punctuation lag, LFTA table occupancy)
  /// against shed's thresholds and walks a shedding ladder — L1 1-in-k
  /// source sampling with unbiased COUNT/SUM scaling, L2 coarser LFTA
  /// epochs, L3 bounded LFTA occupancy — stepping back down with
  /// hysteresis once pressure subsides.
  ShedConfig shed;
  /// Supervised multi-process HFTA mode (StartProcesses): heartbeat
  /// cadence and hang window, restart budget and backoff.
  SupervisorOptions supervisor;
  /// One deterministic injected fault, armed when worker processes start
  /// (gsrun --fault=SPEC; see core/fault.h for the grammar). Testing only.
  FaultConfig fault;
};

/// Metadata about a compiled, running query.
struct QueryInfo {
  std::string name;
  std::string lfta_name;         // mangled LFTA stream name (if split)
  bool has_lfta = false;
  bool has_hfta = false;
  bool split_aggregation = false;
  bool unbounded_aggregation = false;
  bool has_nic_program = false;
  bpf::Program nic_program;      // for the capture layer to load
  uint32_t snap_len = 0;
  std::string plan_text;         // human-readable plan dump
};

/// The Gigascope engine: catalog + GSQL compiler + stream manager + the
/// running query network.
///
/// Usage:
///   Engine engine;
///   engine.AddInterface("eth0");
///   engine.AddQuery("DEFINE { query_name tcpdest; } SELECT destIP, "
///                   "destPort, time FROM eth0.PKT WHERE protocol = 6");
///   auto sub = engine.Subscribe("tcpdest");
///   engine.InjectPacket("eth0", packet);
///   engine.PumpUntilIdle();
///   while (auto row = sub->NextRow()) { ... }
///
/// The engine is single-threaded by default: InjectPacket interprets the
/// packet and runs the LFTAs directly over its protocol sources on it, and
/// Pump drives every other operator, which makes runs deterministic.
///
/// One ownership model covers every execution mode, mirroring the paper's
/// §4 split: every node is polled by exactly one owner. Source
/// interpretation and LFTA-stage nodes are always owned by the caller's
/// inject thread (the paper links LFTAs into the RTS next to the capture
/// loop); the LFTAs over a packet source are fed each tuple inside
/// InjectPacket, in every mode. HFTA-stage nodes (join, merge, final aggregation, user nodes) are
/// owned by the inject thread too in single-threaded mode — zero workers —
/// or, once StartThreads/StartProcesses runs, partitioned round-robin over
/// a pool of workers (threads or supervised processes) connected through
/// the SPSC ring channels, so every channel keeps a single producer and a
/// single consumer. Both backends run the same worker loop (only process
/// workers are sent commands: thread workers stop before a seal needs
/// one); a worker that stops or fails hands its nodes back to the inject
/// thread (adoption). FlushAll is the drain barrier: it
/// drains and flushes every node inside its owner, upstream first (thread
/// workers hand their nodes back first; process workers seal in place),
/// stops the pool, and seals the engine — after FlushAll, injection calls
/// return FailedPrecondition and further FlushAll calls are no-ops.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  // -- Setup ---------------------------------------------------------------

  /// Declares a capture interface (e.g. "eth0"). The first interface added
  /// becomes the default for unqualified Protocol references.
  void AddInterface(const std::string& name);

  /// Executes DDL statements (CREATE PROTOCOL / CREATE STREAM).
  Status ExecuteDdl(std::string_view ddl);

  /// Declares an external stream that the caller will feed with InjectRow —
  /// the paper's "users can write their own query nodes" API.
  Status DeclareStream(const gsql::StreamSchema& schema);

  const gsql::Catalog& catalog() const { return catalog_; }

  // -- Queries ---------------------------------------------------------------

  /// Compiles and instantiates one GSQL query (SELECT or MERGE). Parameters
  /// declared in the DEFINE block take `params` values (or their defaults).
  Result<QueryInfo> AddQuery(
      std::string_view gsql_text,
      const std::map<std::string, expr::Value>& params = {});

  /// Changes a query parameter on the fly (§3). Takes effect on the next
  /// evaluated tuple. Pass-by-handle parameters cannot be changed (their
  /// handles were built at instantiation).
  Status SetParam(const std::string& query_name,
                  const std::string& param_name, expr::Value value);

  const std::vector<QueryInfo>& queries() const { return query_infos_; }

  // -- Subscriptions -----------------------------------------------------------

  /// Subscribes to any registered stream (query outputs, LFTA streams with
  /// their mangled names, raw protocol streams).
  Result<std::unique_ptr<TupleSubscription>> Subscribe(
      const std::string& stream_name, size_t capacity = 8192);

  // -- Data input -----------------------------------------------------------

  /// Feeds one captured packet to all Protocols bound to `interface_name`
  /// and runs the LFTAs over them on it before returning. The name is only
  /// looked up (no string is built per packet), so a literal such as
  /// "eth0" costs nothing to pass.
  Status InjectPacket(std::string_view interface_name,
                      const net::Packet& packet);

  /// Injects a time-only heartbeat: a punctuation advancing the ordered
  /// time attributes of every protocol stream on the interface without any
  /// tuple (§3's ordering-update tokens for slow streams). `interface_name`
  /// is looked up as InjectPacket's is.
  Status InjectHeartbeat(std::string_view interface_name, SimTime now);

  /// Feeds one tuple into a caller-declared stream. InvalidArgument (and
  /// nothing published) when `row` does not match the stream's arity and
  /// field types.
  Status InjectRow(const std::string& stream_name, const rts::Row& row);

  /// Injects a punctuation bound on one field of a caller-declared stream.
  /// InvalidArgument (and nothing published) unless `bound` has the
  /// field's type and that type is numeric.
  Status InjectPunctuation(const std::string& stream_name, size_t field,
                           const expr::Value& bound);

  /// Forces one telemetry snapshot onto the `gs_stats` stream, stamped
  /// `now` (clamped non-decreasing). An injection API like InjectPacket:
  /// call from the inject thread only. With options.stats_period > 0
  /// snapshots also happen automatically as injected time advances.
  Status EmitStatsSnapshot(SimTime now);

  /// Registers a user-written query node (§3: "users can write their own
  /// query nodes to implement special operators by following this API",
  /// e.g. the IP defragmentation operator in ops/defrag.h). The node must
  /// already have declared its output stream in registry(); it is pumped
  /// together with compiled query nodes.
  Status AddNode(std::unique_ptr<rts::QueryNode> node);

  // -- Execution ---------------------------------------------------------------

  /// Publishes the inject thread's open batches and runs one round over
  /// the nodes it owns; returns messages processed. The LFTAs a packet
  /// source feeds already ran inside InjectPacket: their round only
  /// flushes their output. While a worker pool runs, the round is the LFTA
  /// stage plus any nodes adopted from failed workers; otherwise it is
  /// every node.
  size_t Pump(size_t budget_per_node = 1024);

  /// Pumps until a round moves nothing.
  void PumpUntilIdle();

  /// End-of-stream barrier: drains every channel, flushes buffered operator
  /// state (open groups, merge buffers) downstream inside each node's
  /// owner, stops any worker pool, and seals the engine. Thread workers
  /// are stopped first, so a threaded seal runs on this thread alone.
  /// Idempotent; after it returns, injection calls fail with
  /// FailedPrecondition.
  void FlushAll();

  // -- Worker pools ------------------------------------------------------------

  /// Starts a pool of worker threads. Call after all queries, custom
  /// nodes, and subscriptions are set up: while workers run,
  /// AddQuery/AddNode/Subscribe/DeclareStream/ExecuteDdl/SetParam return
  /// FailedPrecondition (they would mutate structures the workers read
  /// lock-free). HFTA nodes are partitioned round-robin over
  /// min(workers, hfta-node-count) threads; idle workers park and are
  /// woken by pushes into their nodes' input channels.
  Status StartThreads(size_t workers);

  /// Stops the worker threads. Their nodes return to the inject thread
  /// with state intact: undrained channel contents remain and can be
  /// pumped single-threaded afterwards (FlushAll does this).
  void StopThreads();

  bool threads_running() const { return mode_ == PumpMode::kThreads; }

  /// Starts supervised HFTA worker processes, partitioned like
  /// StartThreads. Before forking it moves every ring a worker node reads
  /// or publishes into, and the node's counters and histograms, into
  /// shared memory; other rings stay on the heap. Each worker heartbeats
  /// through shared memory; the supervisor restarts crashed or hung
  /// workers under exponential backoff, and a worker that exhausts its
  /// restart budget degrades — the inject thread adopts its nodes,
  /// resynchronizing their inputs at the next punctuation boundary.
  /// InvalidArgument, starting nothing, when a torn fault's stream has no
  /// ring a worker touches.
  Status StartProcesses(size_t workers);

  /// Kills the worker processes without draining (FlushAll does both, in
  /// order). Their in-flight operator state is lost; every group is
  /// adopted with a resync so later pumping stays consistent.
  void StopProcesses();

  bool processes_running() const { return mode_ == PumpMode::kProcesses; }

  /// The process supervisor, or null unless StartProcesses ran.
  const Supervisor* supervisor() const { return supervisor_.get(); }

  // -- Introspection ---------------------------------------------------------

  rts::StreamRegistry& registry() { return registry_; }

  /// The metric registry behind the `gs_stats` stream: every node, channel,
  /// and packet source registers its counters here. Snapshot() is safe
  /// from any thread, including while workers are pumping.
  const telemetry::Registry& telemetry() const { return telemetry_; }

  /// The sampled-tuple tracer, or null when options.trace_sample == 0.
  /// WriteJson is safe after FlushAll (and, being mutex-guarded, any time).
  const telemetry::Tracer* tracer() const { return tracer_.get(); }

  /// Per-node statistics: (name, tuples_in, tuples_out, eval_errors).
  /// Safe to call from any thread while workers are pumping: the counters
  /// are single-writer relaxed atomics, so readings are torn-free (though
  /// not a global atomic cut across nodes).
  struct NodeStats {
    std::string name;
    uint64_t tuples_in;
    uint64_t tuples_out;
    uint64_t eval_errors;
  };
  std::vector<NodeStats> GetNodeStats() const;

  /// EXPLAIN ANALYZE (gsrun --analyze): every running query's compiled
  /// plan annotated with live runtime counters — actual tuples in/out,
  /// poll/tuple timing percentiles, input-ring health, process placement
  /// with restart counts.
  /// Safe while workers pump (counter reads are the same snapshot path
  /// gs_stats uses). `mask_volatile` omits wall-clock and occupancy
  /// fields so the output is run-to-run stable (golden tests).
  std::string AnalyzeText(bool mask_volatile = false) const;
  /// Same as one JSON object: {"queries":[<per-query object>, ...]}.
  std::string AnalyzeJson(bool mask_volatile = false) const;

 private:
  /// Which pump stage a node belongs to: LFTA-stage nodes are always
  /// owned by the inject thread; HFTA-stage nodes go to the workers while
  /// a pool runs.
  enum class NodeStage : uint8_t { kLfta, kHfta };
  /// Which worker backend is running, if any (kSingle: zero workers).
  enum class PumpMode : uint8_t { kSingle, kThreads, kProcesses };
  /// node_worker_ value of a node the inject thread polls.
  static constexpr int kInjectThread = -1;

  /// Ensures a packet stream for (interface, protocol) exists.
  Status EnsureProtocolSource(const std::string& interface_name,
                              const std::string& protocol);

  /// Registers sources required by every Source leaf of `plan`.
  Status EnsureSources(const plan::PlanPtr& plan);

  /// Marks every protocol-source field some operator expression of `plan`
  /// references as wanted, so interpretation materializes it. Consumers
  /// the engine cannot introspect (AddNode user nodes, raw subscriptions
  /// routed through Subscribe) mark all fields.
  void MarkProtocolFieldUses(const plan::PlanPtr& plan);

  /// Rejects mutations while a worker pool runs (structures the workers
  /// read are not guarded by locks) and input after FlushAll sealed the
  /// engine.
  Status CheckMutable(const char* operation) const;
  Status CheckAcceptingInput(const char* operation) const;

  // -- Node ownership ------------------------------------------------------

  /// StartThreads/StartProcesses: partitions the HFTA stage over
  /// min(workers, hfta nodes) workers of `mode`'s backend and starts them.
  Status StartWorkers(PumpMode mode, size_t workers);
  /// Process backend set-up before the fork, for the nodes_ indices each
  /// worker will own: shares the rings they read or publish into, binds
  /// their metrics to shared cells, detaches their tracing, arms a torn
  /// fault and registers the process-mode counters. InvalidArgument,
  /// changing nothing, when the torn fault's stream has no shared ring.
  Status PrepareProcessWorkers(
      const std::vector<std::vector<size_t>>& worker_nodes);
  /// A forked worker's main: resync after a restart, then the worker loop.
  void RunProcessWorker(const WorkerGroup& group, size_t worker,
                        uint32_t generation);
  /// Stops the pool and adopts every worker's nodes; with `resync`, a
  /// backend that loses node state resynchronizes their inputs.
  void StopWorkers(bool resync);
  /// Hands worker `worker`'s nodes to the inject thread; with `resync`
  /// their inputs discard until the next punctuation boundary (a dead
  /// process's partial state is unrecoverable).
  void AdoptWorker(size_t worker, bool resync);
  /// One poll round over the inject thread's nodes, after adopting any
  /// worker that is gone.
  size_t PumpInjectNodes(size_t budget_per_node);
  /// The injection calls' tail: while workers run, the inject thread keeps
  /// the LFTA stage moving so its output feeds them (§4: LFTAs run next to
  /// the capture loop). Single-threaded callers pump explicitly.
  void PumpAfterInput();
  /// Runs one kDrain in every live worker, adopting any that fail; returns
  /// the messages the workers processed since the previous drain.
  size_t DrainWorkers();
  /// Pumps the inject thread and drains every worker until a round in
  /// which no worker made progress.
  void DrainUntilIdle();

  /// Flushes every writer the inject thread owns (packet sources,
  /// `gs_stats`, injected streams): publishes open batches, so no injected
  /// tuple waits on the batch-size threshold once the engine is asked to
  /// make progress, and retries parked punctuations.
  void FlushInjectWriters();

  /// The writer InjectRow and InjectPunctuation publish into
  /// `stream_name` through, made at the first injection into it.
  rts::BatchWriter& InjectWriter(const std::string& stream_name);

  /// EXPLAIN ANALYZE assembly (core/analyze.cc): one registry snapshot
  /// and the nodes' input rings turned into per-node stats, plus the
  /// engine-level summary header.
  void AssembleAnalyze(std::map<std::string, plan::AnalyzeNodeStats>* by_node,
                       plan::AnalyzeSummary* summary) const;

  /// Registers telemetry for nodes added since the last call (watermark
  /// telemetry_registered_nodes_).
  void RegisterNewNodeTelemetry();
  /// Emits a `gs_stats` snapshot when injected time has advanced past
  /// options_.stats_period since the previous one.
  void MaybeEmitStats(SimTime now);
  /// Runs one overload-controller pressure check when injected time has
  /// advanced past options_.shed.check_period since the previous one.
  /// Inject thread only — the controller and every actuated path (source
  /// sampling, LFTA-stage nodes) live on this thread.
  void MaybeRunShedCheck(SimTime now);

  EngineOptions options_;
  gsql::Catalog catalog_;
  // Declared before nodes_/registry_ so registered readers (which point at
  // node- and channel-owned counters) never outlive the registry's users.
  telemetry::Registry telemetry_;
  /// Parallel to nodes_ (null: not bound): the shared cells a worker node's
  /// counters and histograms count in since its first StartProcesses.
  /// Declared before nodes_ so the cells outlive every counter bound to them.
  std::vector<std::unique_ptr<rts::ShmSegment>> metric_cells_;
  // Also before nodes_: nodes keep a raw Tracer pointer (SetTracer).
  std::unique_ptr<telemetry::Tracer> tracer_;
  /// Trace-viewer track ids: 0 is the inject thread, nodes take 1..N.
  uint32_t next_track_id_ = 1;
  /// Park-time histograms per worker thread slot, engine-owned so the
  /// registered readers outlive any one pool. Grows lazily in
  /// StartThreads; slot w is reused across start/stop cycles.
  std::vector<std::unique_ptr<telemetry::Histogram>> worker_park_ns_;
  rts::StreamRegistry registry_;
  std::unique_ptr<telemetry::StatsSource> stats_source_;
  SimTime last_stats_emit_ = 0;
  /// Highest injected sim-time seen; stamps the terminal stats snapshot.
  SimTime last_input_time_ = 0;
  size_t telemetry_registered_nodes_ = 0;
  uint64_t subscriber_seq_ = 0;
  telemetry::Counter heartbeats_;
  /// Shared shedding knobs: written by the controller, read (relaxed) by
  /// the inject path and LFTA-stage nodes — all on the inject thread.
  rts::ShedState shed_state_;
  std::unique_ptr<OverloadController> shed_controller_;
  SimTime last_shed_check_ = 0;
  /// Packets shed at the source by L1 sampling (per bound protocol stream).
  telemetry::Counter shed_tuples_;
  /// Packets offered to InjectPacket, shed or not: the deterministic
  /// 1-in-k sampling phase.
  uint64_t inject_seq_ = 0;
  /// LFTA-table nodes, cached at registration so pressure checks read
  /// their table occupancy without a per-check scan-and-cast.
  std::vector<const ops::LftaAggregateNode*> lfta_agg_nodes_;
  std::vector<std::unique_ptr<rts::QueryNode>> nodes_;
  std::vector<QueryInfo> query_infos_;
  /// Per-query parameter blocks and name->slot maps.
  struct QueryParams {
    rts::ParamBlock block;
    std::vector<std::string> names;
  };
  std::map<std::string, QueryParams> query_params_;
  /// Packet sources by stream name, and per interface.
  std::map<std::string, std::unique_ptr<PacketSource>> sources_;
  /// Transparent comparator: the inject paths find by std::string_view.
  std::map<std::string, std::vector<PacketSource*>, std::less<>>
      interface_sources_;
  /// InjectWriter's writers by stream name.
  std::map<std::string, rts::BatchWriter> injected_;
  /// Compiled plans retained per query (parallel to query_infos_) so
  /// EXPLAIN ANALYZE can re-render them against live runtime counters.
  struct AnalyzePlan {
    plan::PlannedQuery planned;
    plan::SplitQuery split;
  };
  std::vector<AnalyzePlan> analyze_plans_;
  /// Last pump mode started, for the ANALYZE header ("single" until a
  /// StartThreads/StartProcesses call).
  const char* pump_mode_ = "single";
  /// Parallel to nodes_: each node's pump stage.
  std::vector<NodeStage> node_stages_;

  // -- Node ownership (DESIGN.md §9) ---------------------------------------
  PumpMode mode_ = PumpMode::kSingle;
  /// The running pool: *threads_ or *supervisor_, or null with zero
  /// workers. Every worker operation goes through it.
  WorkerPool* pool_ = nullptr;
  /// The last pool of each backend; kept after it stops so its counters
  /// (park times, restarts, degradations) stay readable.
  std::unique_ptr<ThreadPool> threads_;
  std::unique_ptr<Supervisor> supervisor_;
  /// nodes_ indices owned by each worker of the last pool started.
  std::vector<std::vector<size_t>> worker_nodes_;
  std::vector<char> worker_adopted_;
  /// Each worker's processed-message count at its last drain.
  std::vector<uint64_t> worker_drained_;
  /// Parallel to nodes_ (missing entries: the inject thread): the worker
  /// that polls each node, or kInjectThread.
  std::vector<int> node_worker_;
  /// Worker adoptions with a resync (each opens a resync gap, like a
  /// restart does); atomic because the gs_stats reader may run while the
  /// engine thread adopts.
  std::atomic<uint64_t> adopted_resync_{0};
  // -- Process backend -------------------------------------------------------
  bool process_telemetry_registered_ = false;

  bool flushed_ = false;
  /// Once a user node exists, sources created later also materialize every
  /// field — the node may subscribe to them through registry().
  bool user_nodes_present_ = false;
};

}  // namespace gigascope::core

#endif  // GIGASCOPE_CORE_ENGINE_H_
