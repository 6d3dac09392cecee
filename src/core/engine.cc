#include "core/engine.h"

#include <unistd.h>

#include <algorithm>
#include <new>

#include "common/logging.h"
#include "core/compiled_query.h"
#include "expr/typecheck.h"
#include "gsql/parser.h"
#include "ops/lfta_agg.h"
#include "rts/punctuation.h"
#include "telemetry/metric_names.h"

namespace gigascope::core {

using expr::Value;
using gsql::DataType;
namespace metric = telemetry::metric;

namespace {

/// Messages a worker (or the inject thread's share of the worker-mode
/// pump) takes from one node per poll.
constexpr size_t kWorkerPollBudget = 1024;

/// Seed of the tracer's sampling RNG: the same injection sequence traces
/// the same packets.
constexpr uint64_t kTraceSeed = 42;

}  // namespace

TupleSubscription::TupleSubscription(rts::Subscription channel,
                                     gsql::StreamSchema schema)
    : channel_(std::move(channel)), codec_(std::move(schema)) {}

std::optional<rts::Row> TupleSubscription::NextRow() {
  std::optional<rts::Row> row;  // every return hands back this one object
  for (;;) {
    while (cursor_ < batch_.size()) {
      const rts::BatchItem& item = batch_.item(cursor_++);
      if (item.kind != rts::MessageKind::kTuple) continue;
      const ByteSpan payload = batch_.payload(item);
      if (!codec_.Framed(payload)) {  // a malformed tuple is skipped
        ++malformed_;
        continue;
      }
      codec_.DecodeFramed(payload, &row.emplace());
      return row;
    }
    cursor_ = 0;
    if (!channel_->TryPop(&batch_)) return row;
  }
}

Engine::Engine(EngineOptions options) : options_(options) {
  // Built-in protocols.
  GS_CHECK(catalog_.AddSchema(gsql::Catalog::BuiltinPacketSchema()).ok());
  GS_CHECK(catalog_.AddSchema(gsql::Catalog::BuiltinNetflowSchema()).ok());
  // The self-telemetry stream: registered in both the catalog and the
  // stream registry up front, so any query can `FROM gs_stats` through the
  // normal planner path, exactly like a user-declared stream.
  GS_CHECK(catalog_.AddSchema(gsql::Catalog::BuiltinStatsSchema()).ok());
  GS_CHECK(registry_.DeclareStream(gsql::Catalog::BuiltinStatsSchema()).ok());
  stats_source_ =
      std::make_unique<telemetry::StatsSource>(&telemetry_, &registry_);
  telemetry_.Register("engine", metric::kHeartbeats, &heartbeats_);
  telemetry_.Register("engine", metric::kStatsSnapshots,
                      stats_source_->snapshots_counter());
  if (options_.trace_sample > 0) {
    tracer_ = std::make_unique<telemetry::Tracer>(options_.trace_sample,
                                                  kTraceSeed);
    tracer_->SetTrackName(0, "inject");
    telemetry_.Register("engine", metric::kTraceSampled,
                        tracer_->sampled_counter());
    telemetry_.Register("engine", metric::kTraceDroppedEvents,
                        tracer_->dropped_events_counter());
  }
  if (options_.shed.enabled) {
    shed_controller_ =
        std::make_unique<OverloadController>(options_.shed, &shed_state_);
    shed_controller_->RegisterTelemetry(&telemetry_, "engine");
    telemetry_.Register("engine", metric::kShedTuples, &shed_tuples_);
  }
}

Engine::~Engine() { StopWorkers(/*resync=*/true); }

Status Engine::CheckMutable(const char* operation) const {
  if (mode_ == PumpMode::kSingle) return Status::Ok();
  return Status::FailedPrecondition(
      std::string(operation) + ": worker " + pump_mode_ +
      " are running and read the structures this call mutates; stop them "
      "first");
}

Status Engine::CheckAcceptingInput(const char* operation) const {
  if (flushed_) {
    return Status::FailedPrecondition(
        std::string(operation) +
        ": the engine is flushed (FlushAll is end-of-stream); no further "
        "input is accepted");
  }
  return Status::Ok();
}

void Engine::AddInterface(const std::string& name) {
  catalog_.AddInterface(name);
}

Status Engine::ExecuteDdl(std::string_view ddl) {
  GS_RETURN_IF_ERROR(CheckMutable("ExecuteDdl"));
  GS_ASSIGN_OR_RETURN(gsql::ParsedProgram program, gsql::Parse(ddl));
  for (const gsql::Statement& statement : program.statements) {
    const auto* create = std::get_if<gsql::CreateStmt>(&statement);
    if (create == nullptr) {
      return Status::InvalidArgument(
          "ExecuteDdl accepts only CREATE statements; use AddQuery for "
          "queries");
    }
    // Sources write each protocol field straight from its extractor, so a
    // field named like one must have the type that extractor produces.
    if (create->schema.kind() == gsql::StreamKind::kProtocol) {
      GS_RETURN_IF_ERROR(CheckProtocolSchema(create->schema));
    }
    GS_RETURN_IF_ERROR(catalog_.AddSchema(create->schema));
  }
  return Status::Ok();
}

Status Engine::DeclareStream(const gsql::StreamSchema& schema) {
  GS_RETURN_IF_ERROR(CheckMutable("DeclareStream"));
  if (schema.kind() != gsql::StreamKind::kStream) {
    return Status::InvalidArgument(
        "DeclareStream declares Stream schemas; protocols come from DDL");
  }
  if (!catalog_.HasSchema(schema.name())) {
    GS_RETURN_IF_ERROR(catalog_.AddSchema(schema));
  }
  return registry_.DeclareStream(schema);
}

Status Engine::EnsureProtocolSource(const std::string& interface_name,
                                    const std::string& protocol) {
  std::string stream_name = ProtocolStreamName(interface_name, protocol);
  if (sources_.count(stream_name) > 0) return Status::Ok();
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      catalog_.GetSchema(protocol));
  gsql::StreamSchema stream(stream_name, gsql::StreamKind::kStream,
                            schema.fields());
  GS_RETURN_IF_ERROR(registry_.DeclareStream(stream));
  PacketSource::Options source_options;
  source_options.batch_max_size = options_.batch_max_size;
  source_options.punctuation_interval = options_.punctuation_interval;
  // With user nodes around, any stream may be read through registry(), so
  // every field materializes from the start.
  auto source = std::make_unique<PacketSource>(
      std::move(stream), source_options, user_nodes_present_, &registry_);
  source->RegisterTelemetry(&telemetry_);
  interface_sources_[interface_name].push_back(source.get());
  sources_.emplace(stream_name, std::move(source));
  return Status::Ok();
}

Status Engine::EnsureSources(const plan::PlanPtr& plan) {
  if (plan == nullptr) return Status::Ok();
  if (plan->kind == plan::PlanKind::kSource && plan->source_is_protocol) {
    GS_RETURN_IF_ERROR(
        EnsureProtocolSource(plan->interface_name, plan->source_stream));
  }
  for (const plan::PlanPtr& child : plan->children) {
    GS_RETURN_IF_ERROR(EnsureSources(child));
  }
  return Status::Ok();
}

void Engine::MarkProtocolFieldUses(const plan::PlanPtr& plan) {
  for (const auto& [stream, field] : ProtocolFieldUses(plan)) {
    auto it = sources_.find(stream);
    if (it != sources_.end()) it->second->WantField(field);
  }
}

Result<QueryInfo> Engine::AddQuery(
    std::string_view gsql_text,
    const std::map<std::string, expr::Value>& params) {
  GS_RETURN_IF_ERROR(CheckMutable("AddQuery"));
  // True-up stage and telemetry bookkeeping if an earlier instantiation
  // failed partway.
  node_stages_.resize(nodes_.size(), NodeStage::kHfta);
  RegisterNewNodeTelemetry();
  const size_t first_new_node = nodes_.size();
  GS_ASSIGN_OR_RETURN(gsql::Statement statement,
                      gsql::ParseStatement(gsql_text));

  // Extract the DEFINE block (shared by SELECT and MERGE).
  const gsql::DefineBlock* define = nullptr;
  if (const auto* select = std::get_if<gsql::SelectStmt>(&statement)) {
    define = &select->define;
  } else if (const auto* merge = std::get_if<gsql::MergeStmt>(&statement)) {
    define = &merge->define;
  } else {
    return Status::InvalidArgument(
        "AddQuery accepts SELECT or MERGE statements; use ExecuteDdl for "
        "CREATE");
  }

  // Resolve declared parameters to slots and instantiation-time values.
  plan::PlannerOptions planner_options;
  planner_options.resolver = udf::FunctionRegistry::Default();
  std::vector<Value> param_values;
  std::vector<std::string> param_names;
  for (const auto& decl : define->params) {
    planner_options.params.emplace_back(decl.name, decl.type);
    param_names.push_back(decl.name);
    auto it = params.find(decl.name);
    Value value;
    if (it != params.end()) {
      GS_ASSIGN_OR_RETURN(value, expr::CastValue(it->second, decl.type));
    } else if (decl.default_value != nullptr) {
      if (!std::holds_alternative<gsql::LiteralExpr>(
              decl.default_value->node)) {
        return Status::InvalidArgument("parameter '" + decl.name +
                                       "' default must be a literal");
      }
      // The type checker turns a literal into its constant.
      GS_ASSIGN_OR_RETURN(expr::IrPtr literal,
                          expr::TypeCheck(decl.default_value, {}));
      GS_ASSIGN_OR_RETURN(value, expr::CastValue(literal->constant, decl.type));
    } else {
      return Status::InvalidArgument("parameter '" + decl.name +
                                     "' has no value and no default");
    }
    param_values.push_back(std::move(value));
  }

  // Plan.
  plan::PlannedQuery planned;
  if (const auto* select = std::get_if<gsql::SelectStmt>(&statement)) {
    GS_ASSIGN_OR_RETURN(gsql::ResolvedSelect resolved,
                        gsql::AnalyzeSelect(*select, catalog_));
    GS_ASSIGN_OR_RETURN(planned, plan::PlanSelect(resolved, planner_options));
  } else {
    const auto& merge = std::get<gsql::MergeStmt>(statement);
    GS_ASSIGN_OR_RETURN(gsql::ResolvedMerge resolved,
                        gsql::AnalyzeMerge(merge, catalog_));
    GS_ASSIGN_OR_RETURN(planned, plan::PlanMerge(resolved, planner_options));
  }
  if (registry_.HasStream(planned.name)) {
    return Status::AlreadyExists("a query named '" + planned.name +
                                 "' is already running");
  }

  // Split into LFTA/HFTA.
  GS_ASSIGN_OR_RETURN(plan::SplitQuery split, plan::SplitPlan(planned));

  QueryInfo info;
  info.name = split.name;
  info.lfta_name = split.lfta_name;
  info.has_lfta = split.lfta != nullptr;
  info.has_hfta = split.hfta != nullptr;
  info.split_aggregation = split.split_aggregation;
  info.unbounded_aggregation = planned.unbounded_aggregation;
  info.has_nic_program = split.has_nic_program;
  info.nic_program = split.nic_program;
  info.snap_len = split.snap_len;
  info.plan_text = "-- logical --\n" + planned.root->ToString();
  if (split.lfta != nullptr) {
    info.plan_text += "-- lfta --\n" + split.lfta->ToString();
  }
  if (split.hfta != nullptr) {
    info.plan_text += "-- hfta --\n" + split.hfta->ToString();
  }

  // Instantiate: LFTA first (it declares the mangled stream the HFTA
  // reads), then the HFTA.
  QueryParams query_params;
  query_params.block =
      std::make_shared<std::vector<Value>>(param_values);
  query_params.names = param_names;

  InstantiationContext ctx;
  ctx.registry = &registry_;
  ctx.params = query_params.block;
  ctx.param_values = param_values;
  ctx.channel_capacity = options_.channel_capacity;
  ctx.lfta_hash_log2 = options_.lfta_hash_log2;
  ctx.output_batch = options_.batch_max_size;
  // With shedding off, nodes keep a null pointer and pay nothing.
  ctx.shed = options_.shed.enabled ? &shed_state_ : nullptr;
  ctx.nodes = &nodes_;

  if (split.lfta != nullptr) {
    GS_RETURN_IF_ERROR(EnsureSources(split.lfta));
    MarkProtocolFieldUses(split.lfta);
    ctx.use_lfta_table = split.split_aggregation;
    // The LFTAs over a packet source run inside InjectPacket: the source
    // feeds them each tuple in place.
    ctx.sources = &sources_;
    std::string lfta_output =
        split.hfta == nullptr ? split.name : split.lfta_name;
    GS_RETURN_IF_ERROR(InstantiatePlan(split.lfta, lfta_output, &ctx));
  }
  // Nodes instantiated so far belong to the LFTA plan and stay on the
  // inject thread in threaded mode; everything after runs on workers.
  node_stages_.resize(nodes_.size(), NodeStage::kLfta);
  if (split.hfta != nullptr) {
    GS_RETURN_IF_ERROR(EnsureSources(split.hfta));
    MarkProtocolFieldUses(split.hfta);
    ctx.use_lfta_table = false;
    ctx.sources = nullptr;
    GS_RETURN_IF_ERROR(InstantiatePlan(split.hfta, split.name, &ctx));
  }
  node_stages_.resize(nodes_.size(), NodeStage::kHfta);

  // Register the query's output schema in the catalog so later queries can
  // compose over it (§2.2).
  catalog_.PutStreamSchema(planned.output_schema);
  query_params_.emplace(info.name, std::move(query_params));
  query_infos_.push_back(info);
  // Retained for EXPLAIN ANALYZE (plan trees are shared_ptr-backed, so
  // this is a cheap handle copy, not a deep clone).
  analyze_plans_.push_back({planned, split});
  // The node publishing under the query's public name is its terminal:
  // tuples it emits while processing a traced message record the
  // inject→emit latency. Marked before telemetry registration so the
  // e2e_latency_ns histogram is registered for it.
  for (size_t i = first_new_node; i < nodes_.size(); ++i) {
    if (nodes_[i]->name() == split.name) nodes_[i]->set_terminal(true);
  }
  RegisterNewNodeTelemetry();
  return info;
}

void Engine::RegisterNewNodeTelemetry() {
  for (; telemetry_registered_nodes_ < nodes_.size();
       ++telemetry_registered_nodes_) {
    rts::QueryNode* node = nodes_[telemetry_registered_nodes_].get();
    if (tracer_ != nullptr) {
      const uint32_t track = next_track_id_++;
      node->SetTracer(tracer_.get(), track);
      tracer_->SetTrackName(track, node->name());
    }
    node->RegisterTelemetry(&telemetry_);
    // Cache LFTA-table nodes so the overload controller's pressure checks
    // can read table occupancy without a scan-and-cast per check.
    if (const auto* lfta = dynamic_cast<const ops::LftaAggregateNode*>(node)) {
      lfta_agg_nodes_.push_back(lfta);
    }
  }
}

Status Engine::SetParam(const std::string& query_name,
                        const std::string& param_name, expr::Value value) {
  // The param block is read by worker-owned nodes without locks.
  GS_RETURN_IF_ERROR(CheckMutable("SetParam"));
  auto it = query_params_.find(query_name);
  if (it == query_params_.end()) {
    return Status::NotFound("no query named '" + query_name + "'");
  }
  for (size_t i = 0; i < it->second.names.size(); ++i) {
    if (it->second.names[i] == param_name) {
      DataType declared = (*it->second.block)[i].type();
      GS_ASSIGN_OR_RETURN(Value casted, expr::CastValue(value, declared));
      (*it->second.block)[i] = std::move(casted);
      return Status::Ok();
    }
  }
  return Status::NotFound("query '" + query_name + "' has no parameter '" +
                          param_name + "'");
}

Result<std::unique_ptr<TupleSubscription>> Engine::Subscribe(
    const std::string& stream_name, size_t capacity) {
  GS_RETURN_IF_ERROR(CheckMutable("Subscribe"));
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(stream_name));
  // A raw subscriber to a protocol stream sees whole rows; materialize
  // every field from here on.
  auto source_it = sources_.find(stream_name);
  if (source_it != sources_.end()) source_it->second->WantAllFields();
  GS_ASSIGN_OR_RETURN(rts::Subscription channel,
                      registry_.Subscribe(stream_name, capacity));
  // Subscriber-side channels are observable too.
  rts::RegisterRingTelemetry(
      &telemetry_, stream_name + "#sub" + std::to_string(subscriber_seq_++),
      metric::kRingPrefix, channel);
  return std::make_unique<TupleSubscription>(std::move(channel),
                                             std::move(schema));
}

Status Engine::InjectPacket(std::string_view interface_name,
                            const net::Packet& packet) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectPacket"));
  // A packet on an interface with no sources is refused before anything
  // counts it: no trace sample, no step of the sampling phase.
  auto it = interface_sources_.find(interface_name);
  if (it == interface_sources_.end()) {
    return Status::NotFound("no protocol sources on interface '" +
                            std::string(interface_name) +
                            "' (add a query first)");
  }
  // One decision per offered packet, shared by every protocol stream of
  // the interface: a traced packet carries the same trace id on each, and
  // L1 shedding's deterministic 1-in-k sampling keeps them consistent.
  // Shed packets are accounted — the counter below and the
  // Horvitz-Thompson weight the LFTA folds survivors with — never silently
  // lost.
  PacketSource::Offer offer;
  if (tracer_ != nullptr) {
    offer.trace_id = tracer_->SampleInject();
    if (offer.trace_id != 0) {
      offer.trace_ns = tracer_->NowNs();
      tracer_->RecordInstant("inject", /*tid=*/0, offer.trace_id,
                             offer.trace_ns);
    }
  }
  ++inject_seq_;
  offer.weight = shed_state_.SampleK();
  offer.shed = offer.weight > 1 && (inject_seq_ % offer.weight) != 0;
  // Each source runs the LFTAs it feeds on the packet right here.
  bool boundary = false;
  for (PacketSource* source : it->second) {
    if (source->Inject(packet, offer)) boundary = true;
    if (offer.shed) ++shed_tuples_;
  }
  if (packet.timestamp > last_input_time_) {
    last_input_time_ = packet.timestamp;
  }
  MaybeEmitStats(packet.timestamp);
  MaybeRunShedCheck(packet.timestamp);
  if (boundary) PumpAfterInput();
  return Status::Ok();
}

Status Engine::InjectHeartbeat(std::string_view interface_name,
                               SimTime now) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectHeartbeat"));
  auto it = interface_sources_.find(interface_name);
  if (it == interface_sources_.end()) {
    return Status::NotFound("no protocol sources on interface '" +
                            std::string(interface_name) + "'");
  }
  for (PacketSource* source : it->second) source->Heartbeat(now);
  ++heartbeats_;
  if (now > last_input_time_) last_input_time_ = now;
  MaybeEmitStats(now);
  MaybeRunShedCheck(now);
  PumpAfterInput();
  return Status::Ok();
}

Status Engine::InjectRow(const std::string& stream_name,
                         const rts::Row& row) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectRow"));
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(stream_name));
  if (row.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "InjectRow: stream '" + stream_name + "' has " +
        std::to_string(schema.num_fields()) + " fields, the row has " +
        std::to_string(row.size()));
  }
  for (size_t f = 0; f < row.size(); ++f) {
    if (row[f].type() != schema.field(f).type) {
      return Status::InvalidArgument(
          "InjectRow: field '" + schema.field(f).name + "' of stream '" +
          stream_name + "' is " + gsql::DataTypeName(schema.field(f).type) +
          ", the row holds " + gsql::DataTypeName(row[f].type()));
    }
  }
  InjectWriter(stream_name)
      .WriteTuple(rts::TupleCodec(schema), row, rts::MessageMeta{});
  PumpAfterInput();
  return Status::Ok();
}

Status Engine::InjectPunctuation(const std::string& stream_name, size_t field,
                                 const expr::Value& bound) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectPunctuation"));
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(stream_name));
  if (field >= schema.num_fields()) {
    return Status::OutOfRange("punctuation field out of range");
  }
  const DataType type = schema.field(field).type;
  if (bound.type() != type || !expr::IsNumericType(type)) {
    return Status::InvalidArgument(
        "InjectPunctuation: a bound on field '" + schema.field(field).name +
        "' (" + gsql::DataTypeName(type) + ") must be a numeric value of "
        "that type, got " + gsql::DataTypeName(bound.type()));
  }
  rts::PackedBound packed{};
  expr::WriteValue(bound, packed.data());
  const rts::Bound bounds[] = {{field, packed.data()}};
  InjectWriter(stream_name)
      .WritePunctuation(bounds, schema, rts::MessageMeta{});
  PumpAfterInput();
  return Status::Ok();
}

rts::BatchWriter& Engine::InjectWriter(const std::string& stream_name) {
  // Batches of one: every call publishes what it injects before it
  // returns, so a codec built for the call outlives its use.
  return injected_.try_emplace(stream_name, &registry_, stream_name, 1)
      .first->second;
}

Status Engine::EmitStatsSnapshot(SimTime now) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("EmitStatsSnapshot"));
  stats_source_->EmitSnapshot(now);
  last_stats_emit_ = now;
  if (now > last_input_time_) last_input_time_ = now;
  PumpAfterInput();
  return Status::Ok();
}

void Engine::MaybeEmitStats(SimTime now) {
  if (options_.stats_period <= 0) return;
  if (now - last_stats_emit_ < options_.stats_period) return;
  stats_source_->EmitSnapshot(now);
  last_stats_emit_ = now;
}

void Engine::MaybeRunShedCheck(SimTime now) {
  if (shed_controller_ == nullptr) return;
  if (last_shed_check_ != 0 &&
      now - last_shed_check_ < options_.shed.check_period) {
    return;
  }
  last_shed_check_ = now;
  PressureSignals signals;
  signals.max_ring_occupancy = registry_.MaxOccupancyFraction();
  signals.total_drops = registry_.Total(&rts::RingChannel::dropped);
  for (const auto& [name, source] : sources_) {
    const SimTime last = source->last_punct_time();
    if (last > 0 && now > last) {
      signals.max_punct_lag = std::max(signals.max_punct_lag, now - last);
    }
  }
  for (const ops::LftaAggregateNode* node : lfta_agg_nodes_) {
    const size_t slots = node->table().num_slots();
    if (slots == 0) continue;
    signals.max_lfta_occupancy =
        std::max(signals.max_lfta_occupancy,
                 static_cast<double>(node->table().occupied()) /
                     static_cast<double>(slots));
  }
  shed_controller_->Check(signals);
}

Status Engine::AddNode(std::unique_ptr<rts::QueryNode> node) {
  GS_RETURN_IF_ERROR(CheckMutable("AddNode"));
  if (node == nullptr) return Status::InvalidArgument("null node");
  if (!registry_.HasStream(node->name())) {
    return Status::InvalidArgument(
        "custom node '" + node->name() +
        "' must declare its output stream before being added");
  }
  // Make the node's output visible to GSQL so queries can compose over it
  // (§3: the defrag operator feeds a query tree).
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(node->name()));
  catalog_.PutStreamSchema(schema);
  // A user node's input reads are opaque (it subscribed through the
  // registry before this call): assume it reads every field of every
  // protocol source, present and future.
  user_nodes_present_ = true;
  for (auto& [source_name, source] : sources_) source->WantAllFields();
  nodes_.push_back(std::move(node));
  // Custom nodes read stream channels, not raw packets: worker stage.
  node_stages_.resize(nodes_.size(), NodeStage::kHfta);
  RegisterNewNodeTelemetry();
  return Status::Ok();
}

void Engine::FlushInjectWriters() {
  stats_source_->Flush();
  for (auto& [name, source] : sources_) source->FlushBatch();
  for (auto& [name, writer] : injected_) writer.Flush();
}

size_t Engine::Pump(size_t budget_per_node) {
  // A Pump is a request to make progress: injected tuples still sitting in
  // open batches publish now rather than waiting for the batch-size
  // threshold (keeps inject→pump→read sequences working at any batch
  // size), and the inject thread's writers retry their parked
  // punctuations. The fed LFTAs' polls flush their output the same way.
  FlushInjectWriters();
  return PumpInjectNodes(budget_per_node);
}

size_t Engine::PumpInjectNodes(size_t budget_per_node) {
  for (size_t w = 0; w < worker_nodes_.size(); ++w) {
    if (!worker_adopted_[w] && pool_->Gone(w)) {
      AdoptWorker(w, /*resync=*/!pool_->keeps_state());
    }
  }
  size_t processed = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    // Worker-owned nodes are skipped: polling them here would add a second
    // consumer to their SPSC channels.
    if (i < node_worker_.size() && node_worker_[i] != kInjectThread) continue;
    processed += nodes_[i]->PollCounted(budget_per_node);
  }
  return processed;
}

void Engine::PumpAfterInput() {
  // At each boundary the inject thread's polls flush the fed LFTAs'
  // partial output batches to the workers.
  if (mode_ != PumpMode::kSingle) {
    PumpInjectNodes(kWorkerPollBudget);
  }
}

void Engine::PumpUntilIdle() {
  // Every writer retries its own parked punctuations when flushed. A retry
  // can only succeed once the consumer has read from the full ring, and
  // that read is progress, so the next round still runs and the consumer
  // reads what the retry delivered, wherever the two sit in node order.
  while (Pump() > 0) {
  }
}

size_t Engine::DrainWorkers() {
  size_t progress = 0;
  for (size_t w = 0; w < worker_nodes_.size(); ++w) {
    if (worker_adopted_[w]) continue;
    // The ack is the worker's running total, so messages it processed on
    // its own between drains count as progress too: a worker upstream of
    // an already-drained one may have fed it since.
    uint64_t processed = 0;
    if (pool_->Call(w, WorkerCommand::kDrain, 0, &processed)) {
      progress += static_cast<size_t>(processed - worker_drained_[w]);
      worker_drained_[w] = processed;
    } else {
      // Failed while draining: adopt, and run one more round so the
      // adopted nodes consume what the worker left behind.
      AdoptWorker(w, /*resync=*/true);
      progress += 1;
    }
  }
  return progress;
}

void Engine::DrainUntilIdle() {
  do {
    PumpUntilIdle();
  } while (DrainWorkers() > 0);
}

void Engine::FlushAll() {
  if (flushed_) return;  // idempotent: the engine is already sealed
  // From here a gone worker is adopted, never replaced, so the protocol
  // below never waits on a respawn (thread workers go right away).
  if (pool_ != nullptr) pool_->BeginSeal();
  DrainUntilIdle();  // also publishes any open source batches
  // One terminal telemetry snapshot before the engine seals: the periodic
  // gate in MaybeEmitStats can skip the tail of the run, under-reporting
  // end-of-run counters to gs_stats consumers. Emitted before the node
  // flush below so stats-fed queries process it like any other input.
  if (options_.stats_period > 0) {
    stats_source_->EmitSnapshot(last_input_time_);
    last_stats_emit_ = last_input_time_;
    DrainUntilIdle();
  }
  // Flush node by node, upstream first, each inside its owner, draining
  // between steps so flushed state propagates down the chain. A worker
  // that fails mid-seal is adopted (its inputs resync) and the node
  // flushes here instead.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const int w = i < node_worker_.size() ? node_worker_[i] : kInjectThread;
    bool flushed_in_worker = false;
    if (w != kInjectThread) {
      const std::vector<size_t>& group = worker_nodes_[w];
      const auto local = static_cast<uint64_t>(
          std::find(group.begin(), group.end(), i) - group.begin());
      flushed_in_worker =
          pool_->Call(w, WorkerCommand::kFlushNode, local, nullptr);
      if (!flushed_in_worker) AdoptWorker(w, /*resync=*/true);
    }
    if (!flushed_in_worker) nodes_[i]->Flush();
    DrainUntilIdle();
  }
  // The seal left the workers' rings empty, so their nodes come back
  // without a resync; anything a failed worker left drains here.
  StopWorkers(/*resync=*/false);
  PumpUntilIdle();
  flushed_ = true;
}

Status Engine::StartThreads(size_t workers) {
  return StartWorkers(PumpMode::kThreads, workers);
}

Status Engine::StartProcesses(size_t workers) {
  return StartWorkers(PumpMode::kProcesses, workers);
}

void Engine::StopThreads() {
  if (mode_ == PumpMode::kThreads) StopWorkers(/*resync=*/true);
}

void Engine::StopProcesses() {
  if (mode_ == PumpMode::kProcesses) StopWorkers(/*resync=*/true);
}

Status Engine::StartWorkers(PumpMode mode, size_t workers) {
  const bool processes = mode == PumpMode::kProcesses;
  const std::string operation =
      processes ? "StartProcesses" : "StartThreads";
  if (mode_ != PumpMode::kSingle) {
    return Status::FailedPrecondition(
        operation + ": worker " + pump_mode_ +
        " are already running; the two backends are exclusive");
  }
  GS_RETURN_IF_ERROR(CheckAcceptingInput(operation.c_str()));
  if (workers == 0) {
    return Status::InvalidArgument(operation +
                                   " needs at least one worker");
  }
  node_stages_.resize(nodes_.size(), NodeStage::kHfta);
  std::vector<size_t> hfta;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (node_stages_[i] == NodeStage::kHfta) hfta.push_back(i);
  }
  const size_t pool = std::min(workers, hfta.size());
  std::vector<std::vector<size_t>> partition(pool);
  for (size_t i = 0; i < hfta.size(); ++i) {
    partition[i % pool].push_back(hfta[i]);
  }
  if (processes) GS_RETURN_IF_ERROR(PrepareProcessWorkers(partition));
  worker_nodes_ = std::move(partition);
  worker_adopted_.assign(pool, 0);
  worker_drained_.assign(pool, 0);
  node_worker_.assign(nodes_.size(), kInjectThread);
  std::vector<WorkerGroup> groups(pool);
  for (size_t w = 0; w < pool; ++w) {
    for (size_t idx : worker_nodes_[w]) {
      node_worker_[idx] = static_cast<int>(w);
      groups[w].nodes.push_back(nodes_[idx].get());
    }
  }
  adopted_resync_.store(0, std::memory_order_relaxed);
  mode_ = mode;
  pump_mode_ = processes ? "processes" : "threads";
  pool_ = nullptr;
  if (pool == 0) return Status::Ok();  // everything is LFTA-stage

  // Worker-owned nodes' metrics read as their worker's (gs_stats proc
  // column, ANALYZE placement).
  for (size_t w = 0; w < pool; ++w) {
    for (size_t idx : worker_nodes_[w]) {
      telemetry_.SetEntityProc(nodes_[idx]->name(), "w" + std::to_string(w));
    }
  }
  if (processes) {
    supervisor_ = std::make_unique<Supervisor>(
        options_.supervisor, pool,
        [this, groups](size_t w, uint32_t generation) {
          RunProcessWorker(groups[w], w, generation);
        });
    pool_ = supervisor_.get();
  } else {
    // Slot w's park histogram outlives any one pool (the registry reader
    // must) and is registered once.
    std::vector<telemetry::Histogram*> park_ns;
    for (size_t w = 0; w < pool; ++w) {
      if (w >= worker_park_ns_.size()) {
        worker_park_ns_.push_back(std::make_unique<telemetry::Histogram>());
        telemetry_.RegisterHistogram("worker" + std::to_string(w),
                                     metric::kParkNs,
                                     worker_park_ns_.back().get());
      }
      park_ns.push_back(worker_park_ns_[w].get());
    }
    threads_ = std::make_unique<ThreadPool>(
        std::move(groups), kWorkerPollBudget, std::move(park_ns));
    pool_ = threads_.get();
  }
  return pool_->Start();
}

Status Engine::PrepareProcessWorkers(
    const std::vector<std::vector<size_t>>& worker_nodes) {
  // The rings that cross the process boundary: those a worker node reads
  // (QueryNode::inputs) or publishes into. The rest stay on the heap.
  std::vector<rts::Subscription> crossing;
  for (const std::vector<size_t>& group : worker_nodes) {
    for (size_t idx : group) {
      const rts::QueryNode& node = *nodes_[idx];
      crossing.insert(crossing.end(), node.inputs().begin(),
                      node.inputs().end());
      for (rts::Subscription& output : registry_.Subscribers(node.name())) {
        crossing.push_back(std::move(output));
      }
    }
  }
  // Torn-slot fault: only a shared ring has slots to tear. Arm the
  // producer side of the stream's shared rings before forking, so
  // whichever process publishes into the stream inherits the armed flag.
  std::vector<rts::Subscription> torn;
  if (options_.fault.kind == FaultConfig::Kind::kTorn) {
    torn = registry_.Subscribers(options_.fault.stream);
    std::erase_if(torn, [&crossing](const rts::Subscription& channel) {
      return std::find(crossing.begin(), crossing.end(), channel) ==
             crossing.end();
    });
    if (torn.empty()) {
      return Status::InvalidArgument(
          "torn fault: no worker process reads or publishes stream '" +
          options_.fault.stream + "', so it has no shared ring to tear");
    }
  }
  for (const rts::Subscription& channel : crossing) channel->Share();
  for (const rts::Subscription& channel : torn) {
    channel->ArmTornFault(options_.fault.nth);
  }
  metric_cells_.resize(nodes_.size());
  for (const std::vector<size_t>& group : worker_nodes) {
    for (size_t idx : group) {
      // Tracer spans recorded in a child would die with its heap (and the
      // tracer's mutex must not be shared across fork); worker nodes run
      // untraced in process mode.
      nodes_[idx]->SetTracer(nullptr, 0);
      // From here on the node counts in shared cells, bound once, which
      // whichever process polls it writes and the parent reads (§16).
      const std::string& name = nodes_[idx]->name();
      const size_t cells = telemetry_.CellCount(name);
      if (metric_cells_[idx] != nullptr || cells == 0) continue;
      using Cell = std::atomic<uint64_t>;
      metric_cells_[idx] = rts::ShmSegment::Create(cells * sizeof(Cell));
      auto* cell = metric_cells_[idx]->As<Cell>();
      for (size_t i = 0; i < cells; ++i) new (&cell[i]) Cell(0);
      telemetry_.BindCells(name, cell);
    }
  }
  if (process_telemetry_registered_) return Status::Ok();
  process_telemetry_registered_ = true;
  // Ring-health counters live in the shared control blocks, so the
  // parent's aggregate readers see child-side progress.
  const auto total = [this](rts::StreamRegistry::RingCounter counter) {
    return [this, counter] { return registry_.Total(counter); };
  };
  telemetry_.RegisterReader("engine", metric::kTornSlots,
                            total(&rts::RingChannel::torn));
  telemetry_.RegisterReader("engine", metric::kResyncDropped,
                            total(&rts::RingChannel::resync_dropped));
  telemetry_.RegisterReader("engine", metric::kOversizeDropped,
                            total(&rts::RingChannel::oversize_dropped));
  telemetry_.RegisterReader("engine", metric::kWorkerRestarts, [this] {
    return supervisor_ != nullptr ? supervisor_->restarts() : 0;
  });
  telemetry_.RegisterReader("engine", metric::kHeartbeatMisses, [this] {
    return supervisor_ != nullptr ? supervisor_->heartbeat_misses() : 0;
  });
  telemetry_.RegisterReader("engine", metric::kWorkersDegraded, [this] {
    return supervisor_ != nullptr ? supervisor_->degraded_count() : 0;
  });
  // Every restart and every degraded-worker adoption opens exactly one
  // punctuation-bounded recovery gap.
  telemetry_.RegisterReader("engine", metric::kResyncGaps, [this] {
    return (supervisor_ != nullptr ? supervisor_->restarts() : 0) +
           adopted_resync_.load(std::memory_order_relaxed);
  });
  return Status::Ok();
}

void Engine::RunProcessWorker(const WorkerGroup& group, size_t worker,
                              uint32_t generation) {
  WorkerControl* control = supervisor_->control(worker);
  // A restarted incarnation forked from the parent's pristine operator
  // state: the dead incarnation's partial groups are gone, so discard
  // mid-window input until the next punctuation boundary re-anchors the
  // stream. The ring's read position itself lives in shm and carries over,
  // and so do the nodes' metric cells: this incarnation keeps counting
  // where the dead one stopped.
  if (generation > 1) {
    for (rts::QueryNode* node : group.nodes) {
      for (const rts::Subscription& input : node->inputs()) {
        input->BeginResync();
      }
    }
  }
  FaultInjector faults(options_.fault, worker, &control->fault_fired);
  // Cross-process pushes cannot wake a sleeping child; it polls instead.
  RunWorkerLoop(control, group, kWorkerPollBudget, &faults,
                [] { usleep(200); });
}

void Engine::StopWorkers(bool resync) {
  if (mode_ == PumpMode::kSingle) return;
  if (pool_ != nullptr) pool_->StopAll();
  // Threads' nodes kept their state in this process; a stopped process
  // took its partial windows with it.
  const bool lost_state = pool_ != nullptr && !pool_->keeps_state();
  for (size_t w = 0; w < worker_nodes_.size(); ++w) {
    AdoptWorker(w, resync && lost_state);
  }
  mode_ = PumpMode::kSingle;
  pool_ = nullptr;
}

void Engine::AdoptWorker(size_t worker, bool resync) {
  if (worker_adopted_[worker]) return;
  worker_adopted_[worker] = 1;
  for (size_t idx : worker_nodes_[worker]) {
    node_worker_[idx] = kInjectThread;
    // The inject thread polls the node and produces into its output rings
    // now. Its metrics move under the parent's proc tag; shared cells stay
    // bound (single writer again, just a different one).
    telemetry_.SetEntityProc(nodes_[idx]->name(), telemetry::kProcRts);
    if (resync) {
      for (const rts::Subscription& input : nodes_[idx]->inputs()) {
        input->BeginResync();
      }
    }
  }
  if (resync) adopted_resync_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Engine::NodeStats> Engine::GetNodeStats() const {
  std::vector<NodeStats> stats;
  stats.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    stats.push_back({node->name(), node->tuples_in(), node->tuples_out(),
                     node->eval_errors()});
  }
  return stats;
}

}  // namespace gigascope::core
