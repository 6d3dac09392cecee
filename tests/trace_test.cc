// Tests for the profiling layer: log-bucketed histograms (exact
// percentiles on bucket-boundary values), deterministic trace sampling,
// the Chrome trace-event JSON serialization (required keys, track
// ordering), end-to-end trace propagation through a split query, and a
// TSan-checked histogram-snapshot-vs-workers race.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "expr/codegen.h"
#include "net/headers.h"
#include "ops/aggregate.h"
#include "ops/defrag.h"
#include "ops/join.h"
#include "ops/lfta_agg.h"
#include "ops/merge.h"
#include "ops/select_project.h"
#include "ops/tcp_session.h"
#include "telemetry/histogram.h"
#include "telemetry/metric_names.h"
#include "telemetry/registry.h"
#include "telemetry/tracer.h"

namespace gigascope::telemetry {
namespace {

using core::Engine;
using core::EngineOptions;

net::Packet MakeTcpPacket(SimTime timestamp, uint32_t dst_addr) {
  net::TcpPacketSpec spec;
  spec.src_addr = 0xac100001;
  spec.dst_addr = dst_addr;
  spec.src_port = 40000;
  spec.dst_port = 80;
  spec.flags = net::kTcpFlagAck;
  spec.payload = "x";
  net::Packet packet;
  packet.bytes = net::BuildTcpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = timestamp;
  return packet;
}

// ---------------------------------------------------------------- histogram

TEST(HistogramTest, BucketIndexing) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), 63);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
}

// Values of the form 2^k - 1 sit exactly on bucket upper bounds, so the
// percentile report is exact and the test can assert equality.
TEST(HistogramTest, ExactPercentilesOnBucketBounds) {
  Histogram histogram;
  // 100 values: 50x 15, 40x 255, 10x 4095.
  for (int i = 0; i < 50; ++i) histogram.Record(15);
  for (int i = 0; i < 40; ++i) histogram.Record(255);
  for (int i = 0; i < 10; ++i) histogram.Record(4095);

  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.TotalInBuckets(), 100u);
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_EQ(snapshot.max, 4095u);
  EXPECT_EQ(snapshot.sum, 50u * 15 + 40u * 255 + 10u * 4095);
  EXPECT_EQ(snapshot.Percentile(0.50), 15u);
  EXPECT_EQ(snapshot.Percentile(0.90), 255u);
  EXPECT_EQ(snapshot.Percentile(0.99), 4095u);
  EXPECT_EQ(snapshot.Percentile(1.0), 4095u);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), (50.0 * 15 + 40 * 255 + 10 * 4095) / 100);
}

TEST(HistogramTest, EmptyAndSingle) {
  Histogram histogram;
  HistogramSnapshot empty = histogram.Snapshot();
  EXPECT_EQ(empty.Percentile(0.5), 0u);
  EXPECT_EQ(empty.Mean(), 0.0);
  histogram.Record(0);
  HistogramSnapshot one = histogram.Snapshot();
  EXPECT_EQ(one.TotalInBuckets(), 1u);
  EXPECT_EQ(one.Percentile(0.5), 0u);
  EXPECT_EQ(one.max, 0u);
}

// Registry integration: one histogram fans out to the five derived gauges.
TEST(HistogramTest, RegistryGauges) {
  Registry registry;
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(i < 90 ? 63 : 1023);
  registry.RegisterHistogram("node", "lat_ns", &histogram);

  std::map<std::string, uint64_t> values;
  for (const MetricSample& sample : registry.Snapshot()) {
    values[sample.metric] = sample.value;
  }
  EXPECT_EQ(values.at("lat_ns_p50"), 63u);
  EXPECT_EQ(values.at("lat_ns_p90"), 63u);
  EXPECT_EQ(values.at("lat_ns_p99"), 1023u);
  EXPECT_EQ(values.at("lat_ns_max"), 1023u);
  EXPECT_EQ(values.at("lat_ns_count"), 100u);
}

// ------------------------------------------------------------------ tracer

// The sampling decision is a seeded RNG: the same seed must tag the same
// injections, and different seeds should disagree somewhere.
TEST(TracerTest, DeterministicSampling) {
  std::vector<int> tagged_a;
  std::vector<int> tagged_b;
  Tracer a(8, /*seed=*/42);
  Tracer b(8, /*seed=*/42);
  Tracer c(8, /*seed=*/7);
  std::vector<int> tagged_c;
  for (int i = 0; i < 1000; ++i) {
    if (a.SampleInject() != 0) tagged_a.push_back(i);
    if (b.SampleInject() != 0) tagged_b.push_back(i);
    if (c.SampleInject() != 0) tagged_c.push_back(i);
  }
  EXPECT_EQ(tagged_a, tagged_b);
  EXPECT_NE(tagged_a, tagged_c);
  // 1-in-8 over 1000 trials: loose bounds that cannot flake under a
  // deterministic seed (this is a regression pin, not a statistics test).
  EXPECT_GT(tagged_a.size(), 60u);
  EXPECT_LT(tagged_a.size(), 250u);
  EXPECT_EQ(a.sampled(), tagged_a.size());
}

TEST(TracerTest, SamplePeriodOneTagsEverything) {
  Tracer tracer(1);
  for (uint64_t i = 1; i <= 50; ++i) {
    EXPECT_EQ(tracer.SampleInject(), i);  // ids are dense from 1
  }
  EXPECT_EQ(tracer.sampled(), 50u);
}

TEST(TracerTest, EventsSortedPerTrack) {
  Tracer tracer(1);
  tracer.RecordInstant("late", 2, 1, 300);
  tracer.RecordInstant("early", 2, 1, 100);
  tracer.RecordSpan("span", 1, 1, 50, 90);
  auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by (tid, ts).
  EXPECT_EQ(events[0].name, "span");
  EXPECT_EQ(events[1].name, "early");
  EXPECT_EQ(events[2].name, "late");
  EXPECT_EQ(events[0].dur_ns, 40);
}

TEST(TracerTest, DropsEventsPastCap) {
  Tracer tracer(1, 42, /*max_events=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.RecordInstant("e", 0, 1, i);
  }
  EXPECT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
}

// Minimal JSON scanner: the trace-event format is one event object per
// line, so required keys can be checked per line without a JSON library.
std::vector<std::string> EventLines(const std::string& json) {
  std::vector<std::string> lines;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"ph\":", 0) == 0) lines.push_back(line);
  }
  return lines;
}

TEST(TracerTest, WriteJsonHasRequiredKeys) {
  Tracer tracer(1);
  tracer.SetTrackName(0, "inject");
  tracer.SetTrackName(1, "node");
  tracer.RecordInstant("inject", 0, 1, 1500);
  tracer.RecordSpan("node", 1, 1, 2000, 125'000);
  std::ostringstream out;
  tracer.WriteJson(out);
  const std::string json = out.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.find("]}"), json.size() - 3);  // trailing newline

  auto lines = EventLines(json);
  // 2 thread_name metadata + 2 recorded events.
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines) {
    for (const char* key : {"\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":",
                            "\"name\":"}) {
      EXPECT_NE(line.find(key), std::string::npos)
          << "missing " << key << " in " << line;
    }
  }
  // ts converts ns -> us with fractional precision preserved.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":123.000"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // instant scope
}

// ------------------------------------------------- end-to-end trace + stats

// A split aggregate with tracing on: every packet is tagged, spans appear
// for LFTA and HFTA nodes, the terminal node emits `:emit` instants and an
// e2e latency histogram, and the JSON is monotone per track.
TEST(TraceEngineTest, SplitQueryEndToEnd) {
  EngineOptions options;
  options.trace_sample = 1;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name persec; } "
                            "SELECT tb, destIP, count(*) FROM eth0.PKT "
                            "WHERE protocol = 6 GROUP BY time AS tb, destIP")
                  .ok());
  auto sub = engine.Subscribe("persec");
  ASSERT_TRUE(sub.ok());

  for (int second = 1; second <= 5; ++second) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(engine
                      .InjectPacket("eth0",
                                    MakeTcpPacket(second * kNanosPerSecond,
                                                  0x0a000000 + (i % 4)))
                      .ok());
    }
  }
  engine.PumpUntilIdle();
  engine.FlushAll();

  ASSERT_NE(engine.tracer(), nullptr);
  EXPECT_EQ(engine.tracer()->sampled(), 100u);

  auto events = engine.tracer()->events();
  std::map<std::string, size_t> by_name;
  std::map<uint32_t, int64_t> last_ts;
  for (const TraceEvent& event : events) {
    ++by_name[event.name];
    EXPECT_GE(event.ts_ns, last_ts[event.tid]);  // monotone per track
    last_ts[event.tid] = event.ts_ns;
    EXPECT_GE(event.trace_id, 1u);
  }
  EXPECT_EQ(by_name.at("inject"), 100u);
  EXPECT_GT(by_name.at("persec_lfta"), 0u);   // LFTA pre-aggregate spans
  EXPECT_GT(by_name.at("persec"), 0u);        // terminal HFTA spans
  EXPECT_GT(by_name.at("persec:emit"), 0u);   // terminal emit instants

  // The e2e latency histogram lives on the terminal node only.
  auto samples = engine.telemetry().Snapshot();
  std::optional<uint64_t> e2e_count;
  std::optional<uint64_t> e2e_p50;
  bool lfta_has_e2e = false;
  for (const MetricSample& sample : samples) {
    if (sample.metric == std::string(metric::kE2eLatencyNs) + "_count") {
      if (sample.entity == "persec") e2e_count = sample.value;
      if (sample.entity == "persec_lfta") lfta_has_e2e = true;
    }
    if (sample.entity == "persec" &&
        sample.metric == std::string(metric::kE2eLatencyNs) + "_p50") {
      e2e_p50 = sample.value;
    }
  }
  ASSERT_TRUE(e2e_count.has_value());
  EXPECT_GT(*e2e_count, 0u);
  ASSERT_TRUE(e2e_p50.has_value());
  EXPECT_GT(*e2e_p50, 0u);
  EXPECT_FALSE(lfta_has_e2e);
}

// The split aggregate's LFTA table is fed in place by the packet source.
// The packet that opens a new second drains it: that one traced packet
// carries the fed LFTA's span, and the HFTA group close its punctuation
// causes emits under the same trace, recording the terminal's inject->emit
// latency.
TEST(TraceEngineTest, FedLftaSpanAndTerminalEmitShareATrace) {
  EngineOptions options;
  options.trace_sample = 1;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name persec; } "
                            "SELECT tb, destIP, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb, destIP")
                  .ok());
  auto sub = engine.Subscribe("persec");
  ASSERT_TRUE(sub.ok());
  for (int second = 1; second <= 3; ++second) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(engine
                      .InjectPacket("eth0",
                                    MakeTcpPacket(second * kNanosPerSecond,
                                                  0x0a000000 + (i % 2)))
                      .ok());
    }
  }
  engine.PumpUntilIdle();

  std::map<uint64_t, std::set<std::string>> names_by_trace;
  for (const TraceEvent& event : engine.tracer()->events()) {
    names_by_trace[event.trace_id].insert(event.name);
  }
  size_t shared = 0;
  for (const auto& [trace_id, names] : names_by_trace) {
    if (names.count("persec_lfta") > 0 && names.count("persec:emit") > 0) {
      ++shared;
    }
  }
  EXPECT_GT(shared, 0u);
  std::optional<uint64_t> e2e_count;
  for (const MetricSample& sample : engine.telemetry().Snapshot()) {
    if (sample.entity == "persec" &&
        sample.metric == std::string(metric::kE2eLatencyNs) + "_count") {
      e2e_count = sample.value;
    }
  }
  ASSERT_TRUE(e2e_count.has_value());
  EXPECT_GT(*e2e_count, 0u);
}

// Tracing off (the default): no tracer, no trace fields on outputs, and no
// trace metrics registered.
TEST(TraceEngineTest, DisabledByDefault) {
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name q; } "
                            "SELECT time, destIP FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  ASSERT_TRUE(
      engine.InjectPacket("eth0", MakeTcpPacket(kNanosPerSecond, 1)).ok());
  engine.PumpUntilIdle();
  EXPECT_EQ(engine.tracer(), nullptr);
  for (const MetricSample& sample : engine.telemetry().Snapshot()) {
    EXPECT_NE(sample.metric, metric::kTraceSampled);
  }
}

// Same injection sequence, same seed => identical traced packet set (the
// property that makes a trace reproducible run-over-run).
TEST(TraceEngineTest, ReproducibleAcrossRuns) {
  auto run = [] {
    EngineOptions options;
    options.trace_sample = 4;
    Engine engine(options);
    engine.AddInterface("eth0");
    EXPECT_TRUE(engine
                    .AddQuery("DEFINE { query_name q; } "
                              "SELECT time, destIP FROM eth0.PKT "
                              "WHERE protocol = 6")
                    .ok());
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(
          engine.InjectPacket("eth0", MakeTcpPacket(kNanosPerSecond, i)).ok());
    }
    engine.PumpUntilIdle();
    engine.FlushAll();
    // The instants' trace ids identify which injections were tagged.
    std::vector<uint64_t> ids;
    for (const TraceEvent& event : engine.tracer()->events()) {
      if (event.name == "inject") ids.push_back(event.trace_id);
    }
    return std::make_pair(engine.tracer()->sampled(), ids);
  };
  auto [count_a, ids_a] = run();
  auto [count_b, ids_b] = run();
  EXPECT_EQ(count_a, count_b);
  EXPECT_EQ(ids_a, ids_b);
  EXPECT_GT(count_a, 20u);
  EXPECT_LT(count_a, 90u);
}

// Trace context does not survive the process boundary: worker processes
// run without a tracer (the parent's event log is not in shared memory),
// so a tagged message crossing an shm ring into a worker must be counted
// as truncated — the observability plane reports the blind spot instead
// of silently losing spans. The counter itself counts in a shared cell,
// so the parent's snapshot sees it.
TEST(TraceEngineTest, ProcessModeCountsTruncatedTraces) {
  EngineOptions options;
  options.trace_sample = 1;  // tag everything: partials must carry ids
  options.punctuation_interval = 32;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name persec; } "
                            "SELECT tb, destIP, count(*) FROM eth0.PKT "
                            "WHERE protocol = 6 GROUP BY time AS tb, destIP")
                  .ok());
  auto sub = engine.Subscribe("persec", 1 << 14);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartProcesses(1).ok());

  for (int second = 1; second <= 20; ++second) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(engine
                      .InjectPacket("eth0",
                                    MakeTcpPacket(second * kNanosPerSecond,
                                                  0x0a000000 + (i % 4)))
                      .ok());
    }
    engine.Pump();
  }
  engine.FlushAll();

  uint64_t truncated = 0;
  std::string truncating_entities;
  bool hfta_counts_truncation = false;
  for (const MetricSample& sample : engine.telemetry().Snapshot()) {
    if (sample.metric == metric::kTraceTruncated && sample.value > 0) {
      truncated += sample.value;
      truncating_entities += sample.entity + " ";
      // Only the worker-side (HFTA) nodes lose their tracer; all their
      // runtime names derive from the query name.
      if (sample.entity.rfind("persec", 0) == 0 &&
          sample.entity != "persec_lfta") {
        hfta_counts_truncation = true;
      }
    }
  }
  EXPECT_GT(truncated, 0u) << "no truncation recorded: either trace "
                              "context now propagates (update this test) "
                              "or the blind spot went unreported";
  EXPECT_TRUE(hfta_counts_truncation)
      << "truncation counted outside the worker: " << truncating_entities;
  // The parent-side nodes kept their tracer; spans still exist for the
  // LFTA half of the split.
  ASSERT_NE(engine.tracer(), nullptr);
  EXPECT_GT(engine.tracer()->sampled(), 0u);
  int rows = 0;
  while ((*sub)->NextRow()) ++rows;
  EXPECT_GT(rows, 0);
}

// --------------------------------------------------------------- input loop

/// The built-in PKT schema as stream `name`, with `prefix` before every
/// field name.
gsql::StreamSchema PacketStream(const std::string& name,
                                const std::string& prefix = "") {
  std::vector<gsql::FieldDef> fields =
      gsql::Catalog::BuiltinPacketSchema().fields();
  for (gsql::FieldDef& field : fields) field.name = prefix + field.name;
  return gsql::StreamSchema(name, gsql::StreamKind::kStream, fields);
}

/// Field `name` of `schema`, as a compiled column reference.
expr::CompiledExpr Column(const gsql::StreamSchema& schema,
                          const std::string& name) {
  const size_t field = *schema.FieldIndex(name);
  auto compiled = expr::Compile(
      expr::MakeFieldRef(0, field, schema.field(field).type, name));
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

/// GROUP BY time, destIP with count(*), ordered on time.
ops::OrderedAggregateNode::Spec CountSpec(const std::string& name,
                                          const gsql::StreamSchema& input) {
  ops::OrderedAggregateNode::Spec spec;
  spec.name = name;
  spec.input_schema = input;
  spec.output_schema = gsql::StreamSchema(
      name, gsql::StreamKind::kStream,
      {{"time", gsql::DataType::kUint, gsql::OrderSpec::Increasing()},
       {"destIP", gsql::DataType::kIp, gsql::OrderSpec::None()},
       {"cnt", gsql::DataType::kUint, gsql::OrderSpec::None()}});
  spec.keys.push_back(Column(input, "time"));
  spec.keys.push_back(Column(input, "destIP"));
  expr::AggregateSpec count;
  count.fn = expr::AggFn::kCount;
  count.result_type = gsql::DataType::kUint;
  spec.agg_specs.push_back(count);
  spec.agg_args.emplace_back();
  spec.ordered_key = 0;
  spec.key_punctuation_source = {static_cast<int>(*input.FieldIndex("time")),
                                 -1};
  return spec;
}

// Every operator reads its input through QueryNode's one loop. With no
// tracer attached, as on a worker process's nodes, each traced message is
// counted as truncated; a tuple that fails framing counts in tuples_in and
// eval_errors and goes no further.
TEST(TraceInputLoopTest, EveryOperatorBracketsCountsAndFramesItsInput) {
  rts::StreamRegistry registry;
  const gsql::StreamSchema pkt = PacketStream("in");
  const size_t time = *pkt.FieldIndex("time");
  const auto ring = [] { return std::make_shared<rts::RingChannel>(16); };

  struct Case {
    std::unique_ptr<rts::QueryNode> node;
    rts::Subscription input;  // the ring the messages go to
    uint64_t outputs;         // tuples the framed tuple yields
  };
  std::vector<Case> cases;

  ops::SelectProjectNode::Spec select;
  select.name = "select";
  select.input_schema = pkt;
  select.output_schema = gsql::StreamSchema(
      "select", gsql::StreamKind::kStream,
      {{"time", gsql::DataType::kUint, gsql::OrderSpec::Increasing()},
       {"destIP", gsql::DataType::kIp, gsql::OrderSpec::None()}});
  select.projections.push_back(Column(pkt, "time"));
  select.projections.push_back(Column(pkt, "destIP"));
  select.punctuation_source = {static_cast<int>(time), -1};
  rts::Subscription input = ring();
  cases.push_back({std::make_unique<ops::SelectProjectNode>(
                       select, input, &registry, nullptr),
                   input, 1});

  ops::MergeNode::Spec merge;
  merge.name = "merge";
  merge.schema = pkt;
  merge.merge_field = time;
  input = ring();
  cases.push_back(
      {std::make_unique<ops::MergeNode>(
           merge, std::vector<rts::Subscription>{input, ring()}, &registry),
       input, 1});

  ops::WindowJoinNode::Spec join;
  join.name = "join";
  join.left_schema = pkt;
  join.right_schema = pkt;
  std::vector<gsql::FieldDef> joined = PacketStream("", "l_").fields();
  const gsql::StreamSchema right = PacketStream("", "r_");
  joined.insert(joined.end(), right.fields().begin(), right.fields().end());
  join.output_schema =
      gsql::StreamSchema("join", gsql::StreamKind::kStream, joined);
  join.left_field = time;
  join.right_field = time;
  input = ring();
  // No right tuple arrives, so nothing joins.
  cases.push_back({std::make_unique<ops::WindowJoinNode>(
                       join, input, ring(), &registry, nullptr),
                   input, 0});

  input = ring();
  cases.push_back({std::make_unique<ops::LftaAggregateNode>(
                       CountSpec("lfta", pkt), 4, input, &registry, nullptr),
                   input, 1});
  input = ring();
  cases.push_back({std::make_unique<ops::OrderedAggregateNode>(
                       CountSpec("hfta", pkt), input, &registry, nullptr),
                   input, 1});

  ops::IpDefragNode::Spec defrag;
  defrag.name = "defrag";
  defrag.input_schema = pkt;
  input = ring();
  auto defrag_node = ops::IpDefragNode::Create(defrag, input, &registry);
  ASSERT_TRUE(defrag_node.ok()) << defrag_node.status().ToString();
  cases.push_back({std::move(defrag_node).value(), input, 1});

  ops::TcpSessionNode::Spec session;
  session.name = "session";
  session.input_schema = pkt;
  input = ring();
  auto session_node = ops::TcpSessionNode::Create(session, input, &registry);
  ASSERT_TRUE(session_node.ok()) << session_node.status().ToString();
  // The SYN opens a session, which Flush closes as a timeout.
  cases.push_back({std::move(session_node).value(), input, 1});

  // One batch: a traced framed tuple (an unfragmented TCP SYN), the same
  // tuple cut one byte short, and a traced punctuation past its time.
  net::TcpPacketSpec syn;
  syn.src_addr = 0xac100001;
  syn.dst_addr = 0x0a000001;
  syn.src_port = 40000;
  syn.dst_port = 80;
  syn.flags = net::kTcpFlagSyn;
  syn.payload = "x";
  net::Packet packet;
  packet.bytes = net::BuildTcpPacket(syn);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = 5 * kNanosPerSecond;
  ByteBuffer tuple;
  rts::TupleCodec(pkt).Encode(core::InterpretPacket(pkt, packet), &tuple);
  rts::MessageMeta traced;
  traced.trace_id = 7;
  traced.trace_ns = 1;
  rts::StreamBatch batch;
  batch.Append(traced, ByteSpan(tuple.data(), tuple.size()));
  batch.Append(traced, ByteSpan(tuple.data(), tuple.size() - 1));
  uint8_t six[8];
  StoreLe64(six, 6);
  const rts::Bound bound[] = {{time, six}};
  rts::AppendPunctuation(bound, pkt, traced, &batch);

  for (Case& c : cases) {
    const std::string& name = c.node->name();
    ASSERT_TRUE(c.input->TryPush(rts::StreamBatch(batch))) << name;
    EXPECT_EQ(c.node->Poll(64), 3u) << name;
    c.node->Flush();
    EXPECT_EQ(c.node->tuples_in(), 2u) << name;
    EXPECT_EQ(c.node->eval_errors(), 1u) << name;
    EXPECT_EQ(c.node->trace_truncated(), 3u) << name;
    EXPECT_EQ(c.node->tuples_out(), c.outputs) << name;
  }
}

// ------------------------------------------------------------- concurrency

// TSan coverage: histogram gauges (p50/p99 of poll/tuple/ring-occupancy
// histograms) snapshotted from a control thread while the inject thread
// and a worker pool write them. Any unsynchronized access is a TSan report
// when this runs in the -DGS_SANITIZE=thread build (ctest -L concurrency).
TEST(TraceEngineTest, HistogramSnapshotsWhileWorkersPump) {
  EngineOptions options;
  options.trace_sample = 16;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, destIP, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb, destIP")
                  .ok());
  auto sub = engine.Subscribe("agg", 1 << 16);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartThreads(2).ok());

  std::atomic<bool> done{false};
  std::thread injector([&] {
    for (int i = 0; i < 10000; ++i) {
      SimTime timestamp =
          kNanosPerSecond + (static_cast<SimTime>(i) * kNanosPerSecond) / 500;
      engine
          .InjectPacket("eth0",
                        MakeTcpPacket(timestamp, 0x0a000000 + (i % 16)))
          .ok();
    }
    done.store(true, std::memory_order_release);
  });

  while (!done.load(std::memory_order_acquire)) {
    auto samples = engine.telemetry().Snapshot();
    EXPECT_FALSE(samples.empty());
    // The tracer's event log is also safe to read concurrently.
    engine.tracer()->events();
  }
  injector.join();
  engine.FlushAll();

  auto samples = engine.telemetry().Snapshot();
  std::optional<uint64_t> poll_count;
  for (const MetricSample& sample : samples) {
    if (sample.entity == "agg" &&
        sample.metric == std::string(metric::kPollNs) + "_count") {
      poll_count = sample.value;
    }
  }
  ASSERT_TRUE(poll_count.has_value());
  EXPECT_GT(*poll_count, 0u);
}

}  // namespace
}  // namespace gigascope::telemetry
