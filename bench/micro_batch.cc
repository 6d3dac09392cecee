// Microbenchmark: what tuple batching buys on the ring hop. One ring slot
// now carries a whole StreamBatch, so the per-message cost of the handoff
// — the atomic head/tail dance, the waker check, the counter updates —
// amortizes over the batch. Sweeping the batch size shows the curve the
// engine's batch_max_size default (64) sits on; size 1 is the old
// per-tuple data plane.
//
// Two more cases price a pump round (one Engine::PumpUntilIdle call): a
// closed-loop sweep of the perfbench agg_paced query at k packets per
// round (and of the same traffic under computed group keys), and one
// window close of N groups in the HFTA aggregate. One prices the
// subscriber edge: rows read out through TupleSubscription::NextRow. A
// last one prices a window join whose residual predicate compares
// strings: the VM loading fields from two packed tuples.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "expr/codegen.h"
#include "ops/aggregate.h"
#include "ops/join.h"
#include "rts/punctuation.h"
#include "rts/ring.h"
#include "workload/traffic_gen.h"

namespace {

using gigascope::rts::RingChannel;
using gigascope::rts::MessageMeta;
using gigascope::rts::StreamBatch;

StreamBatch MakeBatch(size_t messages, size_t payload_bytes) {
  StreamBatch batch;
  for (size_t i = 0; i < messages; ++i) {
    batch.Append(MessageMeta{}, payload_bytes);
  }
  return batch;
}

/// Steady-state single-threaded push/pop: the popped batch is pushed right
/// back, so after warmup no allocation happens and the loop isolates the
/// per-slot transport cost. Reported items are messages, not slots —
/// items/sec across batch sizes is the amortization curve.
void BM_BatchPushPop(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  RingChannel channel(64);
  StreamBatch batch = MakeBatch(batch_size, 64);
  for (auto _ : state) {
    channel.TryPush(std::move(batch));
    channel.TryPop(&batch);
    benchmark::DoNotOptimize(batch.items().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_BatchPushPop)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

/// Two threads, backpressure, a fixed number of messages per iteration
/// carried in batches of the swept size: the cross-core handoff the
/// threaded engine rides on. This is where batching pays most — every slot
/// push/pop is a cache-line conversation between cores.
void BM_TwoThreadBatchHandoff(benchmark::State& state) {
  constexpr uint64_t kMessagesPerIteration = 4096;
  const size_t batch_size = static_cast<size_t>(state.range(0));
  RingChannel channel(256);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> target{0};

  std::thread producer([&] {
    StreamBatch prototype = MakeBatch(batch_size, 64);
    uint64_t produced = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (produced < target.load(std::memory_order_acquire)) {
        StreamBatch batch = prototype;  // producer materializes each batch
        if (channel.TryPush(std::move(batch))) {
          produced += batch_size;
        }
      } else {
        std::this_thread::yield();
      }
    }
  });

  StreamBatch out;
  uint64_t popped = 0;
  for (auto _ : state) {
    target.fetch_add(kMessagesPerIteration, std::memory_order_release);
    const uint64_t goal = popped + kMessagesPerIteration;
    while (popped < goal) {
      if (channel.TryPop(&out)) {
        popped += out.size();
      } else {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_release);
  producer.join();
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kMessagesPerIteration));
}
BENCHMARK(BM_TwoThreadBatchHandoff)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime();

/// Reports `items` per iteration as a counter of CPU time per item (the
/// console prints it with its unit, e.g. "753ns").
void ReportCpuPerItem(benchmark::State& state, const char* name,
                      size_t items) {
  state.counters[name] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(items),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// The perfbench agg_paced workload's query and traffic, closed loop: each
/// iteration injects k packets, runs one PumpUntilIdle and reads every row
/// out. `cpu_per_pkt` is what a round costs per packet; k=1 against k=256
/// shows the fixed cost of a round. The packets replay from a pool with
/// their timestamps moved one pool span on per lap, so time keeps
/// advancing and windows keep closing (about 5.5k packets per window).
void AggPacedRound(benchmark::State& state, const char* query) {
  const size_t k = static_cast<size_t>(state.range(0));
  gigascope::workload::TrafficConfig traffic;
  traffic.num_flows = 20000;
  traffic.offered_bits_per_sec = 20e6;
  traffic.burstiness = 1;
  gigascope::workload::TrafficGenerator gen(traffic);
  std::vector<gigascope::net::Packet> pool(1 << 15);
  for (gigascope::net::Packet& packet : pool) packet = gen.Next();
  const int64_t span = pool.back().timestamp - pool.front().timestamp + 1;

  gigascope::core::Engine engine;
  engine.AddInterface("eth0");
  if (!engine.AddQuery(query).ok()) {
    state.SkipWithError("AddQuery failed");
    return;
  }
  auto sub = engine.Subscribe("dest_agg");
  if (!sub.ok()) {
    state.SkipWithError("Subscribe failed");
    return;
  }
  size_t next = 0;
  size_t rows = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < k; ++i) {
      gigascope::net::Packet& packet = pool[next];
      if (!engine.InjectPacket("eth0", packet).ok()) {
        state.SkipWithError("InjectPacket failed");
        return;
      }
      packet.timestamp += span;
      next = (next + 1) % pool.size();
    }
    engine.PumpUntilIdle();
    while ((*sub)->NextRow().has_value()) ++rows;
  }
  benchmark::DoNotOptimize(rows);
  ReportCpuPerItem(state, "cpu_per_pkt", k);
}

void BM_AggPacedRound(benchmark::State& state) {
  AggPacedRound(state,
                "DEFINE { query_name dest_agg; } "
                "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
                "GROUP BY time AS tb, destIP");
}
BENCHMARK(BM_AggPacedRound)->Arg(1)->Arg(3)->Arg(8)->Arg(64)->Arg(256);

/// The same rounds under computed group keys and a computed argument: the
/// LFTA and HFTA aggregates run every key and argument through the VM,
/// which loads its fields from the packed tuple.
void BM_AggPacedRoundComputedKey(benchmark::State& state) {
  AggPacedRound(state,
                "DEFINE { query_name dest_agg; } "
                "SELECT tb, sp, count(*), sum(len*8) FROM eth0.PKT "
                "GROUP BY time/60 AS tb, srcPort/1024 AS sp");
}
BENCHMARK(BM_AggPacedRoundComputedKey)->Arg(1)->Arg(64)->Arg(256);

/// One window close in the HFTA aggregate: N groups of one time bucket
/// are folded in (untimed), then a punctuation past the bucket closes them
/// all and the close is timed: sorting the groups into key order, emitting
/// them, and compacting the map. `key` picks the group keys: 0 is
/// (UINT, IP); 1 is (UINT, STRING) with random 36-44 byte strings; 2 is
/// the same with one 1,500-byte string among them, a skewed set whose
/// longest key is far longer than the rest; 3 is (UINT, IP) with IPs that
/// share their top 16 bits, as the hosts of one monitored /16 do.
/// `cpu_per_group` is the close's CPU time per group.
void BM_WindowClose(benchmark::State& state) {
  namespace gs = gigascope;
  using gs::gsql::DataType;
  using gs::gsql::FieldDef;
  using gs::gsql::OrderSpec;
  using gs::gsql::StreamKind;
  using gs::gsql::StreamSchema;
  const size_t groups = static_cast<size_t>(state.range(0));
  const int64_t key_kind = state.range(1);
  const bool string_key = key_kind == 1 || key_kind == 2;
  const DataType key_type = string_key ? DataType::kString : DataType::kIp;

  StreamSchema input("win", StreamKind::kStream,
                     {FieldDef{"tb", DataType::kUint, OrderSpec::Increasing()},
                      FieldDef{"k", key_type, OrderSpec::None()}});
  gs::ops::OrderedAggregateNode::Spec spec;
  spec.name = "wout";
  spec.input_schema = input;
  spec.output_schema = StreamSchema(
      "wout", StreamKind::kStream,
      {FieldDef{"tb", DataType::kUint, OrderSpec::Increasing()},
       FieldDef{"k", key_type, OrderSpec::None()},
       FieldDef{"cnt", DataType::kUint, OrderSpec::None()}});
  for (uint32_t f = 0; f < 2; ++f) {
    auto key = gs::expr::Compile(gs::expr::MakeFieldRef(
        0, f, input.field(f).type, input.field(f).name));
    if (!key.ok()) {
      state.SkipWithError("Compile failed");
      return;
    }
    spec.keys.push_back(std::move(key).value());
  }
  gs::expr::AggregateSpec count;
  count.fn = gs::expr::AggFn::kCount;
  count.result_type = DataType::kUint;
  spec.agg_specs.push_back(count);
  spec.agg_args.emplace_back();
  spec.ordered_key = 0;
  spec.key_punctuation_source = {0, -1};

  gs::rts::StreamRegistry registry;
  if (!registry.DeclareStream(input).ok() ||
      !registry.DeclareStream(spec.output_schema).ok()) {
    state.SkipWithError("DeclareStream failed");
    return;
  }
  auto in = registry.Subscribe("win", 1 << 12);
  auto out = registry.Subscribe("wout", 1 << 12);
  if (!in.ok() || !out.ok()) {
    state.SkipWithError("Subscribe failed");
    return;
  }
  gs::ops::OrderedAggregateNode node(
      std::move(spec), *in, &registry,
      std::make_shared<std::vector<gs::expr::Value>>());

  // The window's keys, distinct: random IPs, or random lowercase strings.
  gs::Rng rng(1);
  std::vector<gs::expr::Value> keys;
  for (size_t g = 0; g < groups; ++g) {
    if (string_key) {
      const bool long_key = key_kind == 2 && g == groups / 2;
      std::string s(long_key ? 1500 : 36 + rng.NextBelow(9), 'a');
      for (char& c : s) c = static_cast<char>('a' + rng.NextBelow(26));
      keys.push_back(gs::expr::Value::String(std::move(s)));
    } else {
      // An odd multiplier permutes the low 16 bits, so the /16 keys stay
      // distinct.
      const uint32_t ip = static_cast<uint32_t>(g) * 2654435761u;
      keys.push_back(gs::expr::Value::Ip(
          key_kind == 3 ? 0x0a0b0000u | (ip & 0xffffu) : ip));
    }
  }
  gs::rts::TupleCodec codec(input);
  StreamBatch batch;
  StreamBatch drained;
  uint64_t tb = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ++tb;
    for (size_t g = 0; g < groups; ++g) {
      batch.AppendTuple(codec, {gs::expr::Value::Uint(tb), keys[g]});
      if (batch.size() == 64 || g + 1 == groups) {
        registry.PublishBatch("win", std::move(batch));
        batch.clear();
        node.Poll(1 << 20);
      }
    }
    uint8_t close[8];
    gs::StoreLe64(close, tb + 1);
    const gs::rts::Bound bound[] = {{0, close}};
    gs::rts::AppendPunctuation(bound, input, {}, &batch);
    registry.PublishBatch("win", std::move(batch));
    batch.clear();
    state.ResumeTiming();
    node.Poll(1 << 20);  // the close
    state.PauseTiming();
    if (node.open_groups() != 0) {
      state.SkipWithError("the punctuation closed nothing");
      break;
    }
    while ((*out)->TryPop(&drained)) {
      benchmark::DoNotOptimize(drained.items().data());
    }
    state.ResumeTiming();
  }
  ReportCpuPerItem(state, "cpu_per_group", groups);
}
BENCHMARK(BM_WindowClose)
    ->ArgNames({"groups", "key"})
    ->Args({2000, 0})
    ->Args({16000, 0})
    ->Args({2000, 1})
    ->Args({16000, 1})
    ->Args({2000, 2})
    ->Args({16000, 2})
    ->Args({2000, 3})
    ->Args({16000, 3});

/// The subscriber edge: each iteration publishes 16 batches of 64 tuples
/// (untimed), then drains them through TupleSubscription::NextRow, which
/// builds one Row per tuple. `schema` 0 is filter_replay's output (time,
/// timestamp, destIP, destPort, len); 1 carries a 24-40 byte STRING among
/// fixed-width fields. `cpu_per_row` is the drain's CPU time per row.
void BM_SubscriberNextRow(benchmark::State& state) {
  namespace gs = gigascope;
  using gs::expr::Value;
  using gs::gsql::DataType;
  using gs::gsql::FieldDef;
  using gs::gsql::OrderSpec;
  using gs::gsql::StreamKind;
  using gs::gsql::StreamSchema;
  constexpr size_t kBatches = 16;
  constexpr size_t kBatchRows = 64;
  const bool with_string = state.range(0) != 0;
  const StreamSchema schema =
      with_string
          ? StreamSchema(
                "rows", StreamKind::kStream,
                {FieldDef{"time", DataType::kUint, OrderSpec::Increasing()},
                 FieldDef{"srcIP", DataType::kIp, OrderSpec::None()},
                 FieldDef{"host", DataType::kString, OrderSpec::None()},
                 FieldDef{"len", DataType::kUint, OrderSpec::None()}})
          : StreamSchema(
                "rows", StreamKind::kStream,
                {FieldDef{"time", DataType::kUint, OrderSpec::Increasing()},
                 FieldDef{"timestamp", DataType::kUint,
                          OrderSpec::Increasing()},
                 FieldDef{"destIP", DataType::kIp, OrderSpec::None()},
                 FieldDef{"destPort", DataType::kUint, OrderSpec::None()},
                 FieldDef{"len", DataType::kUint, OrderSpec::None()}});

  gs::rts::StreamRegistry registry;
  if (!registry.DeclareStream(schema).ok()) {
    state.SkipWithError("DeclareStream failed");
    return;
  }
  auto channel = registry.Subscribe("rows", 2 * kBatches);
  if (!channel.ok()) {
    state.SkipWithError("Subscribe failed");
    return;
  }
  gs::core::TupleSubscription sub(*channel, schema);

  gs::Rng rng(1);
  gs::rts::TupleCodec codec(schema);
  StreamBatch batch;
  for (uint64_t r = 0; r < kBatchRows; ++r) {
    const uint64_t ts = 1'000'000'000 + r * 1000;
    if (with_string) {
      std::string host(24 + rng.NextBelow(17), 'a');
      for (char& c : host) c = static_cast<char>('a' + rng.NextBelow(26));
      batch.AppendTuple(codec, {Value::Uint(ts / 1'000'000'000),
                                Value::Ip(static_cast<uint32_t>(rng.Next())),
                                Value::String(std::move(host)),
                                Value::Uint(40 + rng.NextBelow(1460))});
    } else {
      batch.AppendTuple(codec, {Value::Uint(ts / 1'000'000'000),
                                Value::Uint(ts),
                                Value::Ip(static_cast<uint32_t>(rng.Next())),
                                Value::Uint(rng.NextBelow(65536)),
                                Value::Uint(40 + rng.NextBelow(1460))});
    }
  }
  size_t rows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t b = 0; b < kBatches; ++b) {
      registry.PublishBatch("rows", StreamBatch(batch));
    }
    state.ResumeTiming();
    while (auto row = sub.NextRow()) {
      benchmark::DoNotOptimize(row->data());
      ++rows;
    }
  }
  if (rows != state.iterations() * kBatches * kBatchRows) {
    state.SkipWithError("a published row did not come back");
  }
  ReportCpuPerItem(state, "cpu_per_row", kBatches * kBatchRows);
}
BENCHMARK(BM_SubscriberNextRow)->ArgName("schema")->Arg(0)->Arg(1);

/// A window join over e9's traffic (both sides on one clock: the base
/// advances 4-11 ticks per tuple pair, the right side 0-3 ticks after
/// it; window |l.ts - r.ts| <= 16) whose sides also carry a STRING tag,
/// one of four of about 12 bytes, and whose residual predicate is
/// `l.tag = r.tag`. Each iteration publishes 32 tuples per side and polls
/// the join once. Arg 0 is the eager algorithm, 1 the order-preserving
/// one. `cpu_per_tuple` is CPU time per input tuple.
void BM_WindowJoin(benchmark::State& state) {
  using gigascope::expr::Value;
  using gigascope::gsql::DataType;
  using gigascope::gsql::FieldDef;
  using gigascope::gsql::OrderSpec;
  using gigascope::gsql::StreamKind;
  using gigascope::gsql::StreamSchema;
  const auto side = [](const std::string& name) {
    return StreamSchema(
        name, StreamKind::kStream,
        {FieldDef{"ts", DataType::kUint, OrderSpec::Increasing()},
         FieldDef{"tag", DataType::kString, OrderSpec::None()}});
  };
  gigascope::rts::StreamRegistry registry;
  gigascope::ops::WindowJoinNode::Spec spec;
  spec.name = "j";
  spec.left_schema = side("l");
  spec.right_schema = side("r");
  spec.output_schema = StreamSchema(
      "j", StreamKind::kStream,
      {FieldDef{"ts", DataType::kUint, OrderSpec::Increasing()},
       FieldDef{"tag", DataType::kString, OrderSpec::None()},
       FieldDef{"r_ts", DataType::kUint, OrderSpec::None()},
       FieldDef{"r_tag", DataType::kString, OrderSpec::None()}});
  spec.lo = -16;
  spec.hi = 16;
  spec.order_preserving = state.range(0) != 0;
  auto predicate = gigascope::expr::Compile(gigascope::expr::MakeBinaryIr(
      gigascope::gsql::BinaryOp::kEq, DataType::kBool,
      gigascope::expr::MakeFieldRef(0, 1, DataType::kString, "tag"),
      gigascope::expr::MakeFieldRef(1, 1, DataType::kString, "tag")));
  if (!predicate.ok() || !registry.DeclareStream(side("l")).ok() ||
      !registry.DeclareStream(side("r")).ok() ||
      !registry.DeclareStream(spec.output_schema).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  spec.predicate = std::move(predicate).value();
  auto left = registry.Subscribe("l", 1 << 12);
  auto right = registry.Subscribe("r", 1 << 12);
  auto out = registry.Subscribe("j", 1 << 12);
  if (!left.ok() || !right.ok() || !out.ok()) {
    state.SkipWithError("Subscribe failed");
    return;
  }
  gigascope::ops::WindowJoinNode node(
      std::move(spec), *left, *right, &registry,
      std::make_shared<std::vector<Value>>());
  const gigascope::rts::TupleCodec codec(side("l"));
  const std::string tags[] = {"GET /index.h", "GET /style.c", "POST /form.p",
                              "HEAD /ping.h"};
  gigascope::Rng rng(9);
  uint64_t base = 0;
  size_t matches = 0;
  for (auto _ : state) {
    StreamBatch lefts;
    StreamBatch rights;
    for (int i = 0; i < 32; ++i) {
      base += 4 + rng.NextBelow(8);
      lefts.AppendTuple(codec, {Value::Uint(base),
                                Value::String(tags[rng.NextBelow(4)])});
      rights.AppendTuple(codec, {Value::Uint(base + rng.NextBelow(4)),
                                 Value::String(tags[rng.NextBelow(4)])});
    }
    registry.PublishBatch("l", std::move(lefts));
    registry.PublishBatch("r", std::move(rights));
    node.Poll(1 << 20);
    StreamBatch joined;
    while ((*out)->TryPop(&joined)) matches += joined.size();
  }
  benchmark::DoNotOptimize(matches);
  ReportCpuPerItem(state, "cpu_per_tuple", 64);
}
BENCHMARK(BM_WindowJoin)->ArgName("order_preserving")->Arg(0)->Arg(1);

}  // namespace
