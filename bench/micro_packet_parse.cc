// Microbenchmark: packet decode + protocol interpretation — the cost of
// turning raw bytes into a PKT tuple (the RTS "interpretation functions").

#include <benchmark/benchmark.h>

#include <vector>

#include "core/engine.h"
#include "gsql/catalog.h"
#include "net/headers.h"
#include "workload/traffic_gen.h"

namespace {

gigascope::net::Packet MakePacket(size_t payload_len) {
  gigascope::net::TcpPacketSpec spec;
  spec.src_addr = 0x0a000001;
  spec.dst_addr = 0x0a000002;
  spec.dst_port = 80;
  spec.payload = std::string(payload_len, 'p');
  gigascope::net::Packet packet;
  packet.bytes = gigascope::net::BuildTcpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = 123456789;
  return packet;
}

void BM_DecodePacket(benchmark::State& state) {
  auto packet = MakePacket(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto decoded = gigascope::net::DecodePacket(packet.view());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodePacket)->Arg(0)->Arg(400)->Arg(1400);

/// Name-resolving convenience path: re-resolves every field name per call.
void BM_InterpretPacket(benchmark::State& state) {
  auto schema = gigascope::gsql::Catalog::BuiltinPacketSchema();
  auto packet = MakePacket(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto row = gigascope::core::InterpretPacket(schema, packet);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpretPacket)->Arg(0)->Arg(400)->Arg(1400);

/// The engine's inject path: extraction resolved once at source creation.
void BM_InterpretPacketPlanned(benchmark::State& state) {
  auto schema = gigascope::gsql::Catalog::BuiltinPacketSchema();
  auto plan = gigascope::core::BuildInterpretPlan(schema);
  auto packet = MakePacket(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto row = gigascope::core::InterpretPacket(plan, packet);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpretPacketPlanned)->Arg(0)->Arg(400)->Arg(1400);

/// Same, with the payload fields gated off — what a query set that never
/// reads payload (filters, aggregations over header fields) pays.
void BM_InterpretPacketNoPayload(benchmark::State& state) {
  auto schema = gigascope::gsql::Catalog::BuiltinPacketSchema();
  auto plan = gigascope::core::BuildInterpretPlan(schema);
  for (size_t f = 0; f < plan.fields.size(); ++f) {
    using Extract = gigascope::core::InterpretPlan::Extract;
    if (plan.fields[f] == Extract::kPayload ||
        plan.fields[f] == Extract::kIpPayload) {
      plan.wanted[f] = false;
    }
  }
  auto packet = MakePacket(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto row = gigascope::core::InterpretPacket(plan, packet);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpretPacketNoPayload)->Arg(0)->Arg(400)->Arg(1400);

/// The path the engine runs: PacketSource::Inject decodes each packet and
/// packs its tuple straight into the open batch, and the subscriber ring
/// is popped after every published batch. The cases above also decode the
/// packed tuple back into a Row, which the engine does not. Traffic is
/// perfbench filter_replay's (4,000 packets; 5,000 flows, skew 0.5, mean
/// payload 400 bytes, 90% TCP), replayed with its timestamps moved one
/// trace span on per lap. Arg 0: header-only gates (payload and ipPayload
/// off, as for a query that reads neither); 1: every field.
/// `ns_per_pkt` is CPU time per packet.
void BM_SourceInject(benchmark::State& state) {
  gigascope::workload::TrafficConfig traffic;
  traffic.num_flows = 5000;
  traffic.flow_skew = 0.5;
  traffic.mean_payload = 400;
  traffic.tcp_fraction = 0.9;
  gigascope::workload::TrafficGenerator gen(traffic);
  std::vector<gigascope::net::Packet> packets(4000);
  for (gigascope::net::Packet& packet : packets) packet = gen.Next();
  const int64_t span =
      packets.back().timestamp - packets.front().timestamp + 1;

  const gigascope::gsql::StreamSchema schema(
      "eth0.PKT", gigascope::gsql::StreamKind::kStream,
      gigascope::gsql::Catalog::BuiltinPacketSchema().fields());
  gigascope::rts::StreamRegistry registry;
  if (!registry.DeclareStream(schema).ok()) {
    state.SkipWithError("DeclareStream failed");
    return;
  }
  auto channel = registry.Subscribe(schema.name(), 64);
  if (!channel.ok()) {
    state.SkipWithError("Subscribe failed");
    return;
  }
  gigascope::core::PacketSource source(
      schema, gigascope::core::PacketSource::Options{},
      /*materialize_all=*/state.range(0) != 0, &registry);
  const gigascope::core::PacketSource::Offer offer;
  gigascope::rts::StreamBatch batch;
  size_t tuples = 0;
  for (auto _ : state) {
    for (gigascope::net::Packet& packet : packets) {
      if (source.Inject(packet, offer)) {
        while ((*channel)->TryPop(&batch)) tuples += batch.size();
      }
      packet.timestamp += span;
    }
  }
  benchmark::DoNotOptimize(tuples);
  state.counters["ns_per_pkt"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(packets.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SourceInject)->Arg(0)->Arg(1);

}  // namespace
