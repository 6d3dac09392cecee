#ifndef GIGASCOPE_CORE_PACKET_SOURCE_H_
#define GIGASCOPE_CORE_PACKET_SOURCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gsql/schema.h"
#include "net/packet.h"
#include "plan/logical_plan.h"
#include "rts/node.h"
#include "rts/registry.h"
#include "rts/tuple.h"
#include "telemetry/counter.h"
#include "telemetry/histogram.h"
#include "telemetry/registry.h"

namespace gigascope::core {

/// Precompiled packet-interpretation plan for one schema: which built-in
/// extractor feeds each field, resolved by name once at source creation
/// instead of by string comparison per packet, plus a materialization gate
/// per field. The variable-length fields (payload, ipPayload) copy packet
/// bytes on every interpretation; the engine leaves them unmaterialized
/// until a consumer that reads them registers — the same
/// haul-only-what-queries-need idea as the NIC snap length (§4), applied
/// at the interpretation layer.
///
/// Interpretation loads each field straight from the walked frame
/// (net::WalkHeaders) into `codec`'s packed layout, by running a store
/// program compiled from the plan (StoreProgram): no Row, no Value. A
/// field named like a built-in extractor resolves to it only when its type
/// is the one the extractor produces (ExecuteDdl rejects the other case,
/// see CheckProtocolSchema); otherwise it interprets as its type default.
struct InterpretPlan {
  explicit InterpretPlan(const gsql::StreamSchema& schema) : codec(schema) {}

  enum class Extract : uint8_t {
    kTime, kTimestamp, kLen,
    kSrcIp, kDestIp, kSrcPort, kDestPort,
    kProtocol, kIpVersion, kTcpFlags, kTcpSeq,
    kIpId, kFragOffset, kMoreFrags,
    kPayload, kIpPayload,
    kDefault,  // last: interpretation sizes a per-extractor array by it
  };
  std::vector<Extract> fields;
  /// Unwanted fields interpret as their type default. Only kPayload and
  /// kIpPayload are ever gated off; fixed-width fields are always cheap
  /// enough to materialize.
  std::vector<bool> wanted;
  /// The schema's packed layout: what interpretation writes.
  rts::TupleCodec codec;
};

/// Resolves `schema`'s field names against the built-in interpretation
/// library (§2.2). All fields start wanted.
InterpretPlan BuildInterpretPlan(const gsql::StreamSchema& schema);

/// How interpretation packs a tuple under a plan's gates, compiled from
/// the plan wherever its gates may have changed. The tuple is cut into
/// runs. A run is fixed-width fields at constant offsets from its start,
/// grouped by packed width, and ends at a wanted STRING (whose length
/// varies per packet) or at the end of the tuple. A STRING that always
/// packs empty (unwanted, or no extractor) is a constant zero length word
/// inside its run, so while no STRING is wanted the tuple is one run of
/// constant size. Packing has no per-field switch.
struct StoreProgram {
  /// One fixed-width field: its offset from the run's start and the
  /// extractor whose value it stores (kDefault: its type default, zero).
  struct Store {
    uint32_t offset = 0;
    InterpretPlan::Extract extract = InterpretPlan::Extract::kDefault;
  };
  struct Run {
    std::vector<Store> u64;  // INT, UINT, FLOAT: 8 bytes
    std::vector<Store> u32;  // IP, and a STRING's constant length word
    std::vector<Store> u8;   // BOOL
    /// The wanted STRING that ends the run, its length word at offset
    /// `string_at`; kDefault in the last run, which ends the tuple.
    InterpretPlan::Extract string = InterpretPlan::Extract::kDefault;
    uint32_t string_at = 0;
  };
  /// At least one; only the last ends without a string.
  std::vector<Run> runs;
  /// Packed size with every string empty (TupleCodec::fixed_size).
  size_t fixed_size = 0;
};

/// InvalidArgument when a field of protocol schema `schema` is named like a
/// built-in extractor but declared with another type than the extractor
/// produces (e.g. `time INT`); the message names the field and that type.
Status CheckProtocolSchema(const gsql::StreamSchema& schema);

/// Interprets a raw packet into a row under a precompiled plan and its
/// gates as they stand: the packed tuple the engine's sources publish,
/// decoded with TupleCodec::Decode — one interpretation implementation,
/// whose Row form is for tests and measurements. Compiles the plan's
/// store program on every call.
rts::Row InterpretPacket(const InterpretPlan& plan,
                         const net::Packet& packet);

/// Convenience overload: resolves `schema` (time, timestamp, srcIP,
/// destIP, srcPort, destPort, protocol, ipVersion, len, tcpFlags, tcpSeq,
/// ipId, fragOffset, moreFrags, payload, ipPayload; unknown names get
/// default values) and interprets with every field materialized.
rts::Row InterpretPacket(const gsql::StreamSchema& schema,
                         const net::Packet& packet);

/// The (protocol stream, field) pairs that the operator expressions of
/// `plan` read directly from protocol sources: the fields a source must
/// materialize for this plan.
std::vector<std::pair<std::string, size_t>> ProtocolFieldUses(
    const plan::PlanPtr& plan);

/// One captured-packet stream, `interface.Protocol` (§2.2): interprets
/// each packet offered on its interface into a tuple of the protocol
/// schema and punctuates the stream every `punctuation_interval` packets
/// and on heartbeats. Every ordering token the source emits comes from one
/// builder (time fields bounded at a sim time), and no packet or heartbeat
/// can move the source's bound backwards: a packet stamped behind it is
/// clamped to it and counted.
///
/// The LFTAs over the stream run on each tuple as it is interpreted (§4:
/// they are linked into the run-time system next to the capture loop):
/// the source hands every tuple and punctuation to its fed nodes in place,
/// in the order they were added. Only while the stream has ring
/// subscribers (a raw Subscribe, a user node, an unsplit HFTA over the
/// stream) does it also batch them and publish the batches.
///
/// Inject-thread only. Not movable: the telemetry registry points at its
/// counters.
class PacketSource {
 public:
  struct Options {
    /// Tuples per published batch, and between the boundaries Inject
    /// reports (EngineOptions::batch_max_size).
    size_t batch_max_size = 64;
    /// Packets between punctuations (0: only heartbeats punctuate).
    size_t punctuation_interval = 256;
  };

  /// What the engine decided about one offered packet, the same for every
  /// protocol stream of its interface.
  struct Offer {
    /// Sampled-trace context (0: untraced).
    uint64_t trace_id = 0;
    int64_t trace_ns = 0;
    /// Horvitz-Thompson weight of a kept packet: the L1 sampling rate.
    uint32_t weight = 1;
    /// Shed by L1 sampling: counted and still punctuating, but no tuple.
    bool shed = false;
  };

  /// `schema` is the stream's schema, named after the stream. Payload
  /// fields start unmaterialized unless `materialize_all`.
  PacketSource(gsql::StreamSchema schema, const Options& options,
               bool materialize_all, rts::StreamRegistry* registry);

  PacketSource(const PacketSource&) = delete;
  PacketSource& operator=(const PacketSource&) = delete;

  const std::string& stream_name() const { return schema_.name(); }

  /// Registers the per-source counters under the stream's name.
  void RegisterTelemetry(telemetry::Registry* metrics);

  /// Materialization gates: a consumer reads `field` / every field. A
  /// gate that opens recompiles the store program.
  void WantField(size_t field);
  void WantAllFields();

  /// Hands `node` every tuple and punctuation from the next packet on,
  /// after the nodes added before it. Setup only; `node` outlives the
  /// source's use of it.
  void AddFedNode(rts::FedNode* node) { fed_.push_back(node); }

  /// Interprets one packet and feeds it on. Returns whether it ended a
  /// run of `batch_max_size` tuples or punctuated: a boundary, where a
  /// batch is published when the stream has ring subscribers.
  bool Inject(const net::Packet& packet, const Offer& offer);

  /// Heartbeat (§3's ordering-update token for slow streams): punctuates
  /// at `now`, after every tuple injected before it.
  bool Heartbeat(SimTime now);

  /// Publishes the open batch, if any. Returns whether it did.
  bool FlushBatch();

  /// Sim time of the last punctuation (0 before the first).
  SimTime last_punct_time() const { return last_punct_time_; }

 private:
  /// The one punctuation builder: builds a punctuation bounding every
  /// increasing field at sim time `t`, feeds it, and, with ring
  /// subscribers, writes it, which closes and publishes the open batch.
  /// Time-derived fields bound at `t`; other increasing fields take their
  /// value from `tuple` (the packed tuple just interpreted), and are left
  /// out when there is none. Returns false (emitting nothing) if no field
  /// is bounded.
  bool WritePunctuation(SimTime t, const ByteSpan* tuple,
                        const Offer& offer);
  /// Counts one offered packet down the punctuation interval: true when it
  /// closes the interval (packet k * interval, k = 1, 2, ...).
  bool CountDownPunctuation();

  gsql::StreamSchema schema_;
  Options options_;
  InterpretPlan interpret_;
  /// `interpret_` under its current gates: what Inject packs by.
  StoreProgram program_;
  /// Increasing-like, non-string fields: the ones a punctuation bounds.
  std::vector<size_t> ordered_fields_;

  telemetry::Counter packets_;
  /// Seconds bound of the last punctuation published; `gs_stats`
  /// consumers can compute punctuation lag against it.
  telemetry::Counter last_punct_sec_;
  /// Sim-time distance from each packet to the previous punctuation —
  /// the distribution behind the e4 heartbeat story.
  telemetry::Histogram punct_lag_;
  /// Packets whose bytes failed to decode even at the Ethernet layer.
  telemetry::Counter parse_errors_;
  /// Packets stamped behind the last punctuation, clamped to it.
  telemetry::Counter time_regressions_;

  SimTime last_punct_time_ = 0;
  /// Packets left until the next interval punctuation; stays 0 when the
  /// interval is 0.
  size_t punct_countdown_ = 0;
  /// The punctuation being emitted, built once for every reader.
  rts::StreamBatch punctuation_;
  /// Where a tuple is packed while the stream has no ring subscribers.
  ByteBuffer packed_;
  /// Tuples since the last boundary Inject reported.
  size_t since_boundary_ = 0;
  /// The nodes fed in place, in the order they were added.
  std::vector<rts::FedNode*> fed_;
  /// Batches the stream's tuples for ring subscribers; publishes on size
  /// or punctuation. Last, beside the other fields every Inject touches.
  rts::BatchWriter writer_;
};

}  // namespace gigascope::core

#endif  // GIGASCOPE_CORE_PACKET_SOURCE_H_
