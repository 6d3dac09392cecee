#include "core/packet_source.h"

#include <algorithm>

#include "common/logging.h"
#include "core/compiled_query.h"
#include "net/headers.h"
#include "rts/punctuation.h"
#include "telemetry/metric_names.h"

namespace gigascope::core {

using expr::Value;
using Extract = InterpretPlan::Extract;
namespace metric = telemetry::metric;

namespace {

/// The built-in extractor named `name`, or kDefault.
Extract ResolveExtractor(const std::string& name) {
  if (name == "time") return Extract::kTime;
  if (name == "timestamp") return Extract::kTimestamp;
  if (name == "len") return Extract::kLen;
  if (name == "srcIP") return Extract::kSrcIp;
  if (name == "destIP") return Extract::kDestIp;
  if (name == "srcPort") return Extract::kSrcPort;
  if (name == "destPort") return Extract::kDestPort;
  if (name == "protocol") return Extract::kProtocol;
  if (name == "ipVersion") return Extract::kIpVersion;
  if (name == "tcpFlags") return Extract::kTcpFlags;
  if (name == "tcpSeq") return Extract::kTcpSeq;
  if (name == "ipId") return Extract::kIpId;
  if (name == "fragOffset") return Extract::kFragOffset;
  if (name == "moreFrags") return Extract::kMoreFrags;
  if (name == "payload") return Extract::kPayload;
  if (name == "ipPayload") return Extract::kIpPayload;
  return Extract::kDefault;
}

/// The type an extractor produces (kDefault: none).
gsql::DataType ExtractorType(Extract extract) {
  switch (extract) {
    case Extract::kSrcIp:
    case Extract::kDestIp:
      return gsql::DataType::kIp;
    case Extract::kPayload:
    case Extract::kIpPayload:
      return gsql::DataType::kString;
    default:
      return gsql::DataType::kUint;
  }
}

/// The store program of `plan` under its current `wanted` gates.
StoreProgram CompileStoreProgram(const InterpretPlan& plan) {
  StoreProgram program;
  program.fixed_size = plan.codec.fixed_size();
  StoreProgram::Run run;
  uint32_t offset = 0;
  for (size_t f = 0; f < plan.fields.size(); ++f) {
    const Extract extract = plan.wanted[f] ? plan.fields[f] : Extract::kDefault;
    const uint32_t width = plan.codec.slot(f).width;
    if (width == 0 && extract != Extract::kDefault) {
      // A wanted STRING ends the run: what follows moves with its length.
      run.string = extract;
      run.string_at = offset;
      program.runs.push_back(std::move(run));
      run = StoreProgram::Run();
      offset = 0;
      continue;
    }
    const StoreProgram::Store store{offset, extract};
    switch (width) {
      case 8:
        run.u64.push_back(store);
        offset += 8;
        break;
      case 1:
        run.u8.push_back(store);
        offset += 1;
        break;
      default:  // IP, or a STRING that packs empty: a zero length word
        run.u32.push_back(store);
        offset += 4;
        break;
    }
  }
  program.runs.push_back(std::move(run));
  return program;
}

constexpr size_t Index(Extract extract) {
  return static_cast<size_t>(extract);
}

/// One packet as interpretation sees it: every fixed-width extractor's
/// value and the bytes of the variable-length ones, loaded once from the
/// walked frame (net::WalkHeaders) and the sim time its time fields carry
/// (clamped by the source). A layer the walk does not find — every layer,
/// when the frame is shorter than an Ethernet header — reads as zero or
/// empty, the type default.
class PacketFields {
 public:
  PacketFields(const net::Packet& packet, SimTime t) {
    value_[Index(Extract::kTime)] =
        static_cast<uint64_t>(SimTimeToSeconds(t));
    value_[Index(Extract::kTimestamp)] = static_cast<uint64_t>(t);
    value_[Index(Extract::kLen)] = packet.orig_len;
    const ByteSpan frame = packet.view();
    net::HeaderWalk walk;
    if (!net::WalkHeaders(frame, &walk)) {
      malformed_ = true;
      return;
    }
    payload_ = walk.payload;
    if (!walk.ip) return;
    const net::Ipv4Header ip =
        net::LoadIpv4Header(frame.data() + net::kEthernetHeaderLen);
    value_[Index(Extract::kSrcIp)] = ip.src_addr;
    value_[Index(Extract::kDestIp)] = ip.dst_addr;
    value_[Index(Extract::kProtocol)] = ip.protocol;
    value_[Index(Extract::kIpVersion)] = 4;
    value_[Index(Extract::kIpId)] = ip.identification;
    value_[Index(Extract::kFragOffset)] = ip.fragment_offset;
    value_[Index(Extract::kMoreFrags)] = ip.more_fragments() ? 1 : 0;
    // The IP payload including any transport header — what an IP
    // defragmenter reassembles.
    ip_payload_ = frame.substr(walk.transport);
    const uint8_t* transport = frame.data() + walk.transport;
    if (walk.tcp) {
      const net::TcpHeader tcp = net::LoadTcpHeader(transport);
      value_[Index(Extract::kSrcPort)] = tcp.src_port;
      value_[Index(Extract::kDestPort)] = tcp.dst_port;
      value_[Index(Extract::kTcpFlags)] = tcp.flags;
      value_[Index(Extract::kTcpSeq)] = tcp.seq;
    } else if (walk.udp) {
      const net::UdpHeader udp = net::LoadUdpHeader(transport);
      value_[Index(Extract::kSrcPort)] = udp.src_port;
      value_[Index(Extract::kDestPort)] = udp.dst_port;
    }
  }

  bool malformed() const { return malformed_; }

  /// Packed size of this packet's tuple under `program`: constant unless
  /// a string is wanted.
  size_t PackedSize(const StoreProgram& program) const {
    size_t size = program.fixed_size;
    for (size_t r = 0; r + 1 < program.runs.size(); ++r) {
      size += Bytes(program.runs[r].string).size();
    }
    return size;
  }

  /// Writes the tuple at `out` (exactly PackedSize bytes) by running
  /// `program`, in the codec's layout.
  void Pack(const StoreProgram& program, uint8_t* out) const {
    for (const StoreProgram::Run& run : program.runs) {
      for (const StoreProgram::Store& store : run.u64) {
        StoreLe64(out + store.offset, value_[Index(store.extract)]);
      }
      for (const StoreProgram::Store& store : run.u32) {
        StoreLe32(out + store.offset,
                  static_cast<uint32_t>(value_[Index(store.extract)]));
      }
      for (const StoreProgram::Store& store : run.u8) {
        out[store.offset] = static_cast<uint8_t>(value_[Index(store.extract)]);
      }
      if (run.string == Extract::kDefault) return;  // the last run
      const ByteSpan bytes = Bytes(run.string);
      uint8_t* at = out + run.string_at;
      StoreLe32(at, static_cast<uint32_t>(bytes.size()));
      if (!bytes.empty()) std::memcpy(at + 4, bytes.data(), bytes.size());
      out = at + 4 + bytes.size();
    }
  }

 private:
  ByteSpan Bytes(Extract extract) const {
    if (extract == Extract::kPayload) return payload_;
    if (extract == Extract::kIpPayload) return ip_payload_;
    return ByteSpan();
  }

  /// Indexed by extractor; the variable-length ones and kDefault stay 0.
  uint64_t value_[Index(Extract::kDefault) + 1] = {};
  ByteSpan payload_;
  ByteSpan ip_payload_;
  bool malformed_ = false;
};

}  // namespace

InterpretPlan BuildInterpretPlan(const gsql::StreamSchema& schema) {
  InterpretPlan plan(schema);
  plan.fields.reserve(schema.num_fields());
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    const gsql::FieldDef& field = schema.field(f);
    Extract extract = ResolveExtractor(field.name);
    if (extract != Extract::kDefault && ExtractorType(extract) != field.type) {
      extract = Extract::kDefault;
    }
    plan.fields.push_back(extract);
    plan.wanted.push_back(true);
  }
  return plan;
}

Status CheckProtocolSchema(const gsql::StreamSchema& schema) {
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    const gsql::FieldDef& field = schema.field(f);
    const Extract extract = ResolveExtractor(field.name);
    if (extract == Extract::kDefault) continue;
    const gsql::DataType produced = ExtractorType(extract);
    if (produced != field.type) {
      return Status::InvalidArgument(
          "protocol " + schema.name() + ": field '" + field.name +
          "' is declared " + gsql::DataTypeName(field.type) +
          ", but its built-in extractor produces " +
          gsql::DataTypeName(produced));
    }
  }
  return Status::Ok();
}

rts::Row InterpretPacket(const InterpretPlan& plan,
                         const net::Packet& packet) {
  const StoreProgram program = CompileStoreProgram(plan);
  const PacketFields fields(packet, packet.timestamp);
  ByteBuffer packed(fields.PackedSize(program));
  fields.Pack(program, packed.data());
  auto row = plan.codec.Decode(ByteSpan(packed.data(), packed.size()));
  GS_CHECK(row.ok());  // the packer writes exactly the codec's layout
  return std::move(row).value();
}

rts::Row InterpretPacket(const gsql::StreamSchema& schema,
                         const net::Packet& packet) {
  return InterpretPacket(BuildInterpretPlan(schema), packet);
}

namespace {

void CollectProtocolFieldUses(
    const plan::PlanPtr& node,
    std::vector<std::pair<std::string, size_t>>* uses) {
  if (node == nullptr || node->kind == plan::PlanKind::kSource) return;
  for (const plan::PlanPtr& child : node->children) {
    CollectProtocolFieldUses(child, uses);
  }
  // (input, field) references of this operator's expressions; inputs that
  // resolve to protocol-source children name a field that source reads.
  std::vector<std::pair<size_t, size_t>> refs;
  auto collect = [&refs](const expr::IrPtr& ir) {
    if (ir != nullptr) expr::CollectFieldRefs(ir, &refs);
  };
  switch (node->kind) {
    case plan::PlanKind::kSelectProject:
      collect(node->predicate);
      for (const expr::IrPtr& projection : node->projections) {
        collect(projection);
      }
      break;
    case plan::PlanKind::kAggregate:
      for (const expr::IrPtr& key : node->group_keys) collect(key);
      for (const expr::AggregateSpec& agg : node->aggregates) {
        collect(agg.arg);
      }
      break;
    case plan::PlanKind::kJoin:
      collect(node->join_predicate);
      refs.emplace_back(0, node->left_window_field);
      refs.emplace_back(1, node->right_window_field);
      break;
    case plan::PlanKind::kMerge:
      for (size_t i = 0; i < node->children.size(); ++i) {
        refs.emplace_back(i, node->merge_field);
      }
      break;
    case plan::PlanKind::kSource:
      return;
  }
  for (const auto& [input, field] : refs) {
    if (input >= node->children.size()) continue;
    const plan::PlanPtr& child = node->children[input];
    if (child->kind != plan::PlanKind::kSource || !child->source_is_protocol) {
      continue;
    }
    uses->emplace_back(
        ProtocolStreamName(child->interface_name, child->source_stream),
        field);
  }
}

}  // namespace

std::vector<std::pair<std::string, size_t>> ProtocolFieldUses(
    const plan::PlanPtr& plan) {
  std::vector<std::pair<std::string, size_t>> uses;
  CollectProtocolFieldUses(plan, &uses);
  return uses;
}

PacketSource::PacketSource(gsql::StreamSchema schema, const Options& options,
                           bool materialize_all, rts::StreamRegistry* registry)
    : schema_(std::move(schema)),
      options_(options),
      interpret_(BuildInterpretPlan(schema_)),
      writer_(registry, schema_.name(), options_.batch_max_size) {
  for (size_t f = 0; f < interpret_.fields.size(); ++f) {
    // Payload fields heap-copy packet bytes per interpretation; they stay
    // off until a consumer that reads them shows up.
    if (!materialize_all && (interpret_.fields[f] == Extract::kPayload ||
                             interpret_.fields[f] == Extract::kIpPayload)) {
      interpret_.wanted[f] = false;
    }
    const gsql::FieldDef& field = schema_.field(f);
    if (field.order.IsIncreasingLike() &&
        field.type != gsql::DataType::kString) {
      ordered_fields_.push_back(f);
    }
  }
  program_ = CompileStoreProgram(interpret_);
  punct_countdown_ = options_.punctuation_interval;
}

void PacketSource::RegisterTelemetry(telemetry::Registry* metrics) {
  const std::string& name = stream_name();
  metrics->Register(name, metric::kPackets, &packets_);
  metrics->Register(name, metric::kLastPunctSec, &last_punct_sec_);
  metrics->RegisterHistogram(name, metric::kPunctLagNs, &punct_lag_);
  metrics->Register(name, metric::kParseErrors, &parse_errors_);
  metrics->Register(name, metric::kTimeRegressions, &time_regressions_);
}

void PacketSource::WantField(size_t field) {
  if (field >= interpret_.wanted.size() || interpret_.wanted[field]) return;
  interpret_.wanted[field] = true;
  program_ = CompileStoreProgram(interpret_);
}

void PacketSource::WantAllFields() {
  interpret_.wanted.assign(interpret_.wanted.size(), true);
  program_ = CompileStoreProgram(interpret_);
}

bool PacketSource::CountDownPunctuation() {
  if (punct_countdown_ == 0 || --punct_countdown_ > 0) return false;
  punct_countdown_ = options_.punctuation_interval;
  return true;
}

bool PacketSource::WritePunctuation(SimTime t, const ByteSpan* tuple,
                                    const Offer& offer) {
  rts::Punctuation punctuation;
  for (size_t f : ordered_fields_) {
    switch (interpret_.fields[f]) {
      case Extract::kTime: {
        const auto sec = static_cast<uint64_t>(SimTimeToSeconds(t));
        punctuation.bounds.emplace_back(f, Value::Uint(sec));
        last_punct_sec_.Set(sec);
        break;
      }
      case Extract::kTimestamp:
        punctuation.bounds.emplace_back(f,
                                        Value::Uint(static_cast<uint64_t>(t)));
        break;
      default:  // bounded at the tuple's value, read in place
        if (tuple != nullptr) {
          punctuation.bounds.emplace_back(
              f, expr::ReadField(schema_.field(f).type,
                                 interpret_.codec.Locate(tuple->data(), f)));
        }
        break;
    }
  }
  if (punctuation.bounds.empty()) return false;
  // A punctuation triggered by a traced packet carries its context:
  // aggregate groups it closes downstream inherit the trace, so e2e latency
  // covers inject -> group close even when the close is punctuation-driven.
  rts::MessageMeta meta;
  meta.trace_id = offer.trace_id;
  meta.trace_ns = offer.trace_ns;
  writer_.WritePunctuation(punctuation, schema_, meta);
  last_punct_time_ = t;
  return true;
}

bool PacketSource::FlushBatch() { return writer_.Flush(); }

bool PacketSource::Inject(const net::Packet& packet, const Offer& offer) {
  // A packet stamped behind the last punctuation would violate the
  // ordering promise already published downstream; clamp it to the bound
  // (windows at the bound are still open — closes are strictly-below) and
  // count the regression.
  SimTime t = packet.timestamp;
  if (t < last_punct_time_) {
    t = last_punct_time_;
    ++time_regressions_;
  }
  ++packets_;
  const bool punctuate = CountDownPunctuation();
  if (offer.shed) {
    // A shed packet still counts toward the punctuation interval and, on
    // its boundary, punctuates (like a heartbeat) so windows keep closing
    // under heavy shed.
    return punctuate && WritePunctuation(t, nullptr, Offer{});
  }
  const PacketFields fields(packet, t);
  if (fields.malformed()) ++parse_errors_;
  rts::MessageMeta meta;
  meta.trace_id = offer.trace_id;
  meta.trace_ns = offer.trace_ns;
  // Horvitz-Thompson weight, stamped at the sampling decision: this
  // survivor stands for itself plus the packets the L1 sampler sheds
  // around it.
  meta.weight = offer.weight;
  // The fields go straight from the walked frame into the arena.
  const size_t size = fields.PackedSize(program_);
  uint8_t* tuple = writer_.AppendTuple(meta, size);
  fields.Pack(program_, tuple);
  if (last_punct_time_ > 0) {
    punct_lag_.Record(static_cast<uint64_t>(t - last_punct_time_));
  }
  // The batch publishes as one ring message when a punctuation closes it
  // (a punctuation rides in the batch of the packet that triggered it, as
  // its last item) or when it fills.
  const ByteSpan packed(tuple, size);
  if (punctuate && WritePunctuation(t, &packed, offer)) return true;
  return writer_.FlushIfFull();
}

bool PacketSource::Heartbeat(SimTime now) {
  // The punctuation closes (and publishes) the open batch, so it arrives
  // after every tuple injected before the heartbeat. A heartbeat behind
  // the last punctuation re-states that bound.
  const SimTime t = std::max(now, last_punct_time_);
  return WritePunctuation(t, nullptr, Offer{});
}

}  // namespace gigascope::core
