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

/// One packet as interpretation sees it: the frame, the sim time its
/// time fields carry (clamped by the source), and its decoded headers
/// (null when the frame failed to decode — every layer then reads absent).
class PacketFields {
 public:
  PacketFields(const net::Packet& packet, SimTime t)
      : packet_(packet),
        t_(t),
        result_(net::DecodePacket(packet.view())),
        decoded_(result_.ok() ? &result_.value() : nullptr) {}

  bool malformed() const { return decoded_ == nullptr; }

  /// Packed size of this packet's tuple under `plan`.
  size_t PackedSize(const InterpretPlan& plan) const {
    size_t size = plan.codec.fixed_size();
    for (size_t f = 0; f < plan.fields.size(); ++f) {
      if (plan.types[f] == gsql::DataType::kString && plan.wanted[f]) {
        size += Bytes(plan.fields[f]).size();
      }
    }
    return size;
  }

  /// Writes the tuple at `out` (exactly PackedSize bytes), in the codec's
  /// layout: fields in order, absent or unwanted ones as their type
  /// default, which packs as zero bytes.
  void Pack(const InterpretPlan& plan, uint8_t* out) const {
    for (size_t f = 0; f < plan.fields.size(); ++f) {
      const Extract extract = plan.wanted[f] ? plan.fields[f]
                                             : Extract::kDefault;
      switch (plan.types[f]) {
        case gsql::DataType::kString: {
          const ByteSpan bytes = Bytes(extract);
          StoreLe32(out, static_cast<uint32_t>(bytes.size()));
          if (!bytes.empty()) std::memcpy(out + 4, bytes.data(), bytes.size());
          out += 4 + bytes.size();
          break;
        }
        case gsql::DataType::kIp:
          StoreLe32(out, static_cast<uint32_t>(Fixed(extract)));
          out += 4;
          break;
        case gsql::DataType::kBool:
          *out++ = 0;  // no extractor produces BOOL
          break;
        default:  // INT, UINT, FLOAT: 8 bytes
          StoreLe64(out, Fixed(extract));
          out += 8;
          break;
      }
    }
  }

 private:
  bool has_ip() const {
    return decoded_ != nullptr && decoded_->ip.has_value();
  }

  /// The value of a fixed-width extractor; 0 (the type default) when its
  /// protocol layer is absent.
  uint64_t Fixed(Extract extract) const {
    const net::DecodedPacket* d = decoded_;
    switch (extract) {
      case Extract::kTime:
        return static_cast<uint64_t>(SimTimeToSeconds(t_));
      case Extract::kTimestamp:
        return static_cast<uint64_t>(t_);
      case Extract::kLen:
        return packet_.orig_len;
      case Extract::kSrcIp:
        return has_ip() ? d->ip->src_addr : 0;
      case Extract::kDestIp:
        return has_ip() ? d->ip->dst_addr : 0;
      case Extract::kSrcPort:
        if (d == nullptr) return 0;
        return d->is_tcp() ? d->tcp->src_port
                           : d->is_udp() ? d->udp->src_port : 0;
      case Extract::kDestPort:
        if (d == nullptr) return 0;
        return d->is_tcp() ? d->tcp->dst_port
                           : d->is_udp() ? d->udp->dst_port : 0;
      case Extract::kProtocol:
        return has_ip() ? d->ip->protocol : 0;
      case Extract::kIpVersion:
        return has_ip() ? 4 : 0;
      case Extract::kTcpFlags:
        return d != nullptr && d->is_tcp() ? d->tcp->flags : 0;
      case Extract::kTcpSeq:
        return d != nullptr && d->is_tcp() ? d->tcp->seq : 0;
      case Extract::kIpId:
        return has_ip() ? d->ip->identification : 0;
      case Extract::kFragOffset:
        return has_ip() ? d->ip->fragment_offset : 0;
      case Extract::kMoreFrags:
        return has_ip() && d->ip->more_fragments() ? 1 : 0;
      default:
        return 0;
    }
  }

  /// The bytes of a variable-length extractor; empty when its layer is
  /// absent.
  ByteSpan Bytes(Extract extract) const {
    if (extract == Extract::kPayload) {
      return decoded_ != nullptr ? decoded_->payload : ByteSpan();
    }
    if (extract != Extract::kIpPayload || !has_ip()) return ByteSpan();
    // The IP payload including any transport header — what an IP
    // defragmenter reassembles.
    const size_t start = net::kEthernetHeaderLen + decoded_->ip->header_len;
    if (packet_.bytes.size() <= start) return ByteSpan();
    return ByteSpan(packet_.bytes.data() + start,
                    packet_.bytes.size() - start);
  }

  const net::Packet& packet_;
  SimTime t_;
  Result<net::DecodedPacket> result_;
  const net::DecodedPacket* decoded_;
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
    plan.types.push_back(field.type);
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
  const PacketFields fields(packet, packet.timestamp);
  ByteBuffer packed(fields.PackedSize(plan));
  fields.Pack(plan, packed.data());
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
      registry_(registry),
      interpret_(BuildInterpretPlan(schema_)) {
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
      if (interpret_.fields[f] != Extract::kTime &&
          interpret_.fields[f] != Extract::kTimestamp) {
        tuple_bounded_.push_back(static_cast<uint32_t>(f));
      }
    }
  }
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
  if (field < interpret_.wanted.size()) interpret_.wanted[field] = true;
}

void PacketSource::WantAllFields() {
  interpret_.wanted.assign(interpret_.wanted.size(), true);
}

bool PacketSource::PunctuationDue() const {
  return options_.punctuation_interval > 0 &&
         packets_.value() % options_.punctuation_interval == 0;
}

bool PacketSource::AppendPunctuation(SimTime t, const ByteSpan* tuple,
                                     const Offer& offer) {
  if (tuple != nullptr && !tuple_bounded_.empty()) {
    interpret_.codec.ReadFields(*tuple, tuple_bounded_, &bound_row_);
  }
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
      default:
        if (tuple != nullptr) {
          punctuation.bounds.emplace_back(f, bound_row_[f]);
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
  rts::AppendPunctuation(punctuation, schema_, meta, &open_batch_);
  last_punct_time_ = t;
  return true;
}

bool PacketSource::FlushBatch() {
  if (open_batch_.empty()) return false;
  // The next batch is sized like this one: one allocation each for its
  // arena and item table, however many tuples it will hold.
  const size_t items = open_batch_.size();
  const size_t bytes = open_batch_.arena().size();
  registry_->PublishBatch(stream_name(), std::move(open_batch_));
  open_batch_.clear();
  open_batch_.Reserve(items, bytes);
  return true;
}

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
  if (offer.shed) {
    // A shed packet still counts toward the punctuation interval and, on
    // its boundary, punctuates (like a heartbeat) so windows keep closing
    // under heavy shed.
    return PunctuationDue() && AppendPunctuation(t, nullptr, Offer{}) &&
           FlushBatch();
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
  if (open_batch_.empty()) batch_open_time_ = t;
  // The fields go straight from the decoded headers into the arena.
  const size_t size = fields.PackedSize(interpret_);
  uint8_t* tuple = open_batch_.Append(meta, size);
  fields.Pack(interpret_, tuple);
  if (last_punct_time_ > 0) {
    punct_lag_.Record(static_cast<uint64_t>(t - last_punct_time_));
  }
  // The batch publishes as one ring message when it fills, a punctuation
  // closes it (a punctuation is always a batch's last item), or it ages
  // out.
  bool flush = open_batch_.size() >= options_.batch_max_size;
  const ByteSpan packed(tuple, size);
  if (PunctuationDue() && AppendPunctuation(t, &packed, offer)) flush = true;
  if (!flush && options_.batch_max_delay > 0 &&
      t - batch_open_time_ >= options_.batch_max_delay) {
    flush = true;
  }
  return flush && FlushBatch();
}

bool PacketSource::Heartbeat(SimTime now) {
  // The punctuation closes (and publishes) the open batch, so it arrives
  // after every tuple injected before the heartbeat. A heartbeat behind
  // the last punctuation re-states that bound.
  const SimTime t = std::max(now, last_punct_time_);
  if (!AppendPunctuation(t, nullptr, Offer{})) return false;
  return FlushBatch();
}

}  // namespace gigascope::core
