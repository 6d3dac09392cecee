#include "core/packet_source.h"

#include <algorithm>

#include "core/compiled_query.h"
#include "net/headers.h"
#include "rts/punctuation.h"
#include "telemetry/metric_names.h"

namespace gigascope::core {

using expr::Value;
using Extract = InterpretPlan::Extract;
namespace metric = telemetry::metric;

InterpretPlan BuildInterpretPlan(const gsql::StreamSchema& schema) {
  InterpretPlan plan;
  plan.fields.reserve(schema.num_fields());
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    const gsql::FieldDef& field = schema.field(f);
    const std::string& name = field.name;
    Extract extract = Extract::kDefault;
    if (name == "time") extract = Extract::kTime;
    else if (name == "timestamp") extract = Extract::kTimestamp;
    else if (name == "len") extract = Extract::kLen;
    else if (name == "srcIP") extract = Extract::kSrcIp;
    else if (name == "destIP") extract = Extract::kDestIp;
    else if (name == "srcPort") extract = Extract::kSrcPort;
    else if (name == "destPort") extract = Extract::kDestPort;
    else if (name == "protocol") extract = Extract::kProtocol;
    else if (name == "ipVersion") extract = Extract::kIpVersion;
    else if (name == "tcpFlags") extract = Extract::kTcpFlags;
    else if (name == "tcpSeq") extract = Extract::kTcpSeq;
    else if (name == "ipId") extract = Extract::kIpId;
    else if (name == "fragOffset") extract = Extract::kFragOffset;
    else if (name == "moreFrags") extract = Extract::kMoreFrags;
    else if (name == "payload") extract = Extract::kPayload;
    else if (name == "ipPayload") extract = Extract::kIpPayload;
    plan.fields.push_back(extract);
    plan.types.push_back(field.type);
    plan.wanted.push_back(true);
  }
  return plan;
}

rts::Row InterpretPacket(const InterpretPlan& plan,
                         const net::Packet& packet) {
  return InterpretPacket(plan, packet, nullptr);
}

rts::Row InterpretPacket(const InterpretPlan& plan, const net::Packet& packet,
                         bool* malformed) {
  auto decoded_result = net::DecodePacket(packet.view());
  const net::DecodedPacket* decoded =
      decoded_result.ok() ? &decoded_result.value() : nullptr;
  if (malformed != nullptr) *malformed = decoded == nullptr;
  const bool has_ip = decoded != nullptr && decoded->ip.has_value();

  rts::Row row;
  row.reserve(plan.fields.size());
  for (size_t f = 0; f < plan.fields.size(); ++f) {
    Extract extract = plan.fields[f];
    // Gated-off fields and extractors whose protocol layer is absent both
    // interpret as the type default, matching name-based interpretation of
    // an undecodable packet.
    if (!plan.wanted[f]) extract = Extract::kDefault;
    switch (extract) {
      case Extract::kTime:
        row.push_back(Value::Uint(
            static_cast<uint64_t>(SimTimeToSeconds(packet.timestamp))));
        continue;
      case Extract::kTimestamp:
        row.push_back(Value::Uint(static_cast<uint64_t>(packet.timestamp)));
        continue;
      case Extract::kLen:
        row.push_back(Value::Uint(packet.orig_len));
        continue;
      case Extract::kSrcIp:
        if (!has_ip) break;
        row.push_back(Value::Ip(decoded->ip->src_addr));
        continue;
      case Extract::kDestIp:
        if (!has_ip) break;
        row.push_back(Value::Ip(decoded->ip->dst_addr));
        continue;
      case Extract::kSrcPort: {
        if (decoded == nullptr) break;
        uint16_t port = decoded->is_tcp()   ? decoded->tcp->src_port
                        : decoded->is_udp() ? decoded->udp->src_port
                                            : 0;
        row.push_back(Value::Uint(port));
        continue;
      }
      case Extract::kDestPort: {
        if (decoded == nullptr) break;
        uint16_t port = decoded->is_tcp()   ? decoded->tcp->dst_port
                        : decoded->is_udp() ? decoded->udp->dst_port
                                            : 0;
        row.push_back(Value::Uint(port));
        continue;
      }
      case Extract::kProtocol:
        if (!has_ip) break;
        row.push_back(Value::Uint(decoded->ip->protocol));
        continue;
      case Extract::kIpVersion:
        if (decoded == nullptr) break;
        row.push_back(Value::Uint(has_ip ? 4 : 0));
        continue;
      case Extract::kTcpFlags:
        if (decoded == nullptr) break;
        row.push_back(
            Value::Uint(decoded->is_tcp() ? decoded->tcp->flags : 0));
        continue;
      case Extract::kTcpSeq:
        if (decoded == nullptr) break;
        row.push_back(Value::Uint(decoded->is_tcp() ? decoded->tcp->seq : 0));
        continue;
      case Extract::kIpId:
        if (!has_ip) break;
        row.push_back(Value::Uint(decoded->ip->identification));
        continue;
      case Extract::kFragOffset:
        if (!has_ip) break;
        row.push_back(Value::Uint(decoded->ip->fragment_offset));
        continue;
      case Extract::kMoreFrags:
        if (!has_ip) break;
        row.push_back(Value::Uint(decoded->ip->more_fragments() ? 1 : 0));
        continue;
      case Extract::kIpPayload: {
        if (!has_ip) break;
        // The IP payload including any transport header — what an IP
        // defragmenter reassembles.
        size_t start = net::kEthernetHeaderLen + decoded->ip->header_len;
        std::string ip_payload;
        if (packet.bytes.size() > start) {
          ip_payload.assign(
              reinterpret_cast<const char*>(packet.bytes.data() + start),
              packet.bytes.size() - start);
        }
        row.push_back(Value::String(std::move(ip_payload)));
        continue;
      }
      case Extract::kPayload: {
        std::string payload;
        if (decoded != nullptr) {
          payload.assign(
              reinterpret_cast<const char*>(decoded->payload.data()),
              decoded->payload.size());
        }
        row.push_back(Value::String(std::move(payload)));
        continue;
      }
      case Extract::kDefault:
        break;
    }
    row.push_back(Value::Default(plan.types[f]));
  }
  return row;
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
      interpret_(BuildInterpretPlan(schema_)),
      codec_(schema_) {
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

bool PacketSource::AppendPunctuation(SimTime t, const rts::Row* row,
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
      default:
        if (row != nullptr) punctuation.bounds.emplace_back(f, (*row)[f]);
        break;
    }
  }
  if (punctuation.bounds.empty()) return false;
  rts::StreamMessage message =
      rts::MakePunctuationMessage(punctuation, schema_);
  // A punctuation triggered by a traced packet carries its context:
  // aggregate groups it closes downstream inherit the trace, so e2e latency
  // covers inject -> group close even when the close is punctuation-driven.
  message.trace_id = offer.trace_id;
  message.trace_ns = offer.trace_ns;
  open_batch_.items.push_back(std::move(message));
  last_punct_time_ = t;
  return true;
}

bool PacketSource::FlushBatch() {
  if (open_batch_.items.empty()) return false;
  registry_->PublishBatch(stream_name(), std::move(open_batch_));
  open_batch_.items.clear();
  return true;
}

bool PacketSource::Inject(const net::Packet& packet, const Offer& offer) {
  // A packet stamped behind the last punctuation would violate the
  // ordering promise already published downstream; clamp it to the bound
  // (windows at the bound are still open — closes are strictly-below) and
  // count the regression.
  const net::Packet* effective = &packet;
  net::Packet clamped;
  if (packet.timestamp < last_punct_time_) {
    clamped = packet;
    clamped.timestamp = last_punct_time_;
    effective = &clamped;
    ++time_regressions_;
  }
  const SimTime t = effective->timestamp;
  ++packets_;
  if (offer.shed) {
    // A shed packet still counts toward the punctuation interval and, on
    // its boundary, punctuates (like a heartbeat) so windows keep closing
    // under heavy shed.
    return PunctuationDue() && AppendPunctuation(t, nullptr, Offer{}) &&
           FlushBatch();
  }
  bool malformed = false;
  rts::Row row = InterpretPacket(interpret_, *effective, &malformed);
  if (malformed) ++parse_errors_;
  rts::StreamMessage message;
  message.kind = rts::StreamMessage::Kind::kTuple;
  message.trace_id = offer.trace_id;
  message.trace_ns = offer.trace_ns;
  // Horvitz-Thompson weight, stamped at the sampling decision: this
  // survivor stands for itself plus the packets the L1 sampler sheds
  // around it.
  message.weight = offer.weight;
  codec_.Encode(row, &message.payload);
  if (open_batch_.items.empty()) batch_open_time_ = t;
  open_batch_.items.push_back(std::move(message));
  if (last_punct_time_ > 0) {
    punct_lag_.Record(static_cast<uint64_t>(t - last_punct_time_));
  }
  // The batch publishes as one ring message when it fills, a punctuation
  // closes it (a punctuation is always a batch's last item), or it ages
  // out.
  bool flush = open_batch_.items.size() >= options_.batch_max_size;
  if (PunctuationDue() && AppendPunctuation(t, &row, offer)) flush = true;
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
