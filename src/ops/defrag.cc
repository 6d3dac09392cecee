#include "ops/defrag.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/metric_names.h"

namespace gigascope::ops {

using expr::Value;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

StreamSchema IpDefragNode::OutputSchema(const std::string& name) {
  std::vector<FieldDef> fields;
  fields.push_back({"time", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"srcIP", DataType::kIp, OrderSpec::None()});
  fields.push_back({"destIP", DataType::kIp, OrderSpec::None()});
  fields.push_back({"protocol", DataType::kUint, OrderSpec::None()});
  fields.push_back({"datagram", DataType::kString, OrderSpec::None()});
  return StreamSchema(name, StreamKind::kStream, fields);
}

Result<std::unique_ptr<IpDefragNode>> IpDefragNode::Create(
    Spec spec, rts::Subscription input, rts::StreamRegistry* registry) {
  FieldSlots slots;
  struct Need {
    const char* name;
    size_t* slot;
  };
  const Need needs[] = {
      {"time", &slots.time},           {"srcIP", &slots.src},
      {"destIP", &slots.dst},          {"protocol", &slots.proto},
      {"ipId", &slots.ip_id},          {"fragOffset", &slots.frag_offset},
      {"moreFrags", &slots.more_frags}, {"ipPayload", &slots.payload},
  };
  for (const Need& need : needs) {
    auto index = spec.input_schema.FieldIndex(need.name);
    if (!index.has_value()) {
      return Status::InvalidArgument(
          std::string("defrag input schema lacks required field '") +
          need.name + "'");
    }
    *need.slot = *index;
  }
  GS_RETURN_IF_ERROR(registry->DeclareStream(OutputSchema(spec.name)));
  return std::unique_ptr<IpDefragNode>(
      new IpDefragNode(std::move(spec), slots, std::move(input), registry));
}

IpDefragNode::IpDefragNode(Spec spec, FieldSlots slots,
                           rts::Subscription input,
                           rts::StreamRegistry* registry)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      slots_(slots),
      input_(std::move(input)),
      input_codec_(spec_.input_schema),
      output_codec_(OutputSchema(spec_.name)),
      writer_(registry, spec_.name, rts::BatchWriter::kDefaultMaxBatch) {
  RegisterInput(input_);
}

size_t IpDefragNode::Poll(size_t budget) {
  // Punctuations carry no fragment data; reassembly state is bounded by
  // the timeout instead.
  const size_t processed = ReadInput(
      input_, input_codec_, budget,
      [this](const rts::BatchItem&, ByteSpan payload) {
        ProcessTuple(payload);
      },
      [](ByteSpan) {});
  writer_.Flush();
  return processed;
}

void IpDefragNode::ProcessTuple(ByteSpan payload) {
  // The named fields, read in place from the framed tuple.
  const auto read = [&](size_t field) {
    return expr::ReadField(input_codec_.slot(field).type,
                           input_codec_.Locate(payload.data(), field));
  };
  uint64_t time_now = read(slots_.time).uint_value();
  uint64_t frag_offset = read(slots_.frag_offset).uint_value();
  uint64_t more_frags = read(slots_.more_frags).uint_value();

  ExpireOld(time_now);

  AssemblyKey key;
  key.src = read(slots_.src).ip_value();
  key.dst = read(slots_.dst).ip_value();
  key.proto = read(slots_.proto).uint_value();
  key.ip_id = read(slots_.ip_id).uint_value();
  const Value ip_payload = read(slots_.payload);

  if (frag_offset == 0 && more_frags == 0) {
    // Unfragmented: pass straight through.
    Emit(time_now, key, ip_payload.string_value());
    return;
  }

  // IPv4 bounds, enforced before any state is touched: the wire format
  // cannot produce an offset beyond 13 bits, and no fragment may carry
  // data past the 64 KiB datagram limit. Rows arriving through InjectRow
  // are not wire-constrained, so a header that lies is dropped and
  // counted, never trusted into the reassembly arithmetic.
  if (frag_offset > kMaxFragOffsetUnits) {
    ++parse_errors_;
    return;
  }
  const uint64_t byte_offset = frag_offset * 8;
  const std::string& frag_bytes = ip_payload.string_value();
  if (byte_offset + frag_bytes.size() > kMaxDatagramLen) {
    ++parse_errors_;
    return;
  }

  auto [at, created] = assemblies_.try_emplace(key);
  Assembly& assembly = at->second;
  if (created) {
    assembly.first_seen_time = time_now;
    by_first_seen_.emplace(time_now, key);
  }
  if (assembly.fragments.size() >= kMaxFragmentsPerAssembly) {
    // Fragment flood on one key: abandon the assembly rather than grow it.
    ++parse_errors_;
    Erase(at);
    return;
  }
  Fragment fragment;
  fragment.offset = byte_offset;  // the IP field counts 8-byte units
  fragment.bytes = frag_bytes;
  if (more_frags == 0) {
    assembly.have_last = true;
    assembly.total_len = fragment.offset + fragment.bytes.size();
  }
  assembly.fragments.push_back(std::move(fragment));

  if (TryComplete(key, assembly, time_now)) {
    Erase(at);
  } else if (assemblies_.size() > spec_.max_assemblies) {
    // Reassembly cache overflow: evict the oldest partial.
    Erase(assemblies_.find(by_first_seen_.begin()->second));
    ++timeouts_;
  }
}

std::map<IpDefragNode::AssemblyKey, IpDefragNode::Assembly>::iterator
IpDefragNode::Erase(std::map<AssemblyKey, Assembly>::iterator it) {
  by_first_seen_.erase({it->second.first_seen_time, it->first});
  return assemblies_.erase(it);
}

bool IpDefragNode::TryComplete(const AssemblyKey& key, Assembly& assembly,
                               uint64_t time_now) {
  if (!assembly.have_last) return false;
  std::sort(assembly.fragments.begin(), assembly.fragments.end(),
            [](const Fragment& a, const Fragment& b) {
              return a.offset < b.offset;
            });
  // Contiguity check (overlaps tolerated, truncated to the expected span —
  // hostile overlapping fragments must not confuse the monitor).
  uint64_t covered = 0;
  for (const Fragment& fragment : assembly.fragments) {
    if (fragment.offset > covered) return false;  // hole
    covered = std::max(covered, fragment.offset + fragment.bytes.size());
  }
  if (covered < assembly.total_len) return false;

  std::string datagram(assembly.total_len, '\0');
  for (const Fragment& fragment : assembly.fragments) {
    // Fragments lying beyond total_len exist when a fragment after the
    // MF=0 one claimed a larger span than the declared end: their bytes
    // fall outside the datagram and are dropped (replace would throw on
    // an offset past the string end).
    if (fragment.offset >= assembly.total_len) continue;
    size_t copy_len = std::min<uint64_t>(
        fragment.bytes.size(), assembly.total_len - fragment.offset);
    datagram.replace(fragment.offset, copy_len, fragment.bytes, 0, copy_len);
  }
  Emit(time_now, key, datagram);
  return true;
}

void IpDefragNode::Emit(uint64_t time_now, const AssemblyKey& key,
                        const std::string& datagram) {
  rts::Row out;
  out.push_back(Value::Uint(time_now));
  out.push_back(Value::Ip(key.src));
  out.push_back(Value::Ip(key.dst));
  out.push_back(Value::Uint(key.proto));
  out.push_back(Value::String(datagram));
  rts::MessageMeta meta;
  StampOutput(&meta);
  writer_.WriteTuple(output_codec_, out, meta);
  ++tuples_out_;
}

void IpDefragNode::ExpireOld(uint64_t time_now) {
  // No assembly outlives the timeout before the oldest one does.
  if (by_first_seen_.empty() ||
      time_now - std::min(time_now, by_first_seen_.begin()->first) <=
          spec_.timeout_seconds) {
    return;
  }
  for (auto it = assemblies_.begin(); it != assemblies_.end();) {
    if (time_now >= it->second.first_seen_time &&
        time_now - it->second.first_seen_time > spec_.timeout_seconds) {
      it = Erase(it);
      ++timeouts_;
    } else {
      ++it;
    }
  }
}

void IpDefragNode::Flush() {
  // Incomplete assemblies cannot produce correct datagrams; drop them.
  timeouts_ += assemblies_.size();
  assemblies_.clear();
  by_first_seen_.clear();
  writer_.Flush();  // Flush runs outside any Poll round
}

void IpDefragNode::RegisterTelemetry(telemetry::Registry* metrics) const {
  QueryNode::RegisterTelemetry(metrics);
  metrics->Register(name(), telemetry::metric::kParseErrors, &parse_errors_);
}

}  // namespace gigascope::ops
