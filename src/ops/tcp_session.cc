#include "ops/tcp_session.h"

#include <algorithm>

#include "common/logging.h"
#include "net/headers.h"

namespace gigascope::ops {

using expr::Value;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

StreamSchema TcpSessionNode::OutputSchema(const std::string& name) {
  std::vector<FieldDef> fields;
  fields.push_back({"time", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"srcIP", DataType::kIp, OrderSpec::None()});
  fields.push_back({"destIP", DataType::kIp, OrderSpec::None()});
  fields.push_back({"srcPort", DataType::kUint, OrderSpec::None()});
  fields.push_back({"destPort", DataType::kUint, OrderSpec::None()});
  fields.push_back({"packets", DataType::kUint, OrderSpec::None()});
  fields.push_back({"bytes", DataType::kUint, OrderSpec::None()});
  fields.push_back({"duration", DataType::kUint, OrderSpec::None()});
  fields.push_back({"state", DataType::kString, OrderSpec::None()});
  return StreamSchema(name, StreamKind::kStream, fields);
}

Result<std::unique_ptr<TcpSessionNode>> TcpSessionNode::Create(
    Spec spec, rts::Subscription input, rts::StreamRegistry* registry) {
  FieldSlots slots;
  struct Need {
    const char* name;
    size_t* slot;
  };
  const Need needs[] = {
      {"time", &slots.time},        {"srcIP", &slots.src},
      {"destIP", &slots.dst},       {"srcPort", &slots.sport},
      {"destPort", &slots.dport},   {"protocol", &slots.proto},
      {"tcpFlags", &slots.flags},   {"len", &slots.len},
  };
  for (const Need& need : needs) {
    auto index = spec.input_schema.FieldIndex(need.name);
    if (!index.has_value()) {
      return Status::InvalidArgument(
          std::string("tcp session input schema lacks required field '") +
          need.name + "'");
    }
    *need.slot = *index;
  }
  GS_RETURN_IF_ERROR(registry->DeclareStream(OutputSchema(spec.name)));
  return std::unique_ptr<TcpSessionNode>(
      new TcpSessionNode(std::move(spec), slots, std::move(input), registry));
}

TcpSessionNode::TcpSessionNode(Spec spec, FieldSlots slots,
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

size_t TcpSessionNode::Poll(size_t budget) {
  const size_t processed = ReadInput(
      input_, input_codec_, budget,
      [this](const rts::BatchItem&, ByteSpan payload) {
        ProcessTuple(payload);
      },
      [](ByteSpan) {});
  writer_.Flush();
  return processed;
}

void TcpSessionNode::ProcessTuple(ByteSpan payload) {
  // The named fields, read in place from the framed tuple.
  const auto read = [&](size_t field) {
    return expr::ReadField(input_codec_.slot(field).type,
                           input_codec_.Locate(payload.data(), field));
  };
  if (read(slots_.proto).uint_value() != net::kIpProtoTcp) return;

  uint64_t now = read(slots_.time).uint_value();
  ExpireOld(now);

  uint32_t src = read(slots_.src).ip_value();
  uint32_t dst = read(slots_.dst).ip_value();
  uint16_t sport = static_cast<uint16_t>(read(slots_.sport).uint_value());
  uint16_t dport = static_cast<uint16_t>(read(slots_.dport).uint_value());
  uint64_t flags = read(slots_.flags).uint_value();
  uint64_t len = read(slots_.len).uint_value();

  SessionKey key;
  // Normalize so both directions map to the same session.
  if (std::tie(src, sport) < std::tie(dst, dport)) {
    key = {src, dst, sport, dport};
  } else {
    key = {dst, src, dport, sport};
  }

  auto it = sessions_.find(key);
  bool is_syn = (flags & net::kTcpFlagSyn) != 0 &&
                (flags & net::kTcpFlagAck) == 0;
  if (it == sessions_.end()) {
    // Only SYN-initiated sessions are tracked: the monitor cannot account
    // a connection it never saw open.
    if (!is_syn) return;
    Session session;
    session.initiator_addr = src;
    session.responder_addr = dst;
    session.initiator_port = sport;
    session.responder_port = dport;
    session.start_time = now;
    session.last_time = now;
    session.packets = 1;
    session.bytes = len;
    sessions_.emplace(key, session);
    if (sessions_.size() > spec_.max_sessions) {
      // Evict the stalest session as a timeout.
      auto oldest = sessions_.begin();
      for (auto scan = sessions_.begin(); scan != sessions_.end(); ++scan) {
        if (scan->second.last_time < oldest->second.last_time) oldest = scan;
      }
      Emit(oldest->second.last_time, oldest->second, "timeout");
      ++timed_out_;
      sessions_.erase(oldest);
    }
    return;
  }

  Session& session = it->second;
  session.last_time = now;
  session.packets += 1;
  session.bytes += len;

  if (flags & net::kTcpFlagRst) {
    Emit(now, session, "reset");
    ++reset_;
    sessions_.erase(it);
    return;
  }
  if (flags & net::kTcpFlagFin) {
    bool from_initiator =
        src == session.initiator_addr && sport == session.initiator_port;
    if (from_initiator) {
      session.fin_from_initiator = true;
    } else {
      session.fin_from_responder = true;
    }
    if (session.fin_from_initiator && session.fin_from_responder) {
      Emit(now, session, "closed");
      ++closed_;
      sessions_.erase(it);
    }
  }
}

void TcpSessionNode::Emit(uint64_t end_time, const Session& session,
                          const char* state) {
  // Keep the output's declared INCREASING property even when a timeout
  // surfaces an old last_time: clamp to the emission high-water mark.
  end_time = std::max(end_time, last_emit_time_);
  last_emit_time_ = end_time;

  rts::Row out;
  out.push_back(Value::Uint(end_time));
  out.push_back(Value::Ip(session.initiator_addr));
  out.push_back(Value::Ip(session.responder_addr));
  out.push_back(Value::Uint(session.initiator_port));
  out.push_back(Value::Uint(session.responder_port));
  out.push_back(Value::Uint(session.packets));
  out.push_back(Value::Uint(session.bytes));
  out.push_back(Value::Uint(end_time > session.start_time
                                ? end_time - session.start_time
                                : 0));
  out.push_back(Value::String(state));
  rts::MessageMeta meta;
  StampOutput(&meta);
  writer_.WriteTuple(output_codec_, out, meta);
  ++tuples_out_;
}

void TcpSessionNode::ExpireOld(uint64_t time_now) {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (time_now >= it->second.last_time &&
        time_now - it->second.last_time > spec_.timeout_seconds) {
      Emit(it->second.last_time, it->second, "timeout");
      ++timed_out_;
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpSessionNode::Flush() {
  for (const auto& [key, session] : sessions_) {
    Emit(session.last_time, session, "timeout");
    ++timed_out_;
  }
  sessions_.clear();
  writer_.Flush();  // Flush runs outside any Poll round
}

}  // namespace gigascope::ops
