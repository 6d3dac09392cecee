#ifndef GIGASCOPE_OPS_TCP_SESSION_H_
#define GIGASCOPE_OPS_TCP_SESSION_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "rts/node.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// TCP session extraction — the paper's §5 research direction:
///
///   "While GSQL suffices for a large class of tasks, many network analysis
///    queries find and aggregate subsequences of the data stream (i.e.,
///    extract the TCP/IP sessions)."
///
/// GSQL's per-tuple operators cannot express a stateful protocol machine,
/// so this is a user-written query node (the same §3 API as the IP
/// defragmenter): it consumes a PKT-shaped stream and emits one tuple per
/// *finished* TCP session:
///
///   (time UINT INCREASING,   -- when the session finished (seconds)
///    srcIP IP, destIP IP, srcPort UINT, destPort UINT,  -- initiator view
///    packets UINT, bytes UINT,
///    duration UINT,          -- seconds from SYN to finish
///    state STRING)           -- "closed" | "reset" | "timeout"
///
/// Sessions begin at a SYN (mid-stream traffic without a visible SYN is
/// ignored — a monitor can only account sessions it saw open); both
/// directions of the connection accumulate into one session. A session
/// finishes when FINs have been seen from both endpoints, when either side
/// sends RST, or when it idles past `timeout_seconds`.
class TcpSessionNode : public rts::QueryNode {
 public:
  struct Spec {
    std::string name;                 // output stream name
    gsql::StreamSchema input_schema;  // PKT-shaped protocol stream
    uint64_t timeout_seconds = 300;
    size_t max_sessions = 65536;      // cache bound; oldest evicted as timeout
  };

  static gsql::StreamSchema OutputSchema(const std::string& name);

  static Result<std::unique_ptr<TcpSessionNode>> Create(
      Spec spec, rts::Subscription input, rts::StreamRegistry* registry);

  size_t Poll(size_t budget) override;
  void Flush() override;

  size_t open_sessions() const { return sessions_.size(); }
  uint64_t sessions_closed() const { return closed_; }
  uint64_t sessions_reset() const { return reset_; }
  uint64_t sessions_timed_out() const { return timed_out_; }

 private:
  struct FieldSlots {
    size_t time, src, dst, sport, dport, proto, flags, len;
  };
  /// Direction-insensitive connection key: the initiator's view is kept in
  /// the session record itself.
  struct SessionKey {
    uint32_t addr_a, addr_b;
    uint16_t port_a, port_b;
    bool operator<(const SessionKey& other) const {
      return std::tie(addr_a, addr_b, port_a, port_b) <
             std::tie(other.addr_a, other.addr_b, other.port_a,
                      other.port_b);
    }
  };
  struct Session {
    uint32_t initiator_addr, responder_addr;
    uint16_t initiator_port, responder_port;
    uint64_t start_time, last_time;
    uint64_t packets = 0, bytes = 0;
    bool fin_from_initiator = false;
    bool fin_from_responder = false;
  };

  TcpSessionNode(Spec spec, FieldSlots slots, rts::Subscription input,
                 rts::StreamRegistry* registry);

  void ProcessTuple(ByteSpan payload);
  void Emit(uint64_t end_time, const Session& session, const char* state);
  void ExpireOld(uint64_t time_now);
  /// Erases the session at `it` from the table and from by_last_time_.
  std::map<SessionKey, Session>::iterator Erase(
      std::map<SessionKey, Session>::iterator it);

  Spec spec_;
  FieldSlots slots_;
  rts::Subscription input_;
  rts::TupleCodec input_codec_;
  rts::TupleCodec output_codec_;
  rts::BatchWriter writer_;
  std::map<SessionKey, Session> sessions_;
  /// Every session as (last_time, key): the stalest first, ties to the
  /// first key in table order. The eviction victim is begin(), and
  /// ExpireOld scans only once begin() has idled past the timeout.
  std::set<std::pair<uint64_t, SessionKey>> by_last_time_;
  uint64_t closed_ = 0;
  uint64_t reset_ = 0;
  uint64_t timed_out_ = 0;
  uint64_t last_emit_time_ = 0;
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_TCP_SESSION_H_
