#ifndef GIGASCOPE_OPS_DEFRAG_H_
#define GIGASCOPE_OPS_DEFRAG_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rts/node.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// IP defragmentation as a user-written query node (§3):
///
///   "Users can write their own query nodes to implement special operators
///    by following this API. For example, we have implemented a special IP
///    defragmentation operator in this manner and have built a query tree
///    using it. The ability to bypass the existing query system when
///    necessary is a critical flexibility in our application domain."
///
/// The node consumes a packet Protocol stream (it needs the srcIP, destIP,
/// protocol, ipId, fragOffset, moreFrags, ipPayload, and time attributes of
/// the built-in PKT schema) and produces one tuple per *reassembled IP
/// datagram*:
///
///   (time UINT INCREASING, srcIP IP, destIP IP, protocol UINT,
///    datagram STRING)
///
/// where `datagram` is the full reassembled IP payload (transport header
/// included). Unfragmented packets pass straight through. Partial
/// assemblies are abandoned after `timeout_seconds` without completion
/// (counted in `timeouts()`), exactly like a router's reassembly cache.
class IpDefragNode : public rts::QueryNode {
 public:
  struct Spec {
    std::string name;                 // output stream name
    gsql::StreamSchema input_schema;  // a PKT-shaped protocol stream
    uint64_t timeout_seconds = 30;
    /// Maximum distinct in-flight assemblies; beyond this the oldest is
    /// dropped (counted as a timeout).
    size_t max_assemblies = 4096;
  };

  /// Output schema this node produces (given the stream name).
  static gsql::StreamSchema OutputSchema(const std::string& name);

  /// Builds the node; fails if the input schema lacks a required field.
  static Result<std::unique_ptr<IpDefragNode>> Create(
      Spec spec, rts::Subscription input, rts::StreamRegistry* registry);

  size_t Poll(size_t budget) override;
  void Flush() override;
  void RegisterTelemetry(telemetry::Registry* metrics) const override;

  uint64_t datagrams_out() const { return tuples_out(); }
  uint64_t timeouts() const { return timeouts_; }
  /// Fragments rejected as impossible under IPv4 (offset beyond the 13-bit
  /// field, data past the 64 KiB datagram bound, fragment-flood assemblies)
  /// — header-lying input dropped instead of trusted.
  uint64_t parse_errors() const { return parse_errors_.value(); }
  size_t open_assemblies() const { return assemblies_.size(); }

  /// IPv4 bounds enforced on every fragment: the fragment-offset field is
  /// 13 bits of 8-byte units and a datagram never exceeds 64 KiB.
  static constexpr uint64_t kMaxFragOffsetUnits = 0x1FFF;
  static constexpr uint64_t kMaxDatagramLen = 65535;
  /// Fragments one assembly may hold (a legitimate 64 KiB datagram of
  /// minimal 8-byte fragments); beyond this the assembly is a flood.
  static constexpr size_t kMaxFragmentsPerAssembly = 8192;

 private:
  struct FieldSlots {
    size_t time, src, dst, proto, ip_id, frag_offset, more_frags, payload;
  };
  struct AssemblyKey {
    uint32_t src;
    uint32_t dst;
    uint64_t proto;
    uint64_t ip_id;
    bool operator<(const AssemblyKey& other) const {
      return std::tie(src, dst, proto, ip_id) <
             std::tie(other.src, other.dst, other.proto, other.ip_id);
    }
  };
  struct Fragment {
    uint64_t offset;  // bytes
    std::string bytes;
  };
  struct Assembly {
    std::vector<Fragment> fragments;
    uint64_t total_len = 0;       // known once the MF=0 fragment arrives
    bool have_last = false;
    uint64_t first_seen_time = 0;  // seconds
  };

  IpDefragNode(Spec spec, FieldSlots slots, rts::Subscription input,
               rts::StreamRegistry* registry);

  void ProcessTuple(ByteSpan payload);
  /// Emits the datagram if the assembly is complete; returns true then.
  bool TryComplete(const AssemblyKey& key, Assembly& assembly,
                   uint64_t time_now);
  void Emit(uint64_t time_now, const AssemblyKey& key,
            const std::string& datagram);
  void ExpireOld(uint64_t time_now);
  /// Erases the assembly at `it` from the table and from
  /// by_first_seen_.
  std::map<AssemblyKey, Assembly>::iterator Erase(
      std::map<AssemblyKey, Assembly>::iterator it);

  Spec spec_;
  FieldSlots slots_;
  rts::Subscription input_;
  rts::TupleCodec input_codec_;
  rts::TupleCodec output_codec_;
  rts::BatchWriter writer_;
  std::map<AssemblyKey, Assembly> assemblies_;
  /// Every assembly as (first_seen_time, key): the oldest first, ties to
  /// the first key in table order. The eviction victim is begin(), and
  /// ExpireOld scans only once begin() is past the timeout.
  std::set<std::pair<uint64_t, AssemblyKey>> by_first_seen_;
  uint64_t timeouts_ = 0;
  telemetry::Counter parse_errors_;
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_DEFRAG_H_
