// Independent reference semantics for the benchmark's queries.
//
// Each query the benchmark runs is also evaluated here, over the same
// packets, as a plain relational computation: the packet bytes are parsed
// by a parser of this file's own (not net::DecodePacket), filters are C++
// conditions, GROUP BY is a std::map, and the regex is std::regex_search.
// Nothing here touches the engine's planner, expression VM or operators,
// so a wrong answer from any of them shows up as a row mismatch.
#ifndef GIGASCOPE_PERFBENCH_REFERENCE_H_
#define GIGASCOPE_PERFBENCH_REFERENCE_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "net/packet.h"

namespace perfbench {

/// The queries the workloads are built from.
enum class QueryKind {
  kTcpFilter,  // LFTA-only filter: one row per IPv4 TCP packet
  kDestAgg,    // split aggregation by (second, destIP)
  kHttpRegex,  // port-80 TCP packets whose first line holds "HTTP/1"
  kSrcAgg,     // split aggregation by (second, srcIP)
};

struct QueryDef {
  QueryKind kind;
  const char* name;  // the GSQL query_name, also the subscribed stream
  const char* gsql;
};

const QueryDef& Query(QueryKind kind);

/// An output row in compact form: every column of these queries is an
/// integer, an IP address or a count, so each fits one uint64.
using OutRow = std::array<uint64_t, 5>;

/// Header fields the reference needs, parsed from raw Ethernet bytes.
struct ParsedPacket {
  bool ipv4 = false;
  uint8_t protocol = 0;
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t dst_port = 0;
  std::string_view payload;  // views the packet's bytes
};

/// Returns false when the bytes are not Ethernet + IPv4 (+ TCP/UDP).
bool ParsePacket(const gigascope::net::Packet& packet, ParsedPacket* out);

/// The rows `kind` must produce over `packets`, sorted by key.
std::vector<OutRow> ReferenceRows(QueryKind kind,
                                  const std::vector<gigascope::net::Packet>&
                                      packets);

/// Outcome of comparing engine rows with reference rows.
struct Comparison {
  uint64_t reference_rows = 0;
  uint64_t missing = 0;    // reference key never produced
  uint64_t extra = 0;      // produced key absent from the reference, or a
                           // key produced twice
  uint64_t differing = 0;  // key present, other columns different
  uint64_t wrong() const { return missing + extra + differing; }
};

/// Compares `actual` (any order) with `expected` (from ReferenceRows).
Comparison CompareRows(QueryKind kind, const std::vector<OutRow>& expected,
                       std::vector<OutRow> actual);

/// Index of the packet whose due time a row's latency is measured from:
/// the row's own packet for per-packet queries, the last packet of the
/// row's one-second bucket for aggregates. `timestamps` is sorted
/// (generated timestamps strictly increase). Returns -1 for a row whose
/// packet is not in the trace.
int64_t TriggerPacket(QueryKind kind, const OutRow& row,
                      const std::vector<int64_t>& timestamps);

}  // namespace perfbench

#endif  // GIGASCOPE_PERFBENCH_REFERENCE_H_
