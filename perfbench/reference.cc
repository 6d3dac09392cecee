#include "reference.h"

#include <algorithm>
#include <map>
#include <regex>
#include <utility>

namespace perfbench {

namespace {

constexpr int64_t kNanosPerSecond = 1000000000;

const QueryDef kQueries[] = {
    {QueryKind::kTcpFilter, "tcp_filter",
     "DEFINE { query_name tcp_filter; } "
     "SELECT time, timestamp, destIP, destPort, len FROM eth0.PKT "
     "WHERE ipVersion = 4 AND protocol = 6"},
    {QueryKind::kDestAgg, "dest_agg",
     "DEFINE { query_name dest_agg; } "
     "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
     "GROUP BY time AS tb, destIP"},
    {QueryKind::kHttpRegex, "http_regex",
     "DEFINE { query_name http_regex; } "
     "SELECT time, timestamp, srcIP, len FROM eth0.PKT "
     "WHERE protocol = 6 AND destPort = 80 "
     "AND match_regex(payload, '^[^\\n]*HTTP/1.*')"},
    {QueryKind::kSrcAgg, "src_agg",
     "DEFINE { query_name src_agg; } "
     "SELECT tb, srcIP, count(*), sum(len) FROM eth0.PKT "
     "GROUP BY time AS tb, srcIP"},
};

bool IsAggregate(QueryKind kind) {
  return kind == QueryKind::kDestAgg || kind == QueryKind::kSrcAgg;
}

/// Leading columns that identify a row: the timestamp for per-packet
/// queries (unique, since generated timestamps strictly increase), the
/// (bucket, address) pair for aggregates.
bool SameKey(QueryKind kind, const OutRow& a, const OutRow& b) {
  if (IsAggregate(kind)) return a[0] == b[0] && a[1] == b[1];
  return a[1] == b[1];
}

bool KeyLess(QueryKind kind, const OutRow& a, const OutRow& b) {
  if (IsAggregate(kind)) {
    return std::pair(a[0], a[1]) < std::pair(b[0], b[1]);
  }
  return a[1] < b[1];
}

uint16_t Be16(const uint8_t* p) { return static_cast<uint16_t>(p[0] << 8 | p[1]); }

uint32_t Be32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | p[3];
}

}  // namespace

const QueryDef& Query(QueryKind kind) {
  for (const QueryDef& def : kQueries) {
    if (def.kind == kind) return def;
  }
  return kQueries[0];
}

bool ParsePacket(const gigascope::net::Packet& packet, ParsedPacket* out) {
  *out = ParsedPacket{};
  const uint8_t* b = packet.bytes.data();
  const size_t n = packet.bytes.size();
  // Ethernet II: 14 bytes, EtherType 0x0800 for IPv4.
  if (n < 14 + 20 || Be16(b + 12) != 0x0800) return false;
  const uint8_t* ip = b + 14;
  const size_t ihl = static_cast<size_t>(ip[0] & 0x0f) * 4;
  if ((ip[0] >> 4) != 4 || ihl < 20 || 14 + ihl > n) return false;
  out->ipv4 = true;
  out->protocol = ip[9];
  out->src_ip = Be32(ip + 12);
  out->dst_ip = Be32(ip + 16);
  const uint8_t* l4 = ip + ihl;
  const size_t l4_len = n - 14 - ihl;
  if (out->protocol == 6 && l4_len >= 20) {
    const size_t data_offset = static_cast<size_t>(l4[12] >> 4) * 4;
    if (data_offset < 20 || data_offset > l4_len) return true;
    out->dst_port = Be16(l4 + 2);
    out->payload = std::string_view(reinterpret_cast<const char*>(l4) +
                                        data_offset,
                                    l4_len - data_offset);
  } else if (out->protocol == 17 && l4_len >= 8) {
    out->dst_port = Be16(l4 + 2);
    out->payload = std::string_view(reinterpret_cast<const char*>(l4) + 8,
                                    l4_len - 8);
  }
  return true;
}

std::vector<OutRow> ReferenceRows(
    QueryKind kind, const std::vector<gigascope::net::Packet>& packets) {
  std::vector<OutRow> rows;
  std::map<std::pair<uint64_t, uint64_t>, std::pair<uint64_t, uint64_t>>
      groups;
  const std::regex http_line("^[^\\n]*HTTP/1.*");
  ParsedPacket p;
  for (const gigascope::net::Packet& packet : packets) {
    const bool parsed = ParsePacket(packet, &p);
    const auto ts = static_cast<uint64_t>(packet.timestamp);
    const auto second = static_cast<uint64_t>(packet.timestamp /
                                              kNanosPerSecond);
    switch (kind) {
      case QueryKind::kTcpFilter:
        if (parsed && p.protocol == 6) {
          rows.push_back({second, ts, p.dst_ip, p.dst_port, packet.orig_len});
        }
        break;
      case QueryKind::kHttpRegex:
        if (parsed && p.protocol == 6 && p.dst_port == 80 &&
            std::regex_search(p.payload.begin(), p.payload.end(),
                              http_line)) {
          rows.push_back({second, ts, p.src_ip, packet.orig_len, 0});
        }
        break;
      case QueryKind::kDestAgg:
      case QueryKind::kSrcAgg: {
        // A packet without an IPv4 header groups under address 0, the
        // engine's default for an absent field.
        const uint64_t address =
            !parsed ? 0 : kind == QueryKind::kDestAgg ? p.dst_ip : p.src_ip;
        auto& [count, bytes] = groups[{second, address}];
        ++count;
        bytes += packet.orig_len;
        break;
      }
    }
  }
  for (const auto& [key, value] : groups) {
    rows.push_back({key.first, key.second, value.first, value.second, 0});
  }
  std::sort(rows.begin(), rows.end(), [kind](const OutRow& a,
                                             const OutRow& b) {
    return KeyLess(kind, a, b);
  });
  return rows;
}

Comparison CompareRows(QueryKind kind, const std::vector<OutRow>& expected,
                       std::vector<OutRow> actual) {
  const auto less = [kind](const OutRow& a, const OutRow& b) {
    return KeyLess(kind, a, b);
  };
  std::sort(actual.begin(), actual.end(), less);
  Comparison result;
  result.reference_rows = expected.size();
  size_t e = 0;
  size_t a = 0;
  while (e < expected.size() || a < actual.size()) {
    if (a == actual.size() ||
        (e < expected.size() && less(expected[e], actual[a]))) {
      ++result.missing;
      ++e;
    } else if (e == expected.size() || less(actual[a], expected[e])) {
      ++result.extra;
      ++a;
    } else {
      if (actual[a] != expected[e]) ++result.differing;
      ++e;
      ++a;
      // Any further row with the same key is a duplicate emission.
      while (a < actual.size() && SameKey(kind, actual[a], actual[a - 1])) {
        ++result.extra;
        ++a;
      }
    }
  }
  return result;
}

int64_t TriggerPacket(QueryKind kind, const OutRow& row,
                      const std::vector<int64_t>& timestamps) {
  if (IsAggregate(kind)) {
    // Last packet of bucket row[0]: the one before the first packet at or
    // after the next second.
    const auto next_second = static_cast<int64_t>(row[0] + 1) *
                             kNanosPerSecond;
    const auto it =
        std::lower_bound(timestamps.begin(), timestamps.end(), next_second);
    if (it == timestamps.begin()) return -1;
    return (it - timestamps.begin()) - 1;
  }
  const auto ts = static_cast<int64_t>(row[1]);
  const auto it = std::lower_bound(timestamps.begin(), timestamps.end(), ts);
  if (it == timestamps.end() || *it != ts) return -1;
  return it - timestamps.begin();
}

}  // namespace perfbench
