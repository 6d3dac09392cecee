// The hand-built Ethernet frame corpus over which the header walk's layer
// rules are checked: net_test's HeadersPropertyTest decodes it, and
// core_interpret_test interprets it.

#ifndef GIGASCOPE_TESTS_FRAME_CORPUS_H_
#define GIGASCOPE_TESTS_FRAME_CORPUS_H_

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/headers.h"

namespace gigascope::net::corpus {

/// One hand-built Ethernet frame; the knobs cover every layer rule.
struct FrameSpec {
  uint16_t ether_type = kEtherTypeIpv4;
  uint8_t ip_version = 4;
  uint8_t ihl = 5;  // 32-bit words, options included
  uint8_t protocol = kIpProtoTcp;
  uint16_t frag_field = 0;  // flags (top 3 bits) and offset
  uint8_t tcp_offset = 5;   // 32-bit words, options included
  size_t payload = 0;
};

/// Every header byte is distinct and non-zero, so a field read at the
/// wrong offset shows.
inline ByteBuffer BuildFrame(const FrameSpec& spec) {
  ByteBuffer bytes;
  auto fill = [&bytes](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      bytes.push_back(static_cast<uint8_t>(0x11 + bytes.size() * 7));
    }
  };
  fill(12);  // MACs
  bytes.push_back(static_cast<uint8_t>(spec.ether_type >> 8));
  bytes.push_back(static_cast<uint8_t>(spec.ether_type));
  // A header field under its minimum still gets the minimum's bytes.
  const size_t ip = bytes.size();
  fill(std::max(size_t{spec.ihl} * 4, kIpv4MinHeaderLen));
  bytes[ip] = static_cast<uint8_t>(spec.ip_version << 4 | spec.ihl);
  bytes[ip + 6] = static_cast<uint8_t>(spec.frag_field >> 8);
  bytes[ip + 7] = static_cast<uint8_t>(spec.frag_field);
  bytes[ip + 9] = spec.protocol;
  const size_t transport = bytes.size();
  if (spec.protocol == kIpProtoTcp) {
    fill(std::max(size_t{spec.tcp_offset} * 4, kTcpMinHeaderLen));
    bytes[transport + 12] = static_cast<uint8_t>(spec.tcp_offset << 4 | 0x3);
  } else if (spec.protocol == kIpProtoUdp) {
    fill(kUdpHeaderLen);
  } else {
    fill(8);  // an ICMP header: payload to the decoder
  }
  fill(spec.payload);
  return bytes;
}

/// Calls `check(cut, what)` for every frame of HeadersPropertyTest's
/// corpus, frame for frame: TCP/UDP/ICMP frames with every IHL and TCP
/// data offset, first, whole and non-first fragments, the layers the walk
/// must refuse, and 6 random header-byte flips of each, every one cut at
/// every length. `what` names the uncut frame. Each cut is an allocation
/// of exactly its size, so a read past the end trips ASan. Stops after the
/// first call that returns false.
template <typename Check>
void ForEachCorpusFrame(Check&& check) {
  std::vector<FrameSpec> specs;
  for (uint8_t protocol : {kIpProtoTcp, kIpProtoUdp, kIpProtoIcmp}) {
    for (uint8_t ihl = 5; ihl <= 15; ++ihl) {
      for (uint16_t frag : {0x2000, 0x0000, 0x0019}) {
        for (uint8_t offset = 5; offset <= 15; ++offset) {
          if (protocol != kIpProtoTcp && offset > 5) break;
          FrameSpec spec;
          spec.protocol = protocol;
          spec.ihl = ihl;
          spec.frag_field = frag;
          spec.tcp_offset = offset;
          spec.payload = 5;
          specs.push_back(spec);
        }
      }
    }
  }
  for (uint8_t version : {0, 6, 15}) {
    FrameSpec spec;
    spec.ip_version = version;
    specs.push_back(spec);
  }
  for (uint8_t ihl = 0; ihl < 5; ++ihl) {
    FrameSpec spec;
    spec.ihl = ihl;
    specs.push_back(spec);
  }
  for (uint8_t offset = 0; offset < 5; ++offset) {
    FrameSpec spec;
    spec.tcp_offset = offset;
    specs.push_back(spec);
  }
  for (uint16_t ether_type : {0x86dd, 0x0806, 0x0000}) {
    FrameSpec spec;
    spec.ether_type = ether_type;
    specs.push_back(spec);
  }

  auto every_cut = [&check](const ByteBuffer& frame, const std::string& what) {
    for (size_t len = 0; len <= frame.size(); ++len) {
      const ByteBuffer cut(frame.begin(),
                           frame.begin() + static_cast<long>(len));
      if (!check(cut, what)) return false;
    }
    return true;
  };
  std::mt19937 rng(20031);
  for (size_t i = 0; i < specs.size(); ++i) {
    const ByteBuffer frame = BuildFrame(specs[i]);
    const std::string what = "frame " + std::to_string(i);
    if (!every_cut(frame, what)) return;
    const size_t headers = frame.size() - specs[i].payload;
    for (int flip = 0; flip < 6; ++flip) {
      ByteBuffer flipped = frame;
      const size_t at = rng() % headers;
      flipped[at] = static_cast<uint8_t>(rng());
      if (!every_cut(flipped, what + " flipped at " + std::to_string(at))) {
        return;
      }
    }
  }
}

}  // namespace gigascope::net::corpus

#endif  // GIGASCOPE_TESTS_FRAME_CORPUS_H_
