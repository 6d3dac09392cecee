#ifndef GIGASCOPE_NET_HEADERS_H_
#define GIGASCOPE_NET_HEADERS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "net/packet.h"

namespace gigascope::net {

// Wire-format constants.
constexpr uint16_t kEtherTypeIpv4 = 0x0800;
constexpr uint8_t kIpProtoTcp = 6;
constexpr uint8_t kIpProtoUdp = 17;
constexpr uint8_t kIpProtoIcmp = 1;
constexpr size_t kEthernetHeaderLen = 14;
constexpr size_t kIpv4MinHeaderLen = 20;
constexpr size_t kTcpMinHeaderLen = 20;
constexpr size_t kUdpHeaderLen = 8;

// TCP flag bits.
constexpr uint8_t kTcpFlagFin = 0x01;
constexpr uint8_t kTcpFlagSyn = 0x02;
constexpr uint8_t kTcpFlagRst = 0x04;
constexpr uint8_t kTcpFlagPsh = 0x08;
constexpr uint8_t kTcpFlagAck = 0x10;

/// Parsed Ethernet header.
struct EthernetHeader {
  std::array<uint8_t, 6> dst_mac{};
  std::array<uint8_t, 6> src_mac{};
  uint16_t ether_type = 0;
};

/// Parsed IPv4 header (options are skipped but counted in header_len).
struct Ipv4Header {
  uint8_t version = 4;
  uint8_t header_len = kIpv4MinHeaderLen;  // bytes, including options
  uint8_t tos = 0;
  uint16_t total_len = 0;
  uint16_t identification = 0;
  uint8_t flags = 0;          // bit 0: reserved, bit 1: DF, bit 2: MF
  uint16_t fragment_offset = 0;  // in 8-byte units
  uint8_t ttl = 64;
  uint8_t protocol = 0;
  uint16_t checksum = 0;
  uint32_t src_addr = 0;  // host byte order
  uint32_t dst_addr = 0;  // host byte order

  bool more_fragments() const { return (flags & 0x1) != 0; }
  bool dont_fragment() const { return (flags & 0x2) != 0; }
};

/// Parsed TCP header (options skipped but counted in header_len).
struct TcpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t header_len = kTcpMinHeaderLen;  // bytes
  uint8_t flags = 0;
  uint16_t window = 0;
  uint16_t checksum = 0;
  uint16_t urgent = 0;
};

/// Parsed UDP header.
struct UdpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint16_t length = 0;
  uint16_t checksum = 0;
};

/// Fully decoded packet view produced by `DecodePacket`.
///
/// Optional layers are absent when the packet does not carry them or when
/// the capture was truncated before them. `payload` points into the source
/// packet's bytes; it does not own storage.
struct DecodedPacket {
  EthernetHeader eth;
  std::optional<Ipv4Header> ip;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  ByteSpan payload;  // application payload (after the deepest parsed layer)

  bool is_ipv4() const { return ip.has_value(); }
  bool is_tcp() const { return tcp.has_value(); }
  bool is_udp() const { return udp.has_value(); }
};

/// Where the layers of one frame sit: what `WalkHeaders` finds. A layer is
/// marked present only when its whole header is in the frame, so its
/// fields can then be loaded at their fixed offsets unchecked.
struct HeaderWalk {
  /// A whole IPv4 header starts at kEthernetHeaderLen.
  bool ip = false;
  /// A whole TCP, or UDP, header starts at `transport`.
  bool tcp = false;
  bool udp = false;
  /// Just past the IPv4 header and its options, where the IP payload
  /// (transport header included) starts; 0 without an IP layer.
  size_t transport = 0;
  /// Application payload, after the deepest layer walked.
  ByteSpan payload;
};

/// Computes the standard Internet checksum (RFC 1071) over `data`.
uint16_t InternetChecksum(ByteSpan data);

/// Walks the Ethernet/IPv4/TCP-or-UDP layers of raw packet bytes: the one
/// implementation of the layer rules. `DecodePacket` builds its headers
/// from a walk, and packet interpretation (core/packet_source.h) loads its
/// fields straight from the walked frame.
///
/// Returns false, for a frame shorter than an Ethernet header, and walks
/// nothing. Deeper, a layer is walked only when its whole header is there,
/// mirroring what a capture stack does with snap-length-truncated packets:
/// - a non-IPv4 EtherType stops at Ethernet, the rest being the payload;
/// - an IPv4 header with a version other than 4, an IHL under 5, or its
///   options cut short is dropped, and the payload is empty;
/// - a non-first fragment has no transport header; the rest of the frame
///   after the IP header is the payload;
/// - TCP needs a data offset of at least 5 and its options present, UDP
///   8 bytes; a transport header that fails is dropped, and the payload is
///   empty.
/// Each header's length is checked once, here.
bool WalkHeaders(ByteSpan bytes, HeaderWalk* walk);

/// The fields of a whole header at `p` (a walk found it there), each a
/// direct big-endian load at its fixed offset. Inline, so a caller that
/// reads a few fields pays for only their loads.
inline Ipv4Header LoadIpv4Header(const uint8_t* p) {
  Ipv4Header h;
  h.version = p[0] >> 4;
  h.header_len = static_cast<uint8_t>((p[0] & 0x0f) * 4);
  h.tos = p[1];
  h.total_len = LoadBe16(p + 2);
  h.identification = LoadBe16(p + 4);
  const uint16_t flags_frag = LoadBe16(p + 6);
  h.flags = static_cast<uint8_t>(flags_frag >> 13);
  h.fragment_offset = static_cast<uint16_t>(flags_frag & 0x1fff);
  h.ttl = p[8];
  h.protocol = p[9];
  h.checksum = LoadBe16(p + 10);
  h.src_addr = LoadBe32(p + 12);
  h.dst_addr = LoadBe32(p + 16);
  return h;
}

inline TcpHeader LoadTcpHeader(const uint8_t* p) {
  TcpHeader h;
  h.src_port = LoadBe16(p);
  h.dst_port = LoadBe16(p + 2);
  h.seq = LoadBe32(p + 4);
  h.ack = LoadBe32(p + 8);
  h.header_len = static_cast<uint8_t>((p[12] >> 4) * 4);
  h.flags = p[13];
  h.window = LoadBe16(p + 14);
  h.checksum = LoadBe16(p + 16);
  h.urgent = LoadBe16(p + 18);
  return h;
}

inline UdpHeader LoadUdpHeader(const uint8_t* p) {
  UdpHeader h;
  h.src_port = LoadBe16(p);
  h.dst_port = LoadBe16(p + 2);
  h.length = LoadBe16(p + 4);
  h.checksum = LoadBe16(p + 6);
  return h;
}

/// Decodes the headers `WalkHeaders` finds in raw packet bytes. Returns an
/// error only for a frame shorter than an Ethernet header; a layer the
/// walk drops is absent.
Result<DecodedPacket> DecodePacket(ByteSpan bytes);

/// Builds raw packet bytes for a TCP segment.
///
/// `payload` may be empty. Checksums are filled in. Convenience for the
/// traffic generator and tests.
struct TcpPacketSpec {
  uint32_t src_addr = 0;
  uint32_t dst_addr = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t flags = kTcpFlagAck;
  uint8_t ttl = 64;
  uint16_t ip_id = 0;
  std::string payload;
};

ByteBuffer BuildTcpPacket(const TcpPacketSpec& spec);

/// Builds raw packet bytes for a UDP datagram.
struct UdpPacketSpec {
  uint32_t src_addr = 0;
  uint32_t dst_addr = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t ttl = 64;
  uint16_t ip_id = 0;
  std::string payload;
};

ByteBuffer BuildUdpPacket(const UdpPacketSpec& spec);

/// Splits an Ethernet+IPv4 packet into IP fragments whose IP payloads are
/// at most `mtu_payload` bytes (must be a positive multiple of 8 except in
/// the last fragment). Each fragment carries the original IP header with
/// adjusted total length, fragment offset, MF flag, and checksum. Returns
/// the input unchanged (one element) when it already fits.
Result<std::vector<ByteBuffer>> FragmentIpv4Packet(const ByteBuffer& packet,
                                                   size_t mtu_payload);

}  // namespace gigascope::net

#endif  // GIGASCOPE_NET_HEADERS_H_
