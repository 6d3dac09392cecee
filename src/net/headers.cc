#include "net/headers.h"

#include <algorithm>
#include <cstring>

namespace gigascope::net {

namespace {

// Default MAC addresses used by the builders; the monitor never interprets
// MACs, it only needs a well-formed Ethernet frame.
constexpr std::array<uint8_t, 6> kDefaultSrcMac = {2, 0, 0, 0, 0, 1};
constexpr std::array<uint8_t, 6> kDefaultDstMac = {2, 0, 0, 0, 0, 2};

void ParseEthernet(const uint8_t* p, EthernetHeader* out) {
  std::memcpy(out->dst_mac.data(), p, 6);
  std::memcpy(out->src_mac.data(), p + 6, 6);
  out->ether_type = LoadBe16(p + 12);
}

void WriteIpv4Header(ByteWriter& writer, const Ipv4Header& ip) {
  writer.PutU8(static_cast<uint8_t>(4 << 4 | (kIpv4MinHeaderLen / 4)));
  writer.PutU8(ip.tos);
  writer.PutU16Be(ip.total_len);
  writer.PutU16Be(ip.identification);
  writer.PutU16Be(static_cast<uint16_t>(ip.flags << 13 | ip.fragment_offset));
  writer.PutU8(ip.ttl);
  writer.PutU8(ip.protocol);
  writer.PutU16Be(ip.checksum);
  writer.PutU32Be(ip.src_addr);
  writer.PutU32Be(ip.dst_addr);
}

void WriteEthernetHeader(ByteWriter& writer) {
  writer.PutBytes(kDefaultDstMac.data(), 6);
  writer.PutBytes(kDefaultSrcMac.data(), 6);
  writer.PutU16Be(kEtherTypeIpv4);
}

// Fills in the IPv4 header checksum in a buffer where the IPv4 header
// starts at `ip_offset` and the checksum field was written as zero.
void PatchIpChecksum(ByteBuffer& bytes, size_t ip_offset) {
  ByteSpan header(bytes.data() + ip_offset, kIpv4MinHeaderLen);
  uint16_t sum = InternetChecksum(header);
  bytes[ip_offset + 10] = static_cast<uint8_t>(sum >> 8);
  bytes[ip_offset + 11] = static_cast<uint8_t>(sum);
}

}  // namespace

uint16_t InternetChecksum(ByteSpan data) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<uint32_t>(data[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint16_t>(~sum);
}

bool WalkHeaders(ByteSpan bytes, HeaderWalk* walk) {
  if (bytes.size() < kEthernetHeaderLen) return false;
  *walk = HeaderWalk();
  const uint8_t* p = bytes.data();
  if (LoadBe16(p + 12) != kEtherTypeIpv4) {
    walk->payload = bytes.substr(kEthernetHeaderLen);
    return true;
  }
  // A truncated or malformed IPv4 header stops the walk at Ethernet.
  const ByteSpan ip = bytes.substr(kEthernetHeaderLen);
  if (ip.size() < kIpv4MinHeaderLen) return true;
  const size_t ihl = size_t{ip[0] & 0x0fu} * 4;
  if (ip[0] >> 4 != 4 || ihl < kIpv4MinHeaderLen || ip.size() < ihl) {
    return true;
  }
  walk->ip = true;
  walk->transport = kEthernetHeaderLen + ihl;
  const ByteSpan rest = ip.substr(ihl);
  // Non-first fragments have no transport header.
  if ((LoadBe16(ip.data() + 6) & 0x1fff) != 0) {
    walk->payload = rest;
    return true;
  }
  // A transport header that fails leaves the payload empty.
  switch (ip[9]) {
    case kIpProtoTcp: {
      if (rest.size() < kTcpMinHeaderLen) return true;
      const size_t offset = static_cast<size_t>(rest[12] >> 4) * 4;
      if (offset < kTcpMinHeaderLen || rest.size() < offset) return true;
      walk->tcp = true;
      walk->payload = rest.substr(offset);
      return true;
    }
    case kIpProtoUdp:
      if (rest.size() < kUdpHeaderLen) return true;
      walk->udp = true;
      walk->payload = rest.substr(kUdpHeaderLen);
      return true;
    default:
      walk->payload = rest;
      return true;
  }
}

Result<DecodedPacket> DecodePacket(ByteSpan bytes) {
  HeaderWalk walk;
  if (!WalkHeaders(bytes, &walk)) {
    return Status::InvalidArgument("packet shorter than Ethernet header");
  }
  // Decoded in place, so returning it copies no header.
  Result<DecodedPacket> result = DecodedPacket();
  DecodedPacket& decoded = *result;
  const uint8_t* p = bytes.data();
  ParseEthernet(p, &decoded.eth);
  if (walk.ip) decoded.ip = LoadIpv4Header(p + kEthernetHeaderLen);
  if (walk.tcp) decoded.tcp = LoadTcpHeader(p + walk.transport);
  if (walk.udp) decoded.udp = LoadUdpHeader(p + walk.transport);
  decoded.payload = walk.payload;
  return result;
}

ByteBuffer BuildTcpPacket(const TcpPacketSpec& spec) {
  ByteBuffer bytes;
  ByteWriter writer(&bytes);
  WriteEthernetHeader(writer);

  Ipv4Header ip;
  ip.total_len = static_cast<uint16_t>(kIpv4MinHeaderLen + kTcpMinHeaderLen +
                                       spec.payload.size());
  ip.identification = spec.ip_id;
  ip.ttl = spec.ttl;
  ip.protocol = kIpProtoTcp;
  ip.src_addr = spec.src_addr;
  ip.dst_addr = spec.dst_addr;
  WriteIpv4Header(writer, ip);

  writer.PutU16Be(spec.src_port);
  writer.PutU16Be(spec.dst_port);
  writer.PutU32Be(spec.seq);
  writer.PutU32Be(spec.ack);
  writer.PutU8(static_cast<uint8_t>((kTcpMinHeaderLen / 4) << 4));
  writer.PutU8(spec.flags);
  writer.PutU16Be(65535);  // window
  writer.PutU16Be(0);      // checksum: monitor-side, left zero at transport
  writer.PutU16Be(0);      // urgent
  writer.PutBytes(spec.payload.data(), spec.payload.size());

  PatchIpChecksum(bytes, kEthernetHeaderLen);
  return bytes;
}

ByteBuffer BuildUdpPacket(const UdpPacketSpec& spec) {
  ByteBuffer bytes;
  ByteWriter writer(&bytes);
  WriteEthernetHeader(writer);

  Ipv4Header ip;
  ip.total_len = static_cast<uint16_t>(kIpv4MinHeaderLen + kUdpHeaderLen +
                                       spec.payload.size());
  ip.identification = spec.ip_id;
  ip.ttl = spec.ttl;
  ip.protocol = kIpProtoUdp;
  ip.src_addr = spec.src_addr;
  ip.dst_addr = spec.dst_addr;
  WriteIpv4Header(writer, ip);

  writer.PutU16Be(spec.src_port);
  writer.PutU16Be(spec.dst_port);
  writer.PutU16Be(static_cast<uint16_t>(kUdpHeaderLen + spec.payload.size()));
  writer.PutU16Be(0);  // checksum optional in IPv4 UDP
  writer.PutBytes(spec.payload.data(), spec.payload.size());

  PatchIpChecksum(bytes, kEthernetHeaderLen);
  return bytes;
}

Result<std::vector<ByteBuffer>> FragmentIpv4Packet(const ByteBuffer& packet,
                                                   size_t mtu_payload) {
  if (mtu_payload == 0 || mtu_payload % 8 != 0) {
    return Status::InvalidArgument(
        "fragment payload size must be a positive multiple of 8");
  }
  auto decoded = DecodePacket(ByteSpan(packet.data(), packet.size()));
  if (!decoded.ok() || !decoded->is_ipv4()) {
    return Status::InvalidArgument("not an IPv4 packet");
  }
  const Ipv4Header& ip = *decoded->ip;
  if (ip.fragment_offset != 0 || ip.more_fragments()) {
    return Status::InvalidArgument("packet is already a fragment");
  }
  size_t ip_start = kEthernetHeaderLen;
  size_t payload_start = ip_start + ip.header_len;
  if (packet.size() < payload_start) {
    return Status::InvalidArgument("truncated IPv4 packet");
  }
  size_t payload_len = packet.size() - payload_start;
  std::vector<ByteBuffer> fragments;
  if (payload_len <= mtu_payload) {
    fragments.push_back(packet);
    return fragments;
  }

  for (size_t offset = 0; offset < payload_len; offset += mtu_payload) {
    size_t chunk = std::min(mtu_payload, payload_len - offset);
    bool more = offset + chunk < payload_len;
    ByteBuffer fragment(packet.begin(), packet.begin() +
                        static_cast<long>(payload_start));
    fragment.insert(fragment.end(),
                    packet.begin() + static_cast<long>(payload_start + offset),
                    packet.begin() +
                        static_cast<long>(payload_start + offset + chunk));
    // Patch total length.
    uint16_t total = static_cast<uint16_t>(ip.header_len + chunk);
    fragment[ip_start + 2] = static_cast<uint8_t>(total >> 8);
    fragment[ip_start + 3] = static_cast<uint8_t>(total);
    // Patch flags + fragment offset (in 8-byte units).
    uint16_t frag_field = static_cast<uint16_t>(offset / 8);
    if (more) frag_field |= 0x2000;  // MF is bit 13 of the 16-bit field
    fragment[ip_start + 6] = static_cast<uint8_t>(frag_field >> 8);
    fragment[ip_start + 7] = static_cast<uint8_t>(frag_field);
    // Recompute the header checksum.
    fragment[ip_start + 10] = 0;
    fragment[ip_start + 11] = 0;
    uint16_t checksum = InternetChecksum(
        ByteSpan(fragment.data() + ip_start, ip.header_len));
    fragment[ip_start + 10] = static_cast<uint8_t>(checksum >> 8);
    fragment[ip_start + 11] = static_cast<uint8_t>(checksum);
    fragments.push_back(std::move(fragment));
  }
  return fragments;
}

}  // namespace gigascope::net
