#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "frame_corpus.h"
#include "net/headers.h"
#include "net/packet.h"
#include "net/pcap.h"

namespace gigascope::net {
namespace {

TcpPacketSpec SampleTcpSpec() {
  TcpPacketSpec spec;
  spec.src_addr = 0x0a000001;  // 10.0.0.1
  spec.dst_addr = 0x0a000002;  // 10.0.0.2
  spec.src_port = 49152;
  spec.dst_port = 80;
  spec.seq = 1000;
  spec.ack = 2000;
  spec.flags = kTcpFlagAck | kTcpFlagPsh;
  spec.payload = "HTTP/1.1 200 OK\r\n\r\nhello";
  return spec;
}

TEST(HeadersTest, TcpBuildDecodeRoundTrip) {
  ByteBuffer bytes = BuildTcpPacket(SampleTcpSpec());
  auto decoded = DecodePacket(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->is_ipv4());
  ASSERT_TRUE(decoded->is_tcp());
  EXPECT_EQ(decoded->ip->src_addr, 0x0a000001u);
  EXPECT_EQ(decoded->ip->dst_addr, 0x0a000002u);
  EXPECT_EQ(decoded->ip->protocol, kIpProtoTcp);
  EXPECT_EQ(decoded->tcp->src_port, 49152);
  EXPECT_EQ(decoded->tcp->dst_port, 80);
  EXPECT_EQ(decoded->tcp->seq, 1000u);
  EXPECT_EQ(decoded->tcp->ack, 2000u);
  EXPECT_EQ(decoded->tcp->flags, kTcpFlagAck | kTcpFlagPsh);
  std::string payload(reinterpret_cast<const char*>(decoded->payload.data()),
                      decoded->payload.size());
  EXPECT_EQ(payload, "HTTP/1.1 200 OK\r\n\r\nhello");
}

TEST(HeadersTest, UdpBuildDecodeRoundTrip) {
  UdpPacketSpec spec;
  spec.src_addr = 0xc0a80101;
  spec.dst_addr = 0xc0a80102;
  spec.src_port = 5353;
  spec.dst_port = 53;
  spec.payload = "dns-ish";
  ByteBuffer bytes = BuildUdpPacket(spec);
  auto decoded = DecodePacket(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->is_udp());
  EXPECT_FALSE(decoded->is_tcp());
  EXPECT_EQ(decoded->udp->src_port, 5353);
  EXPECT_EQ(decoded->udp->dst_port, 53);
  EXPECT_EQ(decoded->udp->length, kUdpHeaderLen + spec.payload.size());
}

TEST(HeadersTest, IpChecksumValid) {
  ByteBuffer bytes = BuildTcpPacket(SampleTcpSpec());
  // Recomputing the checksum over the IP header (with the stored checksum
  // in place) must yield zero.
  ByteSpan header(bytes.data() + kEthernetHeaderLen, kIpv4MinHeaderLen);
  EXPECT_EQ(InternetChecksum(header), 0);
}

TEST(HeadersTest, TotalLengthConsistent) {
  TcpPacketSpec spec = SampleTcpSpec();
  ByteBuffer bytes = BuildTcpPacket(spec);
  auto decoded = DecodePacket(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ip->total_len,
            kIpv4MinHeaderLen + kTcpMinHeaderLen + spec.payload.size());
  EXPECT_EQ(bytes.size(), kEthernetHeaderLen + decoded->ip->total_len);
}

TEST(HeadersTest, TruncatedPacketStopsAtParsedLayer) {
  ByteBuffer bytes = BuildTcpPacket(SampleTcpSpec());
  // Cut inside the TCP header: Ethernet + IP parse, TCP does not.
  ByteSpan truncated(bytes.data(), kEthernetHeaderLen + kIpv4MinHeaderLen + 4);
  auto decoded = DecodePacket(truncated);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->is_ipv4());
  EXPECT_FALSE(decoded->is_tcp());
}

TEST(HeadersTest, TooShortForEthernetIsError) {
  ByteBuffer bytes = {1, 2, 3};
  EXPECT_FALSE(DecodePacket(ByteSpan(bytes.data(), bytes.size())).ok());
}

TEST(HeadersTest, NonIpv4EtherTypeYieldsNoIpLayer) {
  ByteBuffer bytes = BuildTcpPacket(SampleTcpSpec());
  bytes[12] = 0x86;  // 0x86dd = IPv6 ethertype
  bytes[13] = 0xdd;
  auto decoded = DecodePacket(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->is_ipv4());
}

TEST(HeadersTest, FragmentHasNoTransportHeader) {
  ByteBuffer bytes = BuildTcpPacket(SampleTcpSpec());
  // Set fragment offset to 100 (bytes 20-21 of IP header = offset 34).
  bytes[kEthernetHeaderLen + 6] = 0x00;
  bytes[kEthernetHeaderLen + 7] = 100;
  auto decoded = DecodePacket(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->is_ipv4());
  EXPECT_EQ(decoded->ip->fragment_offset, 100);
  EXPECT_FALSE(decoded->is_tcp());
}

// --- DecodePacket against the frame's own bytes ---

using corpus::BuildFrame;
using corpus::FrameSpec;

uint16_t Be16(const ByteBuffer& b, size_t at) {
  return static_cast<uint16_t>(b[at] << 8 | b[at + 1]);
}

uint32_t Be32(const ByteBuffer& b, size_t at) {
  return static_cast<uint32_t>(Be16(b, at)) << 16 | Be16(b, at + 2);
}

/// Decodes `frame` and checks the result against what its bytes say: which
/// layers decode, every decoded field against the bytes at its offset, and
/// the payload as exactly the rest of the frame (or empty). Returns the
/// first mismatch, or "" when there is none.
std::string CheckDecode(const ByteBuffer& frame) {
  const size_t n = frame.size();
  auto decoded = DecodePacket(ByteSpan(frame.data(), n));
  if (n < kEthernetHeaderLen) {
    return decoded.ok() ? "short frame decoded" : "";
  }
  if (!decoded.ok()) return "frame of " + std::to_string(n) + " rejected";
  const DecodedPacket& d = *decoded;
  for (size_t i = 0; i < 6; ++i) {
    if (d.eth.dst_mac[i] != frame[i] || d.eth.src_mac[i] != frame[6 + i]) {
      return "MAC";
    }
  }
  if (d.eth.ether_type != Be16(frame, 12)) return "ether_type";

  // What the bytes call for: the layers present and where the payload
  // starts (npos: empty payload).
  constexpr size_t kEmpty = std::string::npos;
  const size_t ip = kEthernetHeaderLen;
  bool want_ip = false, want_tcp = false, want_udp = false;
  size_t payload = ip;
  if (Be16(frame, 12) == kEtherTypeIpv4) {
    const size_t ihl = n > ip ? size_t{frame[ip] & 0x0fu} * 4 : 0;
    want_ip = n >= ip + kIpv4MinHeaderLen && frame[ip] >> 4 == 4 &&
              ihl >= kIpv4MinHeaderLen && n >= ip + ihl;
    payload = kEmpty;
    if (want_ip) {
      const size_t t = ip + ihl;
      payload = t;
      if ((Be16(frame, ip + 6) & 0x1fff) != 0) {
        // Non-first fragment: everything after the IP header.
      } else if (frame[ip + 9] == kIpProtoTcp) {
        const size_t offset =
            n >= t + kTcpMinHeaderLen ? size_t{frame[t + 12]} / 16 * 4 : 0;
        want_tcp = offset >= kTcpMinHeaderLen && n >= t + offset;
        payload = want_tcp ? t + offset : kEmpty;
      } else if (frame[ip + 9] == kIpProtoUdp) {
        want_udp = n >= t + kUdpHeaderLen;
        payload = want_udp ? t + kUdpHeaderLen : kEmpty;
      }
    }
  }
  if (d.is_ipv4() != want_ip) return "IP layer presence";
  if (d.is_tcp() != want_tcp) return "TCP layer presence";
  if (d.is_udp() != want_udp) return "UDP layer presence";
  if (payload == kEmpty) {
    if (!d.payload.empty()) return "payload should be empty";
  } else if (d.payload.data() != frame.data() + payload ||
             d.payload.size() != n - payload) {
    return "payload is not the rest of the frame";
  }
  if (want_ip) {
    const Ipv4Header& h = *d.ip;
    if (h.version != frame[ip] >> 4) return "version";
    if (h.header_len != (frame[ip] & 0x0f) * 4) return "header_len";
    if (h.tos != frame[ip + 1]) return "tos";
    if (h.total_len != Be16(frame, ip + 2)) return "total_len";
    if (h.identification != Be16(frame, ip + 4)) return "identification";
    if (h.flags != Be16(frame, ip + 6) >> 13) return "flags";
    if (h.fragment_offset != (Be16(frame, ip + 6) & 0x1fff)) {
      return "fragment_offset";
    }
    if (h.ttl != frame[ip + 8]) return "ttl";
    if (h.protocol != frame[ip + 9]) return "protocol";
    if (h.checksum != Be16(frame, ip + 10)) return "ip checksum";
    if (h.src_addr != Be32(frame, ip + 12)) return "src_addr";
    if (h.dst_addr != Be32(frame, ip + 16)) return "dst_addr";
  }
  const size_t t = want_ip ? ip + d.ip->header_len : 0;
  if (want_tcp) {
    const TcpHeader& h = *d.tcp;
    if (h.src_port != Be16(frame, t)) return "tcp src_port";
    if (h.dst_port != Be16(frame, t + 2)) return "tcp dst_port";
    if (h.seq != Be32(frame, t + 4)) return "seq";
    if (h.ack != Be32(frame, t + 8)) return "ack";
    if (h.header_len != (frame[t + 12] >> 4) * 4) return "tcp header_len";
    if (h.flags != frame[t + 13]) return "tcp flags";
    if (h.window != Be16(frame, t + 14)) return "window";
    if (h.checksum != Be16(frame, t + 16)) return "tcp checksum";
    if (h.urgent != Be16(frame, t + 18)) return "urgent";
  }
  if (want_udp) {
    const UdpHeader& h = *d.udp;
    if (h.src_port != Be16(frame, t)) return "udp src_port";
    if (h.dst_port != Be16(frame, t + 2)) return "udp dst_port";
    if (h.length != Be16(frame, t + 4)) return "udp length";
    if (h.checksum != Be16(frame, t + 6)) return "udp checksum";
  }
  return "";
}

/// Checks `frame` cut at every length, each cut in an allocation of
/// exactly its size so that a read past the end trips ASan.
void CheckEveryCut(const ByteBuffer& frame, const std::string& what) {
  for (size_t len = 0; len <= frame.size(); ++len) {
    const ByteBuffer cut(frame.begin(),
                         frame.begin() + static_cast<long>(len));
    const std::string mismatch = CheckDecode(cut);
    ASSERT_EQ(mismatch, "") << what << ", cut at " << len << " of "
                            << frame.size();
  }
}

TEST(HeadersPropertyTest, DecodedFieldsAreTheFrameBytes) {
  std::vector<FrameSpec> specs;
  for (uint8_t protocol : {kIpProtoTcp, kIpProtoUdp, kIpProtoIcmp}) {
    for (uint8_t ihl = 5; ihl <= 15; ++ihl) {
      // First fragment (MF set), whole datagram, non-first fragment.
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
  // Layers the decoder must refuse: a bad version or IHL, a bad TCP data
  // offset, and EtherTypes that are not IPv4.
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

  std::mt19937 rng(20031);
  for (size_t i = 0; i < specs.size(); ++i) {
    const ByteBuffer frame = BuildFrame(specs[i]);
    const std::string what = "frame " + std::to_string(i);
    CheckEveryCut(frame, what);
    if (HasFatalFailure()) return;
    // Byte flips: one random byte of the headers takes a random value, so
    // version, IHL, protocol, fragment and data-offset bytes all get hit.
    const size_t headers = frame.size() - specs[i].payload;
    for (int flip = 0; flip < 6; ++flip) {
      ByteBuffer flipped = frame;
      const size_t at = rng() % headers;
      flipped[at] = static_cast<uint8_t>(rng());
      CheckEveryCut(flipped, what + " flipped at " + std::to_string(at));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PacketTest, SnapLenTruncates) {
  Packet packet;
  packet.bytes = BuildTcpPacket(SampleTcpSpec());
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  uint32_t original = packet.orig_len;
  ApplySnapLen(&packet, 60);
  EXPECT_EQ(packet.bytes.size(), 60u);
  EXPECT_EQ(packet.orig_len, original);
  // Snap 0 = no truncation.
  Packet full;
  full.bytes = BuildTcpPacket(SampleTcpSpec());
  size_t len = full.bytes.size();
  ApplySnapLen(&full, 0);
  EXPECT_EQ(full.bytes.size(), len);
}

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "gs_pcap_test.pcap";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(PcapTest, WriteReadRoundTrip) {
  PcapWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  std::vector<Packet> packets;
  for (int i = 0; i < 10; ++i) {
    Packet packet;
    TcpPacketSpec spec = SampleTcpSpec();
    spec.seq = static_cast<uint32_t>(i);
    packet.bytes = BuildTcpPacket(spec);
    packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
    packet.timestamp = i * kNanosPerSecond + i * 37;
    ASSERT_TRUE(writer.Write(packet).ok());
    packets.push_back(std::move(packet));
  }
  EXPECT_EQ(writer.packets_written(), 10u);
  ASSERT_TRUE(writer.Close().ok());

  PcapReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  EXPECT_EQ(reader.link_type(), kLinkTypeEthernet);
  for (int i = 0; i < 10; ++i) {
    Packet packet;
    bool eof = false;
    ASSERT_TRUE(reader.Next(&packet, &eof).ok());
    ASSERT_FALSE(eof);
    EXPECT_EQ(packet.timestamp, packets[i].timestamp);
    EXPECT_EQ(packet.bytes, packets[i].bytes);
    EXPECT_EQ(packet.orig_len, packets[i].orig_len);
  }
  Packet packet;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&packet, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(PcapTest, SnapLenRecordedInCapture) {
  PcapWriter writer;
  ASSERT_TRUE(writer.Open(path_, 60).ok());
  Packet packet;
  packet.bytes = BuildTcpPacket(SampleTcpSpec());
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  ASSERT_GT(packet.orig_len, 60u);
  ApplySnapLen(&packet, 60);
  ASSERT_TRUE(writer.Write(packet).ok());
  ASSERT_TRUE(writer.Close().ok());

  PcapReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  EXPECT_EQ(reader.snap_len(), 60u);
  Packet read_back;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&read_back, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(read_back.bytes.size(), 60u);
  EXPECT_GT(read_back.orig_len, 60u);
}

TEST_F(PcapTest, RejectsGarbageFile) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char garbage[] = "this is not a pcap file at all";
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  PcapReader reader;
  EXPECT_FALSE(reader.Open(path_).ok());
}

TEST_F(PcapTest, MissingFileIsNotFound) {
  PcapReader reader;
  Status status = reader.Open("/nonexistent/definitely/missing.pcap");
  EXPECT_EQ(status.code(), Status::Code::kNotFound);
}

TEST_F(PcapTest, TruncatedRecordIsError) {
  PcapWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  Packet packet;
  packet.bytes = BuildTcpPacket(SampleTcpSpec());
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  ASSERT_TRUE(writer.Write(packet).ok());
  ASSERT_TRUE(writer.Close().ok());

  // Truncate the file mid-record.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path_.c_str(), size - 10), 0);

  PcapReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  Packet read_back;
  bool eof = false;
  EXPECT_FALSE(reader.Next(&read_back, &eof).ok());
}

TEST_F(PcapTest, ReadsForeignByteOrder) {
  // Hand-craft a classic (microsecond) pcap whose global header and record
  // headers are big-endian — as if captured on an opposite-endian machine.
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  auto put32be = [f](uint32_t v) {
    uint8_t bytes[4] = {static_cast<uint8_t>(v >> 24),
                        static_cast<uint8_t>(v >> 16),
                        static_cast<uint8_t>(v >> 8),
                        static_cast<uint8_t>(v)};
    std::fwrite(bytes, 1, 4, f);
  };
  auto put16be = [f](uint16_t v) {
    uint8_t bytes[2] = {static_cast<uint8_t>(v >> 8),
                        static_cast<uint8_t>(v)};
    std::fwrite(bytes, 1, 2, f);
  };
  put32be(kPcapMagic);  // on a little-endian reader this arrives swapped
  put16be(2);           // version major
  put16be(4);           // version minor
  put32be(0);           // thiszone
  put32be(0);           // sigfigs
  put32be(65535);       // snaplen
  put32be(kLinkTypeEthernet);
  // One record: ts = 7s + 500us, 4 captured of 60 original bytes.
  put32be(7);
  put32be(500);
  put32be(4);
  put32be(60);
  const uint8_t body[4] = {0xde, 0xad, 0xbe, 0xef};
  std::fwrite(body, 1, 4, f);
  std::fclose(f);

  PcapReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  EXPECT_EQ(reader.snap_len(), 65535u);
  Packet packet;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&packet, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(packet.timestamp, 7 * kNanosPerSecond + 500 * kNanosPerMicro);
  EXPECT_EQ(packet.orig_len, 60u);
  EXPECT_EQ(packet.bytes, (ByteBuffer{0xde, 0xad, 0xbe, 0xef}));
}

TEST_F(PcapTest, MicrosecondMagicScalesTimestamps) {
  // Same-endian classic magic: subseconds are microseconds, not nanos.
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  auto put32 = [f](uint32_t v) { std::fwrite(&v, 4, 1, f); };
  auto put16 = [f](uint16_t v) { std::fwrite(&v, 2, 1, f); };
  put32(kPcapMagic);
  put16(2);
  put16(4);
  put32(0);
  put32(0);
  put32(65535);
  put32(kLinkTypeEthernet);
  put32(1);    // 1 second
  put32(250);  // 250 microseconds
  put32(0);    // empty body
  put32(0);
  std::fclose(f);

  PcapReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  Packet packet;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&packet, &eof).ok());
  EXPECT_EQ(packet.timestamp, kNanosPerSecond + 250 * kNanosPerMicro);
}

TEST_F(PcapTest, OversizedCaptureLengthIsRefusedBeforeAllocation) {
  // A record claiming 256 MiB over 16 bytes of body. Neither snaplen bounds
  // it, so only the reader's own maximum stops the allocation.
  for (uint32_t snap_len : {0u, 0xFFFFFFFFu}) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    auto put32 = [f](uint32_t v) { std::fwrite(&v, 4, 1, f); };
    auto put16 = [f](uint16_t v) { std::fwrite(&v, 2, 1, f); };
    put32(kPcapMagic);
    put16(2);
    put16(4);
    put32(0);
    put32(0);
    put32(snap_len);
    put32(kLinkTypeEthernet);
    put32(1);
    put32(0);
    put32(0x10000000);  // cap_len
    put32(0x10000000);  // orig_len
    const uint8_t body[16] = {};
    std::fwrite(body, 1, sizeof(body), f);
    std::fclose(f);

    PcapReader reader;
    ASSERT_TRUE(reader.Open(path_).ok());
    Packet packet;
    bool eof = false;
    Status status = reader.Next(&packet, &eof);
    EXPECT_EQ(status.code(), Status::Code::kParseError) << snap_len;
    EXPECT_EQ(status.message(), "pcap record capture length exceeds 262144")
        << snap_len;
    EXPECT_EQ(packet.bytes.capacity(), 0u) << snap_len;
  }
}

}  // namespace
}  // namespace gigascope::net
