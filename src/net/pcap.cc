#include "net/pcap.h"

#include <cstring>

#include "common/bytes.h"

namespace gigascope::net {

namespace {

constexpr uint16_t kVersionMajor = 2;
constexpr uint16_t kVersionMinor = 4;
/// libpcap's largest snaplen: no real record captures more bytes.
constexpr uint32_t kMaxCaptureLen = 262144;

uint32_t ByteSwap32(uint32_t v) {
  return v >> 24 | (v >> 8 & 0xff00) | (v << 8 & 0xff0000) | v << 24;
}

uint16_t ByteSwap16(uint16_t v) {
  return static_cast<uint16_t>(v >> 8 | v << 8);
}

Status WriteU32(std::FILE* f, uint32_t v) {
  if (std::fwrite(&v, sizeof(v), 1, f) != 1) {
    return Status::Internal("pcap write failed");
  }
  return Status::Ok();
}

Status WriteU16(std::FILE* f, uint16_t v) {
  if (std::fwrite(&v, sizeof(v), 1, f) != 1) {
    return Status::Internal("pcap write failed");
  }
  return Status::Ok();
}

bool ReadU32(std::FILE* f, bool swap, uint32_t* v) {
  if (std::fread(v, sizeof(*v), 1, f) != 1) return false;
  if (swap) *v = ByteSwap32(*v);
  return true;
}

bool ReadU16(std::FILE* f, bool swap, uint16_t* v) {
  if (std::fread(v, sizeof(*v), 1, f) != 1) return false;
  if (swap) *v = ByteSwap16(*v);
  return true;
}

}  // namespace

PcapWriter::~PcapWriter() {
  if (file_ != nullptr) Close().ok();
}

Status PcapWriter::Open(const std::string& path, uint32_t snap_len) {
  if (file_ != nullptr) return Status::Internal("PcapWriter already open");
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::Internal("cannot open pcap file for writing: " + path);
  }
  GS_RETURN_IF_ERROR(WriteU32(file_, kPcapMagicNanos));
  GS_RETURN_IF_ERROR(WriteU16(file_, kVersionMajor));
  GS_RETURN_IF_ERROR(WriteU16(file_, kVersionMinor));
  GS_RETURN_IF_ERROR(WriteU32(file_, 0));  // thiszone
  GS_RETURN_IF_ERROR(WriteU32(file_, 0));  // sigfigs
  GS_RETURN_IF_ERROR(WriteU32(file_, snap_len));
  GS_RETURN_IF_ERROR(WriteU32(file_, kLinkTypeEthernet));
  packets_written_ = 0;
  return Status::Ok();
}

Status PcapWriter::Write(const Packet& packet) {
  if (file_ == nullptr) return Status::Internal("PcapWriter not open");
  uint32_t secs = static_cast<uint32_t>(packet.timestamp / kNanosPerSecond);
  uint32_t nanos = static_cast<uint32_t>(packet.timestamp % kNanosPerSecond);
  GS_RETURN_IF_ERROR(WriteU32(file_, secs));
  GS_RETURN_IF_ERROR(WriteU32(file_, nanos));
  GS_RETURN_IF_ERROR(WriteU32(file_, static_cast<uint32_t>(packet.bytes.size())));
  GS_RETURN_IF_ERROR(WriteU32(file_, packet.orig_len));
  if (!packet.bytes.empty() &&
      std::fwrite(packet.bytes.data(), 1, packet.bytes.size(), file_) !=
          packet.bytes.size()) {
    return Status::Internal("pcap packet body write failed");
  }
  ++packets_written_;
  return Status::Ok();
}

Status PcapWriter::Close() {
  if (file_ == nullptr) return Status::Ok();
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::Internal("pcap close failed");
  return Status::Ok();
}

PcapReader::~PcapReader() {
  if (file_ != nullptr) Close().ok();
}

Status PcapReader::Open(const std::string& path) {
  if (file_ != nullptr) return Status::Internal("PcapReader already open");
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::NotFound("cannot open pcap file: " + path);
  }
  uint32_t magic;
  if (std::fread(&magic, sizeof(magic), 1, file_) != 1) {
    return Status::ParseError("pcap file too short for magic");
  }
  if (magic == kPcapMagic) {
    swap_ = false;
    nanos_ = false;
  } else if (magic == kPcapMagicNanos) {
    swap_ = false;
    nanos_ = true;
  } else if (ByteSwap32(magic) == kPcapMagic) {
    swap_ = true;
    nanos_ = false;
  } else if (ByteSwap32(magic) == kPcapMagicNanos) {
    swap_ = true;
    nanos_ = true;
  } else {
    return Status::ParseError("not a pcap file (bad magic)");
  }
  uint16_t major, minor;
  uint32_t zone, sigfigs;
  if (!ReadU16(file_, swap_, &major) || !ReadU16(file_, swap_, &minor) ||
      !ReadU32(file_, swap_, &zone) || !ReadU32(file_, swap_, &sigfigs) ||
      !ReadU32(file_, swap_, &snap_len_) ||
      !ReadU32(file_, swap_, &link_type_)) {
    return Status::ParseError("truncated pcap global header");
  }
  if (major != kVersionMajor) {
    return Status::ParseError("unsupported pcap version");
  }
  return Status::Ok();
}

Status PcapReader::Next(Packet* out, bool* eof) {
  if (file_ == nullptr) return Status::Internal("PcapReader not open");
  uint32_t secs;
  if (!ReadU32(file_, swap_, &secs)) {
    if (std::feof(file_)) {
      *eof = true;
      return Status::Ok();
    }
    return Status::ParseError("pcap record header read failed");
  }
  uint32_t subsecs, cap_len, orig_len;
  if (!ReadU32(file_, swap_, &subsecs) || !ReadU32(file_, swap_, &cap_len) ||
      !ReadU32(file_, swap_, &orig_len)) {
    return Status::ParseError("truncated pcap record header");
  }
  // A corrupt length field must not force a huge allocation. The global
  // header's snaplen cannot bound it (0 and 0xFFFFFFFF both occur), so the
  // bound is libpcap's own maximum.
  if (cap_len > kMaxCaptureLen) {
    return Status::ParseError("pcap record capture length exceeds 262144");
  }
  SimTime sub_nanos = nanos_ ? subsecs : static_cast<SimTime>(subsecs) * 1000;
  out->timestamp = static_cast<SimTime>(secs) * kNanosPerSecond + sub_nanos;
  out->orig_len = orig_len;
  out->bytes.resize(cap_len);
  if (cap_len > 0 &&
      std::fread(out->bytes.data(), 1, cap_len, file_) != cap_len) {
    return Status::ParseError("truncated pcap record body");
  }
  *eof = false;
  return Status::Ok();
}

Status PcapReader::Close() {
  if (file_ == nullptr) return Status::Ok();
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::Internal("pcap close failed");
  return Status::Ok();
}

}  // namespace gigascope::net
