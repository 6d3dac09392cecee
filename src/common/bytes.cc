#include "common/bytes.h"

#include <cstdio>

namespace gigascope {

void ByteWriter::PutU16Be(uint16_t v) {
  PutU8(static_cast<uint8_t>(v >> 8));
  PutU8(static_cast<uint8_t>(v));
}

void ByteWriter::PutU32Be(uint32_t v) {
  PutU16Be(static_cast<uint16_t>(v >> 16));
  PutU16Be(static_cast<uint16_t>(v));
}

void ByteWriter::PutU16Le(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::PutU32Le(uint32_t v) {
  PutU16Le(static_cast<uint16_t>(v));
  PutU16Le(static_cast<uint16_t>(v >> 16));
}

void ByteWriter::PutU64Le(uint64_t v) {
  PutU32Le(static_cast<uint32_t>(v));
  PutU32Le(static_cast<uint32_t>(v >> 32));
}

void ByteWriter::PutBytes(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out_->insert(out_->end(), p, p + len);
}

std::string Ipv4ToString(uint32_t addr) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr >> 24) & 0xff,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff);
  return buf;
}

Result<uint32_t> ParseIpv4(std::string_view text) {
  uint32_t parts[4];
  int part = 0;
  uint64_t current = 0;
  bool have_digit = false;
  for (char c : text) {
    if (c >= '0' && c <= '9') {
      current = current * 10 + static_cast<uint64_t>(c - '0');
      if (current > 255) {
        return Status::InvalidArgument("IPv4 octet out of range: " +
                                       std::string(text));
      }
      have_digit = true;
    } else if (c == '.') {
      if (!have_digit || part >= 3) {
        return Status::InvalidArgument("malformed IPv4 address: " +
                                       std::string(text));
      }
      parts[part++] = static_cast<uint32_t>(current);
      current = 0;
      have_digit = false;
    } else {
      return Status::InvalidArgument("unexpected character in IPv4 address: " +
                                     std::string(text));
    }
  }
  if (!have_digit || part != 3) {
    return Status::InvalidArgument("malformed IPv4 address: " +
                                   std::string(text));
  }
  parts[3] = static_cast<uint32_t>(current);
  return parts[0] << 24 | parts[1] << 16 | parts[2] << 8 | parts[3];
}

uint64_t Fnv1a64(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace gigascope
