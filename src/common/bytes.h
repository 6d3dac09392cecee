#ifndef GIGASCOPE_COMMON_BYTES_H_
#define GIGASCOPE_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gigascope {

/// Non-owning view of a byte buffer (packet payloads, tuple bodies).
using ByteSpan = std::basic_string_view<uint8_t>;

/// Owning byte buffer.
using ByteBuffer = std::vector<uint8_t>;

/// Serializes fixed-width integers into a growing buffer.
///
/// Network header fields are written big-endian (wire order); tuple fields
/// are written little-endian (host order on all supported platforms).
class ByteWriter {
 public:
  explicit ByteWriter(ByteBuffer* out) : out_(out) {}
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16Be(uint16_t v);
  void PutU32Be(uint32_t v);
  void PutU16Le(uint16_t v);
  void PutU32Le(uint32_t v);
  void PutU64Le(uint64_t v);
  void PutBytes(const void* data, size_t len);

  size_t size() const { return out_->size(); }

 private:
  ByteBuffer* out_;
};

/// Little-endian stores and loads at any alignment: memcpy on
/// little-endian hosts (one unaligned move), byte shifts elsewhere. The
/// packed-tuple layout (rts/tuple.h) is built on these.
inline void StoreLe32(uint8_t* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline void StoreLe64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  }
  return v;
}

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  }
  return v;
}

/// Big-endian stores at any alignment: memcmp over two stored values orders
/// them as the integers are ordered.
inline void StoreBe32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (24 - 8 * i));
}

inline void StoreBe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
}

/// Big-endian (wire order) loads at any alignment, unchecked: the caller
/// has checked that the bytes are there. Compilers fold each into one
/// load and a byte swap.
inline uint16_t LoadBe16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] << 8 | p[1]);
}

inline uint32_t LoadBe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 |
         static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

/// Formats an IPv4 address (host byte order) as dotted quad.
std::string Ipv4ToString(uint32_t addr);

/// Parses a dotted-quad IPv4 address into host byte order.
Result<uint32_t> ParseIpv4(std::string_view text);

/// FNV-1a 64-bit hash over a byte range; the RTS group-hash primitive.
uint64_t Fnv1a64(const void* data, size_t len);

}  // namespace gigascope

#endif  // GIGASCOPE_COMMON_BYTES_H_
