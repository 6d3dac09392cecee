#include "rts/shm.h"

#include <sys/mman.h>

#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace gigascope::rts {

std::unique_ptr<ShmSegment> ShmSegment::Create(size_t bytes) {
  GS_CHECK(bytes > 0);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  GS_CHECK(mem != MAP_FAILED);
  return std::unique_ptr<ShmSegment>(new ShmSegment(mem, bytes));
}

ShmSegment::~ShmSegment() { munmap(data_, size_); }

size_t ShmItemBytes(const BatchItem& item) {
  return sizeof(BatchItem) + item.length;
}

size_t ShmWriteChunk(const StreamBatch& batch, size_t begin, size_t end,
                     const std::vector<char>& skip, uint8_t* out,
                     uint32_t* count) {
  uint32_t n = 0;
  for (size_t i = begin; i < end; ++i) n += skip[i] ? 0 : 1;
  uint8_t* table = out;
  uint8_t* bytes = out + n * sizeof(BatchItem);
  uint32_t written = 0;
  // Pending arena range [run_start, run_end), flushed when the next item's
  // bytes do not follow on (a skipped item sits between them).
  size_t run_start = 0;
  size_t run_end = 0;
  const uint8_t* arena = batch.arena().data();
  for (size_t i = begin; i < end; ++i) {
    if (skip[i]) continue;
    BatchItem item = batch.item(i);
    if (item.offset != run_end) {
      if (run_end > run_start) {
        std::memcpy(bytes, arena + run_start, run_end - run_start);
        bytes += run_end - run_start;
      }
      run_start = item.offset;
    }
    run_end = item.offset + item.length;
    item.offset = written;
    written += item.length;
    std::memcpy(table, &item, sizeof(item));
    table += sizeof(item);
  }
  if (run_end > run_start) {
    std::memcpy(bytes, arena + run_start, run_end - run_start);
  }
  *count = n;
  return n * sizeof(BatchItem) + written;
}

bool ShmReadChunk(ByteSpan bytes, uint32_t count, StreamBatch* out) {
  const size_t table_bytes = size_t{count} * sizeof(BatchItem);
  if (table_bytes > bytes.size()) return false;
  const ByteSpan arena = bytes.substr(table_bytes);
  // The table must tile the arena exactly, in order: each item starts where
  // the previous one ended and the last ends at the region's end. Anything
  // else means the header lied about the chunk; torn.
  size_t next = 0;
  for (uint32_t i = 0; i < count; ++i) {
    BatchItem item;
    std::memcpy(&item, bytes.data() + i * sizeof(BatchItem), sizeof(item));
    if (static_cast<uint8_t>(item.kind) > 1) return false;
    if (item.offset != next || item.length > arena.size() - next) {
      return false;
    }
    next += item.length;
  }
  if (next != arena.size()) return false;
  out->AppendPacked(bytes.data(), count, arena);
  return true;
}

}  // namespace gigascope::rts
