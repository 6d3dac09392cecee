#ifndef GIGASCOPE_RTS_SHM_H_
#define GIGASCOPE_RTS_SHM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rts/tuple.h"

namespace gigascope::rts {

/// An anonymous shared mapping (mmap MAP_SHARED | MAP_ANONYMOUS) that
/// survives fork(): the parent maps it before spawning workers and every
/// child inherits the same physical pages, so atomics placed inside are
/// the cross-process synchronization primitive — the paper's §4
/// shared-memory ring substrate. The mapping has no name, so nothing can
/// leak past process death (crash included) and no other process can
/// reach it. Pages are allocated lazily by the kernel, so a generously
/// sized segment costs only what is actually touched.
class ShmSegment {
 public:
  /// Maps `bytes` of zero-initialized shared memory. Dies (GS_CHECK) when
  /// the kernel refuses the mapping: the host cannot run multi-process
  /// mode at all.
  static std::unique_ptr<ShmSegment> Create(size_t bytes);

  ~ShmSegment();
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  void* data() const { return data_; }
  size_t size() const { return size_; }

  template <typename T>
  T* As(size_t byte_offset = 0) const {
    return reinterpret_cast<T*>(static_cast<uint8_t*>(data_) + byte_offset);
  }

 private:
  ShmSegment(void* data, size_t size) : data_(data), size_(size) {}
  void* data_;
  size_t size_;
};

/// Sizing of a ring moved into a ShmSegment (RingChannel::Share). The
/// engine shares rings at these defaults; tests choose small ones.
struct ShmRingOptions {
  /// Upper bound on slot count per shm ring: heap rings accept any
  /// capacity (tests subscribe with 1<<20), but shm slots carry a fixed
  /// payload region each, so Share clamps. Lazily allocated pages keep
  /// even this bound cheap until slots are actually used.
  size_t max_slots = 32768;
  /// Fixed payload bytes per slot. Batches larger than this split across
  /// slots; a single message that cannot fit is dropped and counted
  /// (oversize_dropped) — it could never be delivered.
  size_t slot_bytes = 16 * 1024;
};

/// Per-slot header. The payload lives in the segment's arena at
/// `offset` — slot i owns the fixed region [i * slot_bytes, (i+1) *
/// slot_bytes) — and `seq` is the publication stamp: the producer stores
/// seq = head_index + 1 (release) only after the payload bytes are
/// complete, and the consumer validates it before touching the bytes. A
/// mismatch means the slot is torn (half-written at producer death).
struct ShmSlot {
  std::atomic<uint64_t> seq{0};
  uint64_t offset = 0;     // payload start, bytes from segment base
  uint32_t len = 0;        // bytes used: item table + packed bytes
  uint32_t msg_count = 0;  // messages in this batch chunk
};

/// Slot bytes one message needs: its item-table entry plus its packed
/// bytes. A slot region holds a chunk of a batch as the chunk's item table
/// (BatchItems, offsets relative to the chunk's bytes) followed by the
/// chunk's packed bytes — the batch's own representation, so a push copies
/// the table and arena ranges instead of serializing message by message.
size_t ShmItemBytes(const BatchItem& item);

/// Writes the items of `batch` in [begin, end) that are not flagged in
/// `skip` into the slot region at `out` and sets `*count` to how many it
/// wrote. The packed bytes of consecutive items are copied as one arena
/// range. Returns the bytes written (the sum of their ShmItemBytes).
size_t ShmWriteChunk(const StreamBatch& batch, size_t begin, size_t end,
                     const std::vector<char>& skip, uint8_t* out,
                     uint32_t* count);

/// Appends the `count` messages of a slot region to `out`. Bounds-checked
/// everywhere: returns false (appending nothing) when a kind is unknown or
/// the table does not tile the bytes exactly, which the ring treats as a
/// torn slot. Never crashes on garbage.
bool ShmReadChunk(ByteSpan bytes, uint32_t count, StreamBatch* out);

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_SHM_H_
