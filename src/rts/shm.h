#ifndef GIGASCOPE_RTS_SHM_H_
#define GIGASCOPE_RTS_SHM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rts/tuple.h"

namespace gigascope::rts {

/// An anonymous POSIX shared-memory mapping that survives fork(): the
/// parent maps it before spawning workers and every child inherits the
/// same physical pages (MAP_SHARED), so atomics placed inside are the
/// cross-process synchronization primitive — the paper's §4 shared-memory
/// ring substrate.
///
/// The segment is created with shm_open under a unique private name and
/// immediately shm_unlink'ed: the mapping keeps it alive, nothing leaks
/// into /dev/shm past process death (crash included), and no other process
/// can race on the name. Pages are allocated lazily by the kernel, so a
/// generously sized segment costs only what is actually touched.
class ShmSegment {
 public:
  /// Maps `bytes` of zero-initialized shared memory. Dies (GS_CHECK) when
  /// the kernel refuses both shm_open and the MAP_ANONYMOUS fallback —
  /// both failing means the host cannot run multi-process mode at all.
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

/// Sizing knobs for shm-backed ring channels (EngineOptions::process maps
/// onto this). Every channel the registry creates while `enabled` carries
/// its slots in a ShmSegment instead of a heap vector.
struct ShmRingOptions {
  bool enabled = false;
  /// Upper bound on slot count per shm ring: heap rings accept any
  /// capacity (tests subscribe with 1<<20), but shm slots carry a fixed
  /// payload region each, so the registry clamps. Lazily allocated pages
  /// keep even this bound cheap until slots are actually used.
  size_t max_slots = 32768;
  /// Fixed payload bytes per slot. Batches larger than this split across
  /// slots; a single message that cannot fit is dropped and counted
  /// (oversize_dropped) — it could never be delivered.
  size_t slot_bytes = 16 * 1024;
};

/// Control block at the head of a shm ring segment. All fields are written
/// through atomics with the same acquire/release protocol as the heap
/// ring; counters that the heap ring keeps in telemetry::Counter live here
/// instead so the parent's gs_stats snapshot sees child-side progress.
struct ShmRingControl {
  alignas(64) std::atomic<uint64_t> head{0};  // producer: next slot to fill
  alignas(64) std::atomic<uint64_t> tail{0};  // consumer: next slot to take
  // Message-granular counters (single writer each, relaxed).
  alignas(64) std::atomic<uint64_t> pushed{0};   // producer
  std::atomic<uint64_t> dropped{0};              // producer
  std::atomic<uint64_t> oversize_dropped{0};     // producer
  alignas(64) std::atomic<uint64_t> popped{0};   // consumer
  std::atomic<uint64_t> high_water{0};           // producer, slot-granular
  /// Slots whose sequence stamp or bounds failed consumer-side validation
  /// (a producer died mid-write, or fault injection tore one); skipped,
  /// never delivered.
  std::atomic<uint64_t> torn{0};                 // consumer
  /// Tuples discarded by the post-restart resync gate (consumer side).
  std::atomic<uint64_t> resync_dropped{0};       // consumer
  uint64_t slot_count = 0;
  uint64_t slot_bytes = 0;
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

/// Total segment bytes for a ring of `slot_count` slots.
size_t ShmRingSegmentSize(size_t slot_count, size_t slot_bytes);

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_SHM_H_
