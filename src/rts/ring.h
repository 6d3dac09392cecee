#ifndef GIGASCOPE_RTS_RING_H_
#define GIGASCOPE_RTS_RING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "rts/shm.h"
#include "rts/tuple.h"
#include "telemetry/histogram.h"

namespace gigascope::rts {

/// Wakes a parked consumer thread when a producer pushes work into one of
/// the consumer's channels. A `signal` flag latches wake-ups that arrive
/// between the consumer's last poll and its park, so no wake-up is lost;
/// Park additionally bounds the sleep with a timeout, so even a missed
/// notification only delays the consumer, never deadlocks it.
class ConsumerWaker {
 public:
  /// Consumer side: sleep until Wake() or `timeout`. Returns immediately
  /// if a wake-up arrived since the previous Park.
  void Park(std::chrono::microseconds timeout);

  /// Producer side: wake the parked (or about-to-park) consumer.
  void Wake();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> signal_{false};  // latched wake-up
  std::atomic<bool> parked_{false};  // consumer is inside Park
};

/// A ring's free-running indices and its counters (slot index = counter &
/// mask). Every field has a single writer: the producer writes the first
/// two cache lines, the consumer the last two, so neither side's hot
/// writes invalidate a line the other side writes. Counters are relaxed
/// single-writer increments; head and tail carry the acquire/release
/// handoff of the slot contents. A heap ring holds its block as a member;
/// a shm ring places it at the head of its segment, where every process
/// that maps the segment reads the same values.
struct RingControl {
  alignas(64) std::atomic<uint64_t> head{0};  // next slot to fill
  // Producer-written counters. pushed/dropped/oversize_dropped count
  // messages; high_water counts slots (batches).
  alignas(64) std::atomic<uint64_t> pushed{0};
  std::atomic<uint64_t> dropped{0};
  /// Messages too large for a shm slot, dropped at push.
  std::atomic<uint64_t> oversize_dropped{0};
  std::atomic<uint64_t> high_water{0};
  alignas(64) std::atomic<uint64_t> tail{0};  // next slot to take
  // Consumer-written counters.
  alignas(64) std::atomic<uint64_t> popped{0};
  /// Slots whose sequence stamp or bounds failed consumer-side validation
  /// (a producer died mid-write, or fault injection tore one); skipped,
  /// never delivered.
  std::atomic<uint64_t> torn{0};
  /// Tuples discarded by the post-restart resync gate.
  std::atomic<uint64_t> resync_dropped{0};
};
// Fields are laid out in declaration order, producer's first: no cache
// line holds fields of both sides.
static_assert(offsetof(RingControl, high_water) / 64 <
                  offsetof(RingControl, tail) / 64,
              "producer-written and consumer-written fields share a cache "
              "line");

/// A bounded channel between query nodes, standing in for the paper's
/// shared-memory segments. Pushing to a full channel fails; the producer
/// decides whether to drop (and the channel counts it) — per §4/§5, lightly
/// processed tuples drop before highly processed ones, so drops happen as
/// early in the chain as possible. Punctuations are the exception: they
/// carry ordering guarantees downstream operators block on, so PushOrDrop
/// never discards one — it parks the punctuation producer-side and rides it
/// on the next push that fits (safe because a punctuation's bound still
/// holds after later tuples, and a newer punctuation supersedes an older
/// one: bounds are non-decreasing).
///
/// Each slot carries a StreamBatch — tuples plus at most one trailing
/// punctuation — so one push/pop pair amortizes the synchronization cost
/// over the whole batch. The batch is the only unit: a producer with one
/// message pushes a batch of one, and a consumer that wants one message at
/// a time keeps its own cursor into the batch it popped.
///
/// Lock-free single-producer/single-consumer ring: a fixed power-of-two
/// slot array indexed by free-running head (producer) and tail (consumer)
/// counters with acquire/release ordering. The engine guarantees the SPSC
/// contract by giving every channel exactly one publishing node (or the
/// inject thread, for source streams) and exactly one consuming node, each
/// owned by a single thread. Counters are exact in any quiesced state:
/// pushed == popped + queued messages, and drops are counted on this
/// channel only. pushed/popped/dropped count messages; size(), capacity()
/// and the high-water mark count slots (batches).
///
/// The ring's indices and counters live in one RingControl. Two slot
/// backends share it and the protocol:
///
///  - Heap (default): the control block is a member and the slots are a
///    std::vector<StreamBatch>; batches move through without copying.
///    Producer and consumer must share an address space (threads of one
///    process).
///  - Shared memory (after Share): the control block, the slot
///    headers and the slots' payload arena live in a fork-inherited
///    ShmSegment, so a parent-side gs_stats snapshot sees child-side
///    progress. A batch is copied into a fixed per-slot region of the arena
///    as its item table plus its arena bytes (offset-based, nothing
///    heap-pointed crosses the boundary; rts/shm.h). This is the paper's §4
///    process split: producer and consumer may be different processes.
///    Each slot carries a publication sequence stamp that the consumer
///    validates before touching the payload, so a slot half-written at
///    producer death is detected (counted `torn`) and skipped instead of
///    delivered as garbage. Batches larger than one slot's region split
///    across slots; a single message too big for a slot is dropped and
///    counted (`oversize_dropped`).
///
/// Crash recovery: after a consumer process is restarted (or its nodes are
/// adopted by another process), BeginResync() arms a consumer-side gate
/// that discards tuples until the next punctuation — the restarted
/// operator must not fold tuples from a window whose prefix died with the
/// old incarnation. The discarded span is counted (`resync_dropped`) and
/// ends, by construction, at a punctuation boundary.
class RingChannel {
 public:
  explicit RingChannel(size_t capacity);
  RingChannel(const RingChannel&) = delete;
  RingChannel& operator=(const RingChannel&) = delete;

  /// Moves the ring into a new ShmSegment, so producer and consumer may be
  /// processes forked after this call. Positions and counters carry over,
  /// both histograms count in the segment, and the capacity clamps to
  /// `options.max_slots`. Batches already queued stay in their heap slots
  /// and pop first (a forked consumer reads its copy of them). A no-op on
  /// a shared ring. Control plane only: no thread may use the ring.
  void Share(const ShmRingOptions& options = {});

  /// Enqueues a batch; false when full. Producer-side only. On failure the
  /// batch is NOT consumed — the caller still owns its contents and may
  /// retry with the same object (no re-send of a moved-from shell). An
  /// empty batch is accepted as a no-op. (Shm backend: a batch needing N
  /// slots fails atomically when fewer than N are free.)
  bool TryPush(StreamBatch&& batch);

  /// Enqueues, or drops the batch's tuples and records them as drops;
  /// returns whether the batch was enqueued. A trailing punctuation is
  /// never dropped: on failure it is parked and attached to the next
  /// push (see class comment). Consumes the batch either way.
  /// Producer-side only.
  bool PushOrDrop(StreamBatch&& batch);

  /// Retries a parked punctuation (pushes it as its own batch). Returns
  /// true when nothing remains parked. Producer-side only.
  bool FlushParked();

  /// Whether a punctuation is parked waiting for ring space. Producer-side
  /// only (the parked message lives outside the slots).
  bool has_parked() const { return !parked_.empty(); }

  /// Dequeues a whole batch into `out` (replacing its contents); false
  /// when empty. Consumer-side only.
  bool TryPop(StreamBatch* out);

  /// Arms the post-restart resync gate: subsequent pops discard tuples
  /// (counting them as resync_dropped) until the first punctuation, which
  /// is delivered and disarms the gate. The gap is also bounded by
  /// position: the head at arming marks the end of the dead incarnation's
  /// in-flight span, and the gate disarms there even if that span carried
  /// no punctuation — anything pushed after adoption (a seal-time upstream
  /// flush, new live data) is beyond the lost prefix and must be
  /// delivered, or a punctuation-free residue would gate out the entire
  /// remaining output. Consumer-side only; call before the new consumer
  /// incarnation starts polling.
  void BeginResync();
  bool resync_pending() const { return resync_; }

  /// Fault injection (tests, gsrun --fault=torn:...): corrupt the sequence
  /// stamp of the `nth` slot this producer publishes from now on (1-based),
  /// once. Shm backend only (the heap backend hands over objects, there is
  /// no serialized form to tear). Producer-side only, arm before the
  /// producer starts.
  void ArmTornFault(uint64_t nth);

  /// Occupied slots (batches). Exact when quiesced; a point-in-time
  /// estimate while the producer and consumer are running.
  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t pushed() const { return Read(ctrl().pushed); }
  uint64_t popped() const { return Read(ctrl().popped); }
  uint64_t dropped() const { return Read(ctrl().dropped); }
  /// Slots that failed consumer-side validation (half-written at producer
  /// death, or torn by fault injection); skipped, never delivered.
  uint64_t torn() const { return Read(ctrl().torn); }
  /// Tuples discarded by the resync gate since construction.
  uint64_t resync_dropped() const { return Read(ctrl().resync_dropped); }
  /// Messages too large for a shm slot, dropped at push.
  uint64_t oversize_dropped() const { return Read(ctrl().oversize_dropped); }

  /// Whether the slots live in fork-inherited shared memory.
  bool is_shm() const { return shm_ != nullptr; }

  /// Highest slot occupancy observed (for the E4 heartbeat experiment).
  size_t high_water_mark() const {
    return static_cast<size_t>(Read(ctrl().high_water));
  }

  /// Occupancy distribution, one sample per successful push (so the
  /// histogram shows how deep the queue usually runs, not just the
  /// high-water spike). Producer is the single writer; snapshot from any
  /// thread (a shared ring keeps it in its segment, so a child-process
  /// producer's pushes show in the parent).
  const telemetry::Histogram& occupancy_histogram() const {
    return occupancy_;
  }

  /// Messages per pushed batch — how well the data plane is amortizing
  /// the per-slot handoff. Producer-written; snapshot from any thread.
  const telemetry::Histogram& batch_size_histogram() const {
    return batch_size_;
  }

  /// Installs the consumer's waker: successful pushes call Wake() so a
  /// parked consumer resumes promptly (tuples and punctuations alike —
  /// punctuations are what un-idle blocked operators, §3). Must be called
  /// while no producer is running (the engine wires wakers before starting
  /// its worker pool). Same-process pump modes only — a cross-process
  /// consumer polls instead (the waker's mutex cannot cross fork).
  void SetWaker(std::shared_ptr<ConsumerWaker> waker) {
    waker_ = std::move(waker);
  }

 private:
  static uint64_t Read(const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  }
  /// Producer side: whether `slots` more slots fit behind `head`.
  bool HasRoom(uint64_t head, size_t slots);
  bool ShmTryPush(StreamBatch&& batch);
  /// Consumer side: copies the shm slot at position `tail` into `out`
  /// (which arrives empty); false when the slot fails validation (torn).
  bool ShmReadSlot(uint64_t tail, StreamBatch* out);
  /// Publishes the slots before `head` and records the push.
  void Publish(uint64_t head, size_t messages);
  /// Drops leading tuples until the first punctuation while the resync
  /// gate is armed; disarms on the punctuation.
  void ApplyResyncGate(StreamBatch* out);
  size_t ArenaOffset(size_t slot_index) const {
    return arena_base_ + slot_index * shm_slot_bytes_;
  }

  size_t capacity_;     // logical capacity (exact, any value >= 1)
  const size_t mask_;   // heap slot_count - 1; slot_count is a power of 2
  size_t shm_mask_ = 0;  // the same for the shm slots (Share)

  // The ring's indices and counters: `local_` for a heap ring, the head of
  // the segment for a shm ring. Atomic because Share moves it while a
  // metrics reader on another thread may follow it.
  RingControl local_;
  std::atomic<RingControl*> ctrl_{&local_};
  RingControl& ctrl() const { return *ctrl_.load(std::memory_order_acquire); }

  std::vector<StreamBatch> slots_;  // heap slots
  // Shm backend: [RingControl][histogram cells][ShmSlot...][arena].
  std::unique_ptr<ShmSegment> shm_;
  ShmSlot* shm_slots_ = nullptr;
  size_t shm_slot_bytes_ = 0;
  size_t arena_base_ = 0;

  // Producer-local cache of tail (avoids loading the consumer's cache
  // line until the ring looks full); consumer-local cache of head.
  alignas(64) uint64_t cached_tail_ = 0;
  alignas(64) uint64_t cached_head_ = 0;
  // Consumer side, on cached_head_'s line: positions below it pop from the
  // heap slots. The head at Share; no position reaches it on a heap ring.
  uint64_t heap_end_ = UINT64_MAX;

  // Producer-side only: a punctuation whose batch could not be pushed,
  // waiting to ride the next successful push (never dropped). Heap state:
  // a producer process that dies loses its parked punctuation — the gap
  // closes at the next punctuation (bounds supersede), within the same
  // resync window the crash already opened. Empty when nothing is parked.
  StreamBatch parked_;

  // Consumer-side: the post-restart resync gate (see BeginResync).
  // resync_end_ is the head position at arming: slots at or past it were
  // pushed after the handoff and end the gap unconditionally.
  bool resync_ = false;
  uint64_t resync_end_ = 0;

  // Producer-side: fault injection. slot_pubs_ counts slots published;
  // when it reaches torn_arm_ the slot's seq stamp is corrupted.
  uint64_t torn_arm_ = 0;
  uint64_t slot_pubs_ = 0;

  telemetry::Histogram occupancy_;   // producer-written, see TryPush
  telemetry::Histogram batch_size_;  // producer-written, messages per push

  std::shared_ptr<ConsumerWaker> waker_;
};

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_RING_H_
