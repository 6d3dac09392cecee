#ifndef GIGASCOPE_RTS_RING_H_
#define GIGASCOPE_RTS_RING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "rts/shm.h"
#include "rts/tuple.h"
#include "telemetry/counter.h"
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
/// Two slot backends share the protocol:
///
///  - Heap (default): slots are a std::vector<StreamBatch>; batches move
///    through without copying. Producer and consumer must share an
///    address space (threads of one process).
///  - Shared memory (ShmRingOptions::enabled): head/tail/counters and the
///    slots live in a fork-inherited ShmSegment; a batch is copied into a
///    fixed per-slot region of the segment's arena as its item table plus
///    its arena bytes (offset-based, nothing heap-pointed crosses the
///    boundary; rts/shm.h). This is the paper's §4 process split: producer
///    and consumer may be different processes.
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
  explicit RingChannel(size_t capacity)
      : RingChannel(capacity, ShmRingOptions{}) {}
  RingChannel(size_t capacity, const ShmRingOptions& shm);
  RingChannel(const RingChannel&) = delete;
  RingChannel& operator=(const RingChannel&) = delete;

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
  uint64_t pushed() const {
    return ctrl_ != nullptr ? ctrl_->pushed.load(std::memory_order_relaxed)
                            : pushed_.value();
  }
  uint64_t popped() const {
    return ctrl_ != nullptr ? ctrl_->popped.load(std::memory_order_relaxed)
                            : popped_.value();
  }
  uint64_t dropped() const {
    return ctrl_ != nullptr ? ctrl_->dropped.load(std::memory_order_relaxed)
                            : dropped_.value();
  }
  /// Slots that failed consumer-side validation (half-written at producer
  /// death, or torn by fault injection); skipped, never delivered.
  uint64_t torn() const {
    return ctrl_ != nullptr ? ctrl_->torn.load(std::memory_order_relaxed) : 0;
  }
  /// Tuples discarded by the resync gate since construction.
  uint64_t resync_dropped() const {
    return ctrl_ != nullptr
               ? ctrl_->resync_dropped.load(std::memory_order_relaxed)
               : resync_dropped_.value();
  }
  /// Messages too large for a shm slot, dropped at push.
  uint64_t oversize_dropped() const {
    return ctrl_ != nullptr
               ? ctrl_->oversize_dropped.load(std::memory_order_relaxed)
               : 0;
  }

  /// Whether the slots live in fork-inherited shared memory.
  bool is_shm() const { return ctrl_ != nullptr; }

  /// Highest slot occupancy observed (for the E4 heartbeat experiment).
  size_t high_water_mark() const {
    return ctrl_ != nullptr
               ? static_cast<size_t>(
                     ctrl_->high_water.load(std::memory_order_relaxed))
               : static_cast<size_t>(high_water_.value());
  }

  /// Occupancy distribution, one sample per successful push (so the
  /// histogram shows how deep the queue usually runs, not just the
  /// high-water spike). Producer is the single writer; snapshot from any
  /// thread. (Histograms are per-process heap state: with a child-process
  /// producer they reflect only this process's pushes.)
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
  /// Backend slot pops without the resync gate; `out` must arrive empty.
  bool HeapPopSlotRaw(StreamBatch* out);
  bool ShmPopSlotRaw(StreamBatch* out);
  bool ShmTryPush(StreamBatch&& batch);
  /// Drops leading tuples until the first punctuation while the resync
  /// gate is armed; disarms on the punctuation.
  void ApplyResyncGate(StreamBatch* out);
  void CountDropped(size_t messages);
  /// Producer-side accounting shared by both backends.
  void RecordPush(size_t messages, size_t occupancy);
  size_t ArenaOffset(size_t slot_index) const {
    return arena_base_ + slot_index * shm_slot_bytes_;
  }

  const size_t capacity_;  // logical capacity (exact, any value >= 1)
  const size_t mask_;      // slot_count - 1; slot_count is a power of 2
  std::vector<StreamBatch> slots_;  // heap backend only

  // Shm backend: the segment holds [ShmRingControl][ShmSlot...][arena].
  std::unique_ptr<ShmSegment> shm_;
  ShmRingControl* ctrl_ = nullptr;
  ShmSlot* shm_slots_ = nullptr;
  size_t shm_slot_bytes_ = 0;
  size_t arena_base_ = 0;

  // Free-running counters; slot index is counter & mask_. The shm backend
  // uses ctrl_->head/tail instead (shared across processes).
  alignas(64) std::atomic<uint64_t> head_{0};  // next slot to push
  alignas(64) std::atomic<uint64_t> tail_{0};  // next slot to pop
  // Producer-local cache of tail (avoids loading the consumer's cache
  // line until the ring looks full); consumer-local cache of head.
  alignas(64) uint64_t cached_tail_ = 0;
  alignas(64) uint64_t cached_head_ = 0;

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

  // Stats: telemetry counters so `micro_ring`, the engine's `gs_stats`
  // stream, and direct accessors all report from one source of truth.
  // Each counter has a single writer (producer or consumer). The shm
  // backend keeps these in ShmRingControl instead, so a parent-side
  // gs_stats snapshot sees child-side progress; the accessors branch.
  telemetry::Counter pushed_;
  telemetry::Counter popped_;
  telemetry::Counter dropped_;
  telemetry::Counter high_water_;
  telemetry::Counter resync_dropped_;
  telemetry::Histogram occupancy_;   // producer-written, see TryPush
  telemetry::Histogram batch_size_;  // producer-written, messages per push

  std::shared_ptr<ConsumerWaker> waker_;
};

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_RING_H_
