#include "rts/ring.h"

#include <cstring>

#include "common/logging.h"

namespace gigascope::rts {

void ConsumerWaker::Park(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (signal_.exchange(false, std::memory_order_acq_rel)) return;
  parked_.store(true, std::memory_order_release);
  cv_.wait_for(lock, timeout, [this] {
    return signal_.load(std::memory_order_acquire);
  });
  parked_.store(false, std::memory_order_relaxed);
  signal_.store(false, std::memory_order_relaxed);
}

void ConsumerWaker::Wake() {
  signal_.store(true, std::memory_order_release);
  if (parked_.load(std::memory_order_acquire)) {
    // Lock/unlock pairs the notify with the consumer's predicate check so
    // the wait cannot sleep through it; only taken while a consumer parks.
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_one();
  }
}

namespace {

using telemetry::SingleWriterAdd;

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Minimum per-slot payload region: headers plus any punctuation must
/// always fit in a single slot (punctuations are never dropped).
constexpr size_t kMinSlotBytes = 512;

}  // namespace

RingChannel::RingChannel(size_t capacity)
    : capacity_(capacity),
      mask_(NextPowerOfTwo(capacity) - 1),
      slots_(mask_ + 1) {
  GS_CHECK(capacity > 0);
}

void RingChannel::Share(const ShmRingOptions& options) {
  if (is_shm()) return;
  // Shm slots carry a fixed payload region each, so unbounded capacities
  // (tests subscribe with 1<<20) clamp to the configured ceiling. Lazy
  // page allocation makes even the ceiling cheap until slots are used.
  const size_t ceiling = options.max_slots == 0 ? 1 : options.max_slots;
  if (capacity_ > ceiling) capacity_ = ceiling;
  shm_mask_ = NextPowerOfTwo(capacity_) - 1;
  shm_slot_bytes_ = options.slot_bytes < kMinSlotBytes ? kMinSlotBytes
                                                       : options.slot_bytes;
  using Cell = std::atomic<uint64_t>;
  constexpr size_t kCells = 2 * telemetry::Histogram::kCells;
  const size_t slots_base = sizeof(RingControl) + kCells * sizeof(Cell);
  const size_t slot_count = shm_mask_ + 1;
  arena_base_ = slots_base + slot_count * sizeof(ShmSlot);
  shm_ = ShmSegment::Create(arena_base_ + slot_count * shm_slot_bytes_);
  RingControl* shared = new (shm_->data()) RingControl();
  for (Cell RingControl::*field :
       {&RingControl::head, &RingControl::pushed, &RingControl::dropped,
        &RingControl::oversize_dropped, &RingControl::high_water,
        &RingControl::tail, &RingControl::popped, &RingControl::torn,
        &RingControl::resync_dropped}) {
    (shared->*field).store(Read(ctrl().*field), std::memory_order_relaxed);
  }
  heap_end_ = Read(shared->head);
  Cell* cells = shm_->As<Cell>(sizeof(RingControl));
  for (size_t c = 0; c < kCells; ++c) new (&cells[c]) Cell(0);
  occupancy_.BindCells(cells);
  batch_size_.BindCells(cells + telemetry::Histogram::kCells);
  shm_slots_ = shm_->As<ShmSlot>(slots_base);
  for (size_t s = 0; s < slot_count; ++s) new (&shm_slots_[s]) ShmSlot();
  ctrl_.store(shared, std::memory_order_release);
}

bool RingChannel::HasRoom(uint64_t head, size_t slots) {
  if (head - cached_tail_ + slots > capacity_) {
    // Refresh the cached tail; acquire pairs with the consumer's release
    // store so the slots we are about to overwrite are truly vacated.
    cached_tail_ = ctrl().tail.load(std::memory_order_acquire);
    if (head - cached_tail_ + slots > capacity_) return false;
  }
  return true;
}

void RingChannel::Publish(uint64_t head, size_t messages) {
  ctrl().head.store(head, std::memory_order_release);
  SingleWriterAdd(&ctrl().pushed, messages);
  const uint64_t occupancy =
      head - ctrl().tail.load(std::memory_order_relaxed);
  if (occupancy > ctrl().high_water.load(std::memory_order_relaxed)) {
    ctrl().high_water.store(occupancy, std::memory_order_relaxed);
  }
  batch_size_.Record(messages);
  occupancy_.Record(occupancy);
  if (ConsumerWaker* waker = waker_.get()) waker->Wake();
}

bool RingChannel::TryPush(StreamBatch&& batch) {
  if (batch.empty()) return true;  // nothing to enqueue
  if (shm_ != nullptr) return ShmTryPush(std::move(batch));
  const uint64_t head = ctrl().head.load(std::memory_order_relaxed);
  // On failure the batch has not been touched: the caller keeps ownership
  // and can retry with the very same object.
  if (!HasRoom(head, 1)) return false;
  const size_t messages = batch.size();
  slots_[head & mask_] = std::move(batch);  // leaves `batch` empty
  Publish(head + 1, messages);
  return true;
}

bool RingChannel::ShmTryPush(StreamBatch&& batch) {
  // Chunk the batch into runs that share one slot region. Chunking happens
  // before the space check so a batch needing N slots fails atomically
  // (no-consume contract) when fewer than N are free.
  struct Chunk {
    size_t begin;
    size_t end;
  };
  std::vector<Chunk> chunks;
  std::vector<char> oversize(batch.size(), 0);
  size_t oversize_count = 0;
  const size_t none = batch.size();
  size_t run_begin = none;
  size_t run_bytes = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const size_t need = ShmItemBytes(batch.item(i));
    if (need > shm_slot_bytes_) {
      // Could never be delivered at any occupancy: dropped on the success
      // path below, counted separately from ring-full drops.
      oversize[i] = 1;
      ++oversize_count;
      continue;
    }
    if (run_begin == none) {
      run_begin = i;
      run_bytes = 0;
    } else if (run_bytes + need > shm_slot_bytes_) {
      chunks.push_back({run_begin, i});
      run_begin = i;
      run_bytes = 0;
    }
    run_bytes += need;
  }
  if (run_begin != none) chunks.push_back({run_begin, none});
  if (chunks.empty()) {
    // Every message was oversize; nothing deliverable remains.
    SingleWriterAdd(&ctrl().oversize_dropped, oversize_count);
    batch.clear();
    return true;
  }
  const uint64_t head = ctrl().head.load(std::memory_order_relaxed);
  if (!HasRoom(head, chunks.size())) return false;
  size_t delivered = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const uint64_t index = head + c;
    const size_t s = index & shm_mask_;
    ShmSlot& slot = shm_slots_[s];
    slot.offset = ArenaOffset(s);
    uint32_t count = 0;
    slot.len = static_cast<uint32_t>(
        ShmWriteChunk(batch, chunks[c].begin, chunks[c].end, oversize,
                      shm_->As<uint8_t>(slot.offset), &count));
    slot.msg_count = count;
    // Publication stamp: written (release) only after the payload bytes
    // are complete, validated by the consumer before it touches them.
    uint64_t seq = index + 1;
    if (torn_arm_ != 0 && ++slot_pubs_ >= torn_arm_) {
      seq = 0;  // fault injection: a stamp no consumer position accepts
      torn_arm_ = 0;
    }
    slot.seq.store(seq, std::memory_order_release);
    delivered += count;
  }
  if (oversize_count > 0) {
    SingleWriterAdd(&ctrl().oversize_dropped, oversize_count);
  }
  Publish(head + chunks.size(), delivered);
  batch.clear();
  return true;
}

bool RingChannel::PushOrDrop(StreamBatch&& batch) {
  if (!parked_.empty()) {
    if (batch.has_punctuation()) {
      // The batch's own punctuation carries a bound at least as new as the
      // parked one (bounds are non-decreasing on a stream), so the parked
      // punctuation is superseded — dropping it loses no information.
      parked_.clear();
    } else {
      // Ride the parked punctuation at the tail of this batch. It now
      // follows tuples that were produced after it, which is safe: its
      // bound ("no future tuple below v") still holds after any later
      // tuple.
      batch.AppendFrom(parked_, 0);
      parked_.clear();
    }
  }
  if (batch.empty()) return true;
  if (TryPush(std::move(batch))) return true;
  // Full ring: the tuples drop here — as early in the chain as possible,
  // per §4/§5 — but the punctuation must not, or downstream group-close
  // stalls until the next one happens to arrive. Park it for the next
  // push.
  size_t tuples = batch.size();
  if (batch.has_punctuation()) {
    --tuples;
    parked_.AppendFrom(batch, batch.size() - 1);
  }
  SingleWriterAdd(&ctrl().dropped, tuples);
  batch.clear();
  return false;
}

bool RingChannel::FlushParked() {
  if (parked_.empty()) return true;
  // On failure TryPush leaves the batch untouched: it stays parked.
  return TryPush(std::move(parked_));
}

bool RingChannel::ShmReadSlot(uint64_t tail, StreamBatch* out) {
  ShmSlot& slot = shm_slots_[tail & shm_mask_];
  // Validate before touching the payload: the stamp proves the producer
  // finished writing this lap's bytes, and the bounds prove the header
  // itself is sane. A producer that died mid-write (or fault injection)
  // fails here; the slot is torn — skipped, never delivered as garbage.
  const uint64_t seq = slot.seq.load(std::memory_order_acquire);
  if (seq != tail + 1 || slot.offset != ArenaOffset(tail & shm_mask_) ||
      slot.len > shm_slot_bytes_) {
    return false;
  }
  ByteSpan bytes(shm_->As<uint8_t>(slot.offset), slot.len);
  return ShmReadChunk(bytes, slot.msg_count, out);
}

bool RingChannel::TryPop(StreamBatch* out) {
  for (;;) {
    out->clear();
    const uint64_t tail = ctrl().tail.load(std::memory_order_relaxed);
    // The head cache is process-local while the tail lives in the control
    // block: after a fork handoff (adoption, or a restarted child) this
    // process's cache can lag the tail another process advanced. Trust it
    // only when it is strictly ahead of the tail; `<=` (not `==`) is what
    // makes the emptiness check safe across the handoff — otherwise a
    // stale cache reads unpublished slots and walks the tail past the head
    // forever.
    if (cached_head_ <= tail) {
      // Acquire pairs with the producer's release store: the slot contents
      // written before head advanced are visible here.
      cached_head_ = ctrl().head.load(std::memory_order_acquire);
      if (cached_head_ <= tail) return false;
    }
    bool ok = true;
    if (tail < heap_end_) {
      *out = std::move(slots_[tail & mask_]);
    } else {
      ok = ShmReadSlot(tail, out);
    }
    ctrl().tail.store(tail + 1, std::memory_order_release);
    if (!ok) {
      SingleWriterAdd(&ctrl().torn, 1);
      continue;  // torn slot skipped; try the next one
    }
    SingleWriterAdd(&ctrl().popped, out->size());
    // Past the arming position: this slot was pushed after the handoff,
    // so the lost prefix cannot extend into it — the gap ends here even
    // without a punctuation (see BeginResync).
    if (resync_ && tail >= resync_end_) resync_ = false;
    if (!resync_) return true;
    ApplyResyncGate(out);
    if (!out->empty()) return true;
    // Whole slot discarded by the gate; keep popping toward the
    // punctuation boundary.
  }
}

void RingChannel::ApplyResyncGate(StreamBatch* out) {
  size_t drop = 0;
  while (drop < out->size() &&
         out->item(drop).kind != MessageKind::kPunctuation) {
    ++drop;
  }
  const bool punctuation = drop < out->size();
  if (drop > 0) {
    SingleWriterAdd(&ctrl().resync_dropped, drop);
    out->DropFront(drop);
  }
  // The punctuation re-establishes ordering for everything that follows:
  // the new consumer incarnation starts clean at a window boundary.
  if (punctuation) resync_ = false;
}

void RingChannel::BeginResync() {
  resync_ = true;
  // Everything already pushed belongs to the dead incarnation's in-flight
  // span; everything after this head position post-dates the handoff.
  resync_end_ = ctrl().head.load(std::memory_order_acquire);
}

void RingChannel::ArmTornFault(uint64_t nth) {
  GS_CHECK(is_shm());  // the heap backend has no serialized form
  torn_arm_ = nth == 0 ? 1 : nth;
  slot_pubs_ = 0;
}

size_t RingChannel::size() const {
  // Load tail first: head can only grow afterwards, so the difference is
  // never negative.
  const uint64_t tail = ctrl().tail.load(std::memory_order_acquire);
  const uint64_t head = ctrl().head.load(std::memory_order_acquire);
  return static_cast<size_t>(head - tail);
}

}  // namespace gigascope::rts
