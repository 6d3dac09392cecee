// Fault-tolerance suite for the multi-process HFTA mode: shm ring
// semantics (torn slots, oversize drops, the resync gate), cross-fork
// delivery, and the supervisor's crash/hang/degradation machinery driven
// through deterministic fault injection. Every recovery path the engine
// claims is exercised here rather than trusted.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "core/engine.h"
#include "core/fault.h"
#include "core/supervisor.h"
#include "rts/punctuation.h"
#include "rts/ring.h"
#include "rts/shm.h"
#include "workload/traffic_gen.h"

namespace gigascope::core {
namespace {

using expr::Value;
using rts::RingChannel;
using rts::ShmRingOptions;
using rts::MessageKind;
using rts::MessageMeta;
using rts::StreamBatch;

/// Appends a tuple of `payload_bytes` bytes, each `tag`.
void Tuple(StreamBatch* batch, uint8_t tag, size_t payload_bytes = 8,
           MessageMeta meta = {}) {
  meta.kind = MessageKind::kTuple;
  const ByteBuffer payload(payload_bytes, tag);
  batch->Append(meta, ByteSpan(payload.data(), payload.size()));
}

/// Appends a punctuation of 8 bytes, each `tag`.
void Punct(StreamBatch* batch, uint8_t tag) {
  MessageMeta meta;
  meta.kind = MessageKind::kPunctuation;
  const ByteBuffer payload(8, tag);
  batch->Append(meta, ByteSpan(payload.data(), payload.size()));
}

ShmRingOptions SmallShm(size_t max_slots = 64, size_t slot_bytes = 256) {
  ShmRingOptions shm;
  shm.max_slots = max_slots;
  shm.slot_bytes = slot_bytes;
  return shm;
}

// -- Shm ring unit tests -----------------------------------------------------

/// A ring's counters at one point of a scripted run.
struct RingCounters {
  uint64_t pushed = 0;
  uint64_t popped = 0;
  uint64_t dropped = 0;
  uint64_t resync_dropped = 0;
  size_t high_water = 0;
  size_t size = 0;
  bool operator==(const RingCounters&) const = default;
};

/// What one scripted run delivered (kind, weight and payload of every
/// popped message) and the ring's counters at each checkpoint.
struct RingScript {
  std::vector<std::string> delivered;
  std::vector<RingCounters> checkpoints;
};

/// Drives `ring` as producer and consumer through round trips, a full-ring
/// drop that parks a punctuation, the parked punctuation's retry and an
/// armed resync gate.
RingScript RunRingScript(RingChannel& ring) {
  RingScript script;
  const auto pop = [&](size_t slots) {
    StreamBatch out;
    for (size_t s = 0; s < slots && ring.TryPop(&out); ++s) {
      for (size_t i = 0; i < out.size(); ++i) {
        const ByteSpan payload = out.payload(i);
        script.delivered.push_back(
            std::to_string(static_cast<int>(out.item(i).kind)) + "/" +
            std::to_string(out.item(i).weight) + "/" +
            std::string(payload.begin(), payload.end()));
      }
    }
  };
  const auto checkpoint = [&] {
    script.checkpoints.push_back(
        {ring.pushed(), ring.popped(), ring.dropped(), ring.resync_dropped(),
         ring.high_water_mark(), ring.size()});
  };
  // Round trips: five tuples and a punctuation per batch.
  for (int round = 0; round < 50; ++round) {
    StreamBatch batch;
    for (int i = 0; i < 5; ++i) {
      Tuple(&batch, static_cast<uint8_t>(round * 5 + i));
    }
    Punct(&batch, static_cast<uint8_t>(round));
    EXPECT_TRUE(ring.TryPush(std::move(batch)));
    pop(SIZE_MAX);
  }
  checkpoint();
  // Fill all 16 slots; the next batch's three tuples drop and its
  // punctuation parks.
  for (uint8_t i = 0; i < 16; ++i) {
    StreamBatch batch;
    Tuple(&batch, i);
    EXPECT_TRUE(ring.PushOrDrop(std::move(batch)));
  }
  StreamBatch overflow;
  for (uint8_t i = 0; i < 3; ++i) Tuple(&overflow, 100 + i);
  Punct(&overflow, 99);
  EXPECT_FALSE(ring.PushOrDrop(std::move(overflow)));
  EXPECT_TRUE(ring.has_parked());
  checkpoint();
  // Two pops make room; the parked punctuation goes out on its own.
  pop(2);
  EXPECT_TRUE(ring.FlushParked());
  checkpoint();
  // A restarted consumer: the gate discards the 14 queued tuples up to the
  // punctuation, and the batch pushed after arming is delivered.
  ring.BeginResync();
  StreamBatch after;
  Tuple(&after, 200);
  Tuple(&after, 201);
  EXPECT_TRUE(ring.TryPush(std::move(after)));
  pop(SIZE_MAX);
  EXPECT_FALSE(ring.resync_pending());
  checkpoint();
  return script;
}

TEST(ShmRingTest, MatchesHeapRingMessageForMessage) {
  // The shm backend must be a drop-in for the heap backend: same messages
  // in, same messages out, same counters through drops, parked
  // punctuations and the resync gate — serialization is invisible.
  RingChannel heap(16);
  RingChannel shm(16);
  shm.Share(SmallShm());
  ASSERT_TRUE(shm.is_shm());
  ASSERT_FALSE(heap.is_shm());
  const RingScript from_heap = RunRingScript(heap);
  const RingScript from_shm = RunRingScript(shm);
  EXPECT_EQ(from_heap.delivered, from_shm.delivered);
  ASSERT_EQ(from_heap.checkpoints.size(), 4u);
  for (size_t c = 0; c < from_heap.checkpoints.size(); ++c) {
    const RingCounters& h = from_heap.checkpoints[c];
    const RingCounters& m = from_shm.checkpoints[c];
    EXPECT_EQ(h.pushed, m.pushed) << "checkpoint " << c;
    EXPECT_EQ(h.popped, m.popped) << "checkpoint " << c;
    EXPECT_EQ(h.dropped, m.dropped) << "checkpoint " << c;
    EXPECT_EQ(h.resync_dropped, m.resync_dropped) << "checkpoint " << c;
    EXPECT_EQ(h.high_water, m.high_water) << "checkpoint " << c;
    EXPECT_EQ(h.size, m.size) << "checkpoint " << c;
  }
  // The script reached every state it was written for.
  EXPECT_EQ(from_heap.checkpoints[1],
            (RingCounters{316, 300, 3, 0, 16, 16}));
  EXPECT_EQ(from_heap.checkpoints[2],
            (RingCounters{317, 302, 3, 0, 16, 15}));
  EXPECT_EQ(from_heap.checkpoints[3],
            (RingCounters{319, 319, 3, 14, 16, 0}));
  EXPECT_EQ(shm.torn(), 0u);
  EXPECT_EQ(shm.oversize_dropped(), 0u);
}

TEST(ShmRingTest, TraceContextAndWeightSurviveSerialization) {
  RingChannel ring(8);
  ring.Share(SmallShm());
  MessageMeta meta;
  meta.trace_id = 0xdeadbeefcafe;
  meta.trace_ns = 123456789;
  meta.weight = 64;
  StreamBatch m;
  Tuple(&m, 7, 8, meta);
  ASSERT_TRUE(ring.TryPush(std::move(m)));
  StreamBatch out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out.item(0).trace_id, 0xdeadbeefcafeu);
  EXPECT_EQ(out.item(0).trace_ns, 123456789);
  EXPECT_EQ(out.item(0).weight, 64u);
}

TEST(ShmRingTest, OversizeMessageDroppedAndCounted) {
  // A single message that cannot fit one slot's payload region can never
  // be delivered; it is dropped at the producer and counted, and the rest
  // of its batch still flows.
  RingChannel ring(8);
  ring.Share(SmallShm(8, 64));
  StreamBatch batch;
  Tuple(&batch, 1, 8);
  Tuple(&batch, 2, 4096);  // > 64-byte slot region
  Tuple(&batch, 3, 8);
  ASSERT_TRUE(ring.PushOrDrop(std::move(batch)));
  EXPECT_EQ(ring.oversize_dropped(), 1u);
  StreamBatch out;
  ASSERT_TRUE(ring.TryPop(&out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.payload(0)[0], 1);
  EXPECT_EQ(out.payload(1)[0], 3);
}

TEST(ShmRingTest, LargeBatchSplitsAcrossSlots) {
  // A batch bigger than one slot's region splits; order is preserved and
  // nothing is lost when enough slots are free.
  RingChannel ring(32);
  ring.Share(SmallShm(32, 128));
  StreamBatch batch;
  for (int i = 0; i < 40; ++i) {
    Tuple(&batch, static_cast<uint8_t>(i), 32);
  }
  Punct(&batch, 99);
  ASSERT_TRUE(ring.TryPush(std::move(batch)));
  EXPECT_GT(ring.size(), 1u);  // really did span multiple slots

  std::vector<std::pair<MessageKind, uint8_t>> out;
  StreamBatch popped;
  while (ring.TryPop(&popped)) {
    for (size_t i = 0; i < popped.size(); ++i) {
      out.emplace_back(popped.item(i).kind, popped.payload(i)[0]);
    }
  }
  ASSERT_EQ(out.size(), 41u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(out[i].second, static_cast<uint8_t>(i));
  }
  EXPECT_EQ(out[40].first, MessageKind::kPunctuation);
}

TEST(ShmRingTest, TornSlotSkippedAndCounted) {
  // ArmTornFault corrupts the Nth published slot's sequence stamp — as a
  // producer dying mid-publish would. The consumer must detect, count,
  // and skip it without delivering garbage or stalling the ring.
  RingChannel ring(16);
  ring.Share(SmallShm());
  ring.ArmTornFault(2);  // tear the second slot published
  for (uint8_t i = 0; i < 4; ++i) {
    StreamBatch batch;
    Tuple(&batch, i);
    ASSERT_TRUE(ring.TryPush(std::move(batch)));
  }
  std::vector<uint8_t> seen;
  StreamBatch out;
  while (ring.TryPop(&out)) {
    for (size_t i = 0; i < out.size(); ++i) seen.push_back(out.payload(i)[0]);
  }
  EXPECT_EQ(ring.torn(), 1u);
  ASSERT_EQ(seen.size(), 3u);  // slot 2 skipped
  EXPECT_EQ(seen, (std::vector<uint8_t>{0, 2, 3}));
}

TEST(ShmRingTest, ResyncGateDropsUntilPunctuation) {
  // After a consumer restart, tuples from the interrupted window must not
  // reach the new incarnation: the gate discards until the first
  // punctuation, delivers it (its bound is still valid), and disarms.
  RingChannel ring(16);
  ring.Share(SmallShm());
  StreamBatch pre;
  Tuple(&pre, 1);
  Tuple(&pre, 2);
  Punct(&pre, 10);
  ASSERT_TRUE(ring.TryPush(std::move(pre)));
  StreamBatch post;
  Tuple(&post, 3);
  ASSERT_TRUE(ring.TryPush(std::move(post)));

  ring.BeginResync();
  EXPECT_TRUE(ring.resync_pending());
  std::vector<std::pair<MessageKind, uint8_t>> seen;
  StreamBatch out;
  while (ring.TryPop(&out)) {
    for (size_t i = 0; i < out.size(); ++i) {
      seen.emplace_back(out.item(i).kind, out.payload(i)[0]);
    }
  }
  EXPECT_FALSE(ring.resync_pending());
  EXPECT_EQ(ring.resync_dropped(), 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, MessageKind::kPunctuation);
  EXPECT_EQ(seen[1].first, MessageKind::kTuple);
  EXPECT_EQ(seen[1].second, 3);
}

TEST(ShmRingTest, ResyncGateEndsAtArmingPositionWithoutPunctuation) {
  // A punctuation-free residue must not gate out data pushed after the
  // handoff: the head position at arming bounds the gap, so post-adoption
  // pushes (a seal-time upstream flush, new live data) always deliver.
  RingChannel ring(16);
  ring.Share(SmallShm());
  StreamBatch residue;
  Tuple(&residue, 1);
  Tuple(&residue, 2);
  ASSERT_TRUE(ring.TryPush(std::move(residue)));

  ring.BeginResync();
  StreamBatch after;
  Tuple(&after, 3);  // pushed after adoption, no punctuation
  ASSERT_TRUE(ring.TryPush(std::move(after)));

  std::vector<uint8_t> seen;
  StreamBatch out;
  while (ring.TryPop(&out)) {
    for (size_t i = 0; i < out.size(); ++i) seen.push_back(out.payload(i)[0]);
  }
  EXPECT_FALSE(ring.resync_pending());
  EXPECT_EQ(ring.resync_dropped(), 2u);  // only the pre-arming residue
  EXPECT_EQ(seen, (std::vector<uint8_t>{3}));
}

TEST(ShmRingTest, CrossForkDelivery) {
  // The whole point of the shm backend: a child-process producer, a
  // parent-process consumer, nothing shared but the segment.
  auto ring = std::make_unique<RingChannel>(64);
  ring->Share(SmallShm());
  constexpr int kMessages = 200;
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (int i = 0; i < kMessages; ++i) {
      StreamBatch batch;
      Tuple(&batch, static_cast<uint8_t>(i % 251));
      while (!ring->TryPush(std::move(batch))) {
        usleep(100);
        batch.clear();
        Tuple(&batch, static_cast<uint8_t>(i % 251));
      }
    }
    _exit(0);
  }
  int received = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  StreamBatch out;
  while (received < kMessages &&
         std::chrono::steady_clock::now() < deadline) {
    if (!ring->TryPop(&out)) {
      usleep(100);
      continue;
    }
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.payload(i)[0], static_cast<uint8_t>(received % 251));
      ++received;
    }
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  EXPECT_EQ(received, kMessages);
  EXPECT_EQ(ring->torn(), 0u);
}

RingCounters Counters(const RingChannel& ring) {
  return {ring.pushed(),          ring.popped(), ring.dropped(),
          ring.resync_dropped(), ring.high_water_mark(), ring.size()};
}

/// Pushes one batch of two tuples, both tagged `tag`.
void PushPair(RingChannel* ring, uint8_t tag) {
  StreamBatch batch;
  Tuple(&batch, tag);
  Tuple(&batch, tag);
  EXPECT_TRUE(ring->TryPush(std::move(batch)));
}

TEST(ShmRingTest, ShareKeepsQueuedBatchesAndCounters) {
  // Sharing moves the ring, it does not reset it: batches queued on the
  // heap pop first and in order, positions and counters carry over, and
  // the histograms keep their samples.
  RingChannel ring(16);
  for (uint8_t tag = 0; tag < 3; ++tag) PushPair(&ring, tag);
  const RingCounters queued = Counters(ring);
  EXPECT_EQ(queued, (RingCounters{6, 0, 0, 0, 3, 3}));
  ring.Share(SmallShm());
  ASSERT_TRUE(ring.is_shm());
  EXPECT_EQ(Counters(ring), queued);
  ring.Share(SmallShm());  // a no-op on a shared ring
  for (uint8_t tag = 3; tag < 5; ++tag) PushPair(&ring, tag);
  EXPECT_EQ(Counters(ring), (RingCounters{10, 0, 0, 0, 5, 5}));
  std::vector<uint8_t> seen;
  StreamBatch out;
  while (ring.TryPop(&out)) {
    for (size_t i = 0; i < out.size(); ++i) seen.push_back(out.payload(i)[0]);
  }
  EXPECT_EQ(seen, (std::vector<uint8_t>{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}));
  EXPECT_EQ(Counters(ring), (RingCounters{10, 10, 0, 0, 5, 0}));
  const telemetry::HistogramSnapshot sizes =
      ring.batch_size_histogram().Snapshot();
  EXPECT_EQ(sizes.count, 5u);
  EXPECT_EQ(sizes.sum, 10u);
  EXPECT_EQ(ring.occupancy_histogram().Snapshot().count, 5u);
}

TEST(ShmRingTest, ShareClampsCapacityBehindAHeapBacklog) {
  // A heap ring deeper than the shm ceiling keeps its whole backlog: the
  // clamp only bounds what the producer may add once it has drained.
  RingChannel ring(256);
  for (uint8_t tag = 0; tag < 100; ++tag) PushPair(&ring, tag);
  ring.Share(SmallShm(16));
  EXPECT_EQ(ring.capacity(), 16u);
  StreamBatch extra;
  Tuple(&extra, 200);
  EXPECT_FALSE(ring.TryPush(std::move(extra)));  // 100 queued, 16 allowed
  std::vector<uint8_t> seen;
  StreamBatch out;
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    seen.push_back(out.payload(0)[0]);
  }
  for (uint8_t tag = 100; tag < 106; ++tag) PushPair(&ring, tag);
  while (ring.TryPop(&out)) seen.push_back(out.payload(0)[0]);
  std::vector<uint8_t> expected(106);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(ring.popped(), ring.pushed());
}

TEST(ShmRingTest, ForkedConsumerPopsBatchesQueuedBeforeShare) {
  // A consumer forked after Share reads the heap backlog from its copy of
  // the parent's memory, then the segment; the tail it advances is the
  // parent's too.
  RingChannel ring(64);
  for (uint8_t tag = 0; tag < 3; ++tag) PushPair(&ring, tag);
  ring.Share(SmallShm());
  for (uint8_t tag = 3; tag < 5; ++tag) PushPair(&ring, tag);
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // No gtest assertions in the child: its exit code is the verdict.
    std::vector<uint8_t> seen;
    StreamBatch out;
    while (ring.TryPop(&out)) {
      for (size_t i = 0; i < out.size(); ++i) {
        seen.push_back(out.payload(i)[0]);
      }
    }
    const std::vector<uint8_t> expected{0, 0, 1, 1, 2, 2, 3, 3, 4, 4};
    _exit(seen == expected ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(ring.popped(), 10u);
  EXPECT_EQ(ring.size(), 0u);
}

// -- Supervisor unit tests ---------------------------------------------------

SupervisorOptions FastSupervision() {
  SupervisorOptions options;
  options.heartbeat_period_ms = 5;
  options.miss_threshold = 4;
  options.restart_budget = 2;
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 50;
  return options;
}

// A cooperative child loop: heartbeats and serves the mailbox until told
// to exit. Runs in a forked process — no gtest assertions in here.
void ObedientChild(WorkerControl* ctrl) {
  while (true) {
    ctrl->heartbeat.fetch_add(1, std::memory_order_relaxed);
    uint64_t arg = 0;
    uint64_t seq = 0;
    WorkerCommand cmd = ctrl->Pending(&arg, &seq);
    if (cmd == WorkerCommand::kExit) {
      ctrl->Ack(seq, 0);
      _exit(0);
    }
    if (cmd != WorkerCommand::kNone) ctrl->Ack(seq, arg);
    usleep(1000);
  }
}

TEST(SupervisorTest, RestartsKilledWorkerWithinBudget) {
  auto options = FastSupervision();
  Supervisor* self = nullptr;
  Supervisor supervisor(options, 2, [&self](size_t w, uint32_t) {
    ObedientChild(self->control(w));
  });
  self = &supervisor;
  ASSERT_TRUE(supervisor.Start().ok());
  ASSERT_EQ(supervisor.state(0), Supervisor::WorkerState::kRunning);
  pid_t first = supervisor.pid(0);
  ASSERT_GT(first, 0);

  kill(first, SIGKILL);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (supervisor.restarts() >= 1 &&
        supervisor.state(0) == Supervisor::WorkerState::kRunning &&
        supervisor.pid(0) != first) {
      break;
    }
    usleep(1000);
  }
  EXPECT_EQ(supervisor.state(0), Supervisor::WorkerState::kRunning);
  EXPECT_NE(supervisor.pid(0), first);
  EXPECT_GE(supervisor.restarts(), 1u);
  EXPECT_EQ(supervisor.control(0)->generation.load(), 2u);
  // The untouched worker was not restarted.
  EXPECT_EQ(supervisor.control(1)->generation.load(), 1u);
  supervisor.StopAll();
  EXPECT_EQ(supervisor.state(0), Supervisor::WorkerState::kStopped);
}

TEST(SupervisorTest, BudgetExhaustionDegrades) {
  // A child that dies instantly every incarnation must burn through the
  // budget and land in kDegraded — and StopAll must still return.
  auto options = FastSupervision();
  Supervisor supervisor(options, 1, [](size_t, uint32_t) { _exit(1); });
  ASSERT_TRUE(supervisor.Start().ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (supervisor.state(0) != Supervisor::WorkerState::kDegraded &&
         std::chrono::steady_clock::now() < deadline) {
    usleep(1000);
  }
  EXPECT_EQ(supervisor.state(0), Supervisor::WorkerState::kDegraded);
  EXPECT_EQ(supervisor.restarts(), options.restart_budget);
  EXPECT_EQ(supervisor.degraded_count(), 1u);
  supervisor.StopAll();
  EXPECT_EQ(supervisor.state(0), Supervisor::WorkerState::kDegraded);
}

TEST(SupervisorTest, HungWorkerKilledAndRestarted) {
  // A child that stops heartbeating but stays alive must be detected via
  // the shm heartbeat (waitpid never fires for a hang), killed, restarted.
  auto options = FastSupervision();
  Supervisor* self = nullptr;
  Supervisor supervisor(options, 1, [&self](size_t w, uint32_t generation) {
    if (generation == 1) {
      while (true) usleep(10000);  // alive, silent: a hang
    }
    ObedientChild(self->control(w));
  });
  self = &supervisor;
  ASSERT_TRUE(supervisor.Start().ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (supervisor.restarts() >= 1 &&
        supervisor.state(0) == Supervisor::WorkerState::kRunning) {
      break;
    }
    usleep(1000);
  }
  EXPECT_GE(supervisor.heartbeat_misses(), options.miss_threshold);
  EXPECT_GE(supervisor.restarts(), 1u);
  EXPECT_EQ(supervisor.state(0), Supervisor::WorkerState::kRunning);
  supervisor.StopAll();
}

TEST(SupervisorTest, SendCommandRoundTripsAndFailsOverWhenDegraded) {
  auto options = FastSupervision();
  Supervisor* self = nullptr;
  Supervisor supervisor(options, 1, [&self](size_t w, uint32_t) {
    ObedientChild(self->control(w));
  });
  self = &supervisor;
  ASSERT_TRUE(supervisor.Start().ok());
  uint64_t ack = 0;
  EXPECT_TRUE(supervisor.SendCommand(0, WorkerCommand::kDrain, 42, &ack));
  EXPECT_EQ(ack, 42u);  // ObedientChild echoes the arg

  // Degrade the worker (seal, then kill: sealing forbids restarts), then
  // verify SendCommand reports failure promptly instead of timing out.
  supervisor.BeginSeal();
  kill(supervisor.pid(0), SIGKILL);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (supervisor.state(0) != Supervisor::WorkerState::kDegraded &&
         std::chrono::steady_clock::now() < deadline) {
    usleep(1000);
  }
  ASSERT_EQ(supervisor.state(0), Supervisor::WorkerState::kDegraded);
  auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(supervisor.SendCommand(0, WorkerCommand::kDrain, 0, &ack));
  auto waited = std::chrono::steady_clock::now() - before;
  EXPECT_LT(waited, std::chrono::seconds(5));  // no full-timeout stall
  supervisor.StopAll();
}

TEST(SupervisorTest, CommandTimeoutLeavesNoLiveWorker) {
  // A worker that heartbeats but never acks is not hung to the monitor.
  // When SendCommand gives up on it, the caller adopts the worker's nodes
  // and drives its rings itself, so the worker must be dead by then: a
  // live child would be a second producer and consumer on SPSC rings.
  auto options = FastSupervision();
  Supervisor* self = nullptr;
  Supervisor supervisor(options, 1, [&self](size_t w, uint32_t) {
    WorkerControl* ctrl = self->control(w);
    while (true) {
      ctrl->heartbeat.fetch_add(1, std::memory_order_relaxed);
      usleep(1000);
    }
  });
  self = &supervisor;
  ASSERT_TRUE(supervisor.Start().ok());
  const pid_t pid = supervisor.pid(0);
  ASSERT_GT(pid, 0);
  uint64_t ack = 0;
  EXPECT_FALSE(supervisor.SendCommand(0, WorkerCommand::kDrain, 0, &ack));
  EXPECT_EQ(supervisor.state(0), Supervisor::WorkerState::kDegraded);
  EXPECT_EQ(supervisor.pid(0), -1);
  EXPECT_EQ(supervisor.degraded_count(), 1u);
  EXPECT_EQ(supervisor.restarts(), 0u);
  errno = 0;
  EXPECT_EQ(kill(pid, 0), -1) << "the timed-out worker is still alive";
  EXPECT_EQ(errno, ESRCH);
  supervisor.StopAll();
}

// -- Engine multi-process integration ----------------------------------------

constexpr char kAggQuery[] =
    "DEFINE { query_name agg; } "
    "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
    "GROUP BY time AS tb, destIP";

std::vector<net::Packet> MakeBatch(int n, uint32_t seed = 7) {
  gigascope::workload::TrafficConfig config;
  config.seed = seed;
  config.num_flows = 50;
  // Slow the offered load so the batch spans many sim-seconds: time
  // buckets close throughout the run and a steady stream of partials
  // crosses the LFTA->HFTA ring mid-run (what the fault tests trip on),
  // instead of everything landing in one bucket that only closes at seal.
  config.offered_bits_per_sec = 2e6;
  gigascope::workload::TrafficGenerator gen(config);
  std::vector<net::Packet> batch;
  for (int i = 0; i < n; ++i) batch.push_back(gen.Next());
  return batch;
}

// Runs kAggQuery over `batch`; workers=0 means the single-process pump.
// Returns sorted formatted rows.
std::vector<std::string> RunAgg(const std::vector<net::Packet>& batch,
                                size_t workers,
                                const FaultConfig& fault = FaultConfig{},
                                Engine** keep = nullptr) {
  EngineOptions options;
  options.fault = fault;
  static std::unique_ptr<Engine> engine_keeper;
  engine_keeper = std::make_unique<Engine>(options);
  Engine& engine = *engine_keeper;
  if (keep != nullptr) *keep = &engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(kAggQuery);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  auto sub = engine.Subscribe("agg", 8192);
  EXPECT_TRUE(sub.ok());
  if (workers > 0) {
    Status started = engine.StartProcesses(workers);
    EXPECT_TRUE(started.ok()) << started.ToString();
    EXPECT_TRUE(engine.processes_running());
  }
  for (const net::Packet& packet : batch) {
    EXPECT_TRUE(engine.InjectPacket("eth0", packet).ok());
  }
  engine.FlushAll();
  EXPECT_FALSE(engine.processes_running());  // FlushAll stopped the workers
  std::vector<std::string> rows;
  while (auto row = (*sub)->NextRow()) {
    std::string text;
    for (const Value& value : *row) text += value.ToString() + "\t";
    rows.push_back(text);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(EngineProcessTest, CleanRunMatchesSingleProcessByteExact) {
  // With no faults, the process split must be invisible: identical rows
  // from the in-process pump and from supervised worker processes.
  std::vector<net::Packet> batch = MakeBatch(4000);
  std::vector<std::string> reference = RunAgg(batch, 0);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(RunAgg(batch, 1), reference);
  EXPECT_EQ(RunAgg(batch, 2), reference);
}

TEST(EngineProcessTest, ProcessModeStatsFlow) {
  // Worker-side counters (tuples through the shm rings, node tuples_out)
  // must surface in the parent's gs_stats snapshot: the counters live in
  // shared memory, not the child heap.
  std::vector<net::Packet> batch = MakeBatch(2000);
  Engine* engine = nullptr;
  std::vector<std::string> rows = RunAgg(batch, 2, FaultConfig{}, &engine);
  ASSERT_FALSE(rows.empty());
  std::map<std::string, uint64_t> by_metric;
  for (const auto& sample : engine->telemetry().Snapshot()) {
    by_metric[sample.metric] += sample.value;
  }
  EXPECT_EQ(by_metric["worker_restarts"], 0u);
  EXPECT_EQ(by_metric["workers_degraded"], 0u);
  EXPECT_EQ(by_metric["torn_slots"], 0u);
  EXPECT_GT(by_metric["packets"], 0u);
}

// Parses kAggQuery output rows into (bucket-key -> count) so fault runs
// can be compared bucket-by-bucket against a clean reference.
std::map<std::string, uint64_t> CountsByGroup(
    const std::vector<std::string>& rows) {
  std::map<std::string, uint64_t> counts;
  for (const std::string& row : rows) {
    // Row format: tb \t destIP \t count \t sum \t
    size_t first = row.find('\t');
    size_t second = row.find('\t', first + 1);
    size_t third = row.find('\t', second + 1);
    std::string key = row.substr(0, second);
    counts[key] += std::stoull(row.substr(second + 1, third - second - 1));
  }
  return counts;
}

TEST(EngineProcessTest, WorkerCrashRecoversWithBoundedLoss) {
  // SIGKILL a worker mid-window (deterministic abort fault), let the
  // supervisor restart it while data is still flowing, and verify: the
  // run completes, a resync gap is recorded, and every group's count is
  // <= the clean run's count — the recovery may lose the resync gap, but
  // it must never duplicate or corrupt (no group exceeds the true
  // aggregate, no group appears that the clean run lacks).
  std::vector<net::Packet> batch = MakeBatch(6000);
  std::vector<std::string> reference = RunAgg(batch, 0);
  auto ref_counts = CountsByGroup(reference);

  FaultConfig fault;
  fault.kind = FaultConfig::Kind::kAbort;
  fault.worker = 0;
  fault.after_msgs = 10;
  EngineOptions options;
  options.punctuation_interval = 32;
  options.supervisor.heartbeat_period_ms = 5;
  options.fault = fault;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine.AddQuery(kAggQuery).ok());
  auto sub = engine.Subscribe("agg", 8192);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartProcesses(1).ok());

  // First half: enough traffic to trip the fault (10 messages into the
  // worker), then hold injection until the supervisor has restarted it —
  // the restart must happen mid-run, not be mopped up by the seal.
  size_t half = batch.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", batch[i]).ok());
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.supervisor()->restarts() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    engine.Pump();
    usleep(1000);
  }
  ASSERT_GE(engine.supervisor()->restarts(), 1u) << "no restart observed";
  for (size_t i = half; i < batch.size(); ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", batch[i]).ok());
  }
  engine.FlushAll();

  std::map<std::string, uint64_t> by_metric;
  for (const auto& sample : engine.telemetry().Snapshot()) {
    by_metric[sample.metric] += sample.value;
  }
  EXPECT_GE(by_metric["worker_restarts"], 1u);
  EXPECT_GE(by_metric["resync_gaps"], 1u);

  std::vector<std::string> rows;
  while (auto row = (*sub)->NextRow()) {
    std::string text;
    for (const Value& value : *row) text += value.ToString() + "\t";
    rows.push_back(text);
  }
  auto got_counts = CountsByGroup(rows);
  ASSERT_FALSE(got_counts.empty());
  uint64_t ref_total = 0;
  uint64_t got_total = 0;
  for (const auto& [key, count] : got_counts) {
    auto it = ref_counts.find(key);
    ASSERT_NE(it, ref_counts.end()) << "phantom group: " << key;
    EXPECT_LE(count, it->second) << "over-count in group " << key;
    got_total += count;
  }
  for (const auto& [key, count] : ref_counts) ref_total += count;
  EXPECT_LE(got_total, ref_total);
  EXPECT_GT(got_total, 0u);
}

TEST(EngineProcessTest, RestartBudgetExhaustionDegradesButCompletes) {
  // every=1 re-arms the abort in each incarnation: the worker can never
  // survive, the budget burns out mid-run, and the parent must adopt the
  // nodes and still finish — degraded, not hung, not crashed.
  std::vector<net::Packet> batch = MakeBatch(3000);
  FaultConfig fault;
  fault.kind = FaultConfig::Kind::kAbort;
  fault.worker = 0;
  fault.after_msgs = 10;
  fault.every_incarnation = true;
  EngineOptions options;
  options.punctuation_interval = 32;
  options.supervisor.heartbeat_period_ms = 5;
  options.supervisor.restart_budget = 2;
  options.supervisor.backoff_initial_ms = 5;
  options.fault = fault;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine.AddQuery(kAggQuery).ok());
  auto sub = engine.Subscribe("agg", 8192);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartProcesses(1).ok());

  size_t half = batch.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", batch[i]).ok());
  }
  // Hold until the budget is spent and the worker is degraded; the
  // remaining traffic then flows through the adopted in-process nodes.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.supervisor()->degraded_count() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    engine.Pump();
    usleep(1000);
  }
  ASSERT_GE(engine.supervisor()->degraded_count(), 1u);
  for (size_t i = half; i < batch.size(); ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", batch[i]).ok());
  }
  engine.FlushAll();

  std::map<std::string, uint64_t> by_metric;
  for (const auto& sample : engine.telemetry().Snapshot()) {
    by_metric[sample.metric] += sample.value;
  }
  EXPECT_GE(by_metric["workers_degraded"], 1u);
  EXPECT_EQ(by_metric["worker_restarts"], 2u);  // the whole budget
  EXPECT_GE(by_metric["resync_gaps"], 1u);

  std::vector<std::string> rows;
  while (auto row = (*sub)->NextRow()) {
    std::string text;
    for (const Value& value : *row) text += value.ToString() + "\t";
    rows.push_back(text);
  }
  // Adoption kept the pipeline alive: the run still produced output, and
  // adopted groups never over-count against the clean reference.
  EXPECT_FALSE(rows.empty());
  auto ref_counts = CountsByGroup(RunAgg(batch, 0));
  for (const auto& [key, count] : CountsByGroup(rows)) {
    auto it = ref_counts.find(key);
    ASSERT_NE(it, ref_counts.end());
    EXPECT_LE(count, it->second);
  }
}

TEST(EngineProcessTest, StalledWorkerDetectedByHeartbeat) {
  // A worker that stops heartbeating (but stays alive) must be caught by
  // the heartbeat monitor — stall forever, so only the SIGKILL+restart
  // path can finish the run.
  std::vector<net::Packet> batch = MakeBatch(4000);
  FaultConfig fault;
  fault.kind = FaultConfig::Kind::kStall;
  fault.worker = 0;
  fault.after_msgs = 40;
  fault.stall_ms = 0;  // forever: recovery requires the kill path
  EngineOptions options;
  options.punctuation_interval = 32;
  options.supervisor.heartbeat_period_ms = 5;
  options.supervisor.miss_threshold = 4;
  options.fault = fault;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine.AddQuery(kAggQuery).ok());
  auto sub = engine.Subscribe("agg", 8192);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartProcesses(1).ok());

  // First half trips the stall; hold further injection until the monitor
  // has caught it (SIGKILL + restart) so the replacement worker is the
  // one that sees the second half — that is what makes rows recoverable.
  const size_t half = batch.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", batch[i]).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.supervisor()->restarts() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    engine.Pump();
    usleep(1000);
  }
  ASSERT_GE(engine.supervisor()->restarts(), 1u) << "stall never detected";
  for (size_t i = half; i < batch.size(); ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", batch[i]).ok());
  }
  engine.FlushAll();
  std::map<std::string, uint64_t> by_metric;
  for (const auto& sample : engine.telemetry().Snapshot()) {
    by_metric[sample.metric] += sample.value;
  }
  EXPECT_GT(by_metric["heartbeat_misses"], 0u);
  EXPECT_GE(by_metric["worker_restarts"] + by_metric["workers_degraded"], 1u);
  int rows = 0;
  while ((*sub)->NextRow()) ++rows;
  EXPECT_GT(rows, 0);
}

TEST(EngineProcessTest, SlowWorkerIsNotDeclaredHung) {
  // Scheduling delay is not a fault. A worker that goes silent for 300 ms
  // (descheduled on a loaded host, or busy in one long seal) stays inside
  // the default hang window: it is neither killed nor adopted, and the
  // run stays byte-exact against single-process.
  std::vector<net::Packet> batch = MakeBatch(4000);
  std::vector<std::string> reference = RunAgg(batch, 0);
  ASSERT_FALSE(reference.empty());
  auto fault = ParseFaultSpec("stall:worker=0,after=40,ms=300");
  ASSERT_TRUE(fault.ok());
  Engine* engine = nullptr;
  std::vector<std::string> rows = RunAgg(batch, 1, *fault, &engine);
  std::map<std::string, uint64_t> by_metric;
  for (const auto& sample : engine->telemetry().Snapshot()) {
    by_metric[sample.metric] += sample.value;
  }
  EXPECT_GT(by_metric["heartbeat_misses"], 0u);  // the stall happened
  EXPECT_EQ(by_metric["worker_restarts"], 0u);
  EXPECT_EQ(by_metric["workers_degraded"], 0u);
  EXPECT_EQ(engine->registry().Total(&RingChannel::dropped), 0u);
  EXPECT_EQ(rows, reference);
}

TEST(EngineProcessTest, TornSlotFaultSkippedNotDelivered) {
  // Inject a torn slot into the LFTA->HFTA ring: the consumer worker must
  // skip it (counted) and the run must complete without corrupt rows.
  std::vector<net::Packet> batch = MakeBatch(3000);
  std::vector<std::string> reference = RunAgg(batch, 0);
  auto ref_counts = CountsByGroup(reference);

  Engine* engine = nullptr;
  FaultConfig fault;
  fault.kind = FaultConfig::Kind::kTorn;
  fault.stream = "agg_lfta";  // LFTA output stream feeding the HFTA
  fault.nth = 3;
  std::vector<std::string> rows = RunAgg(batch, 1, fault, &engine);

  std::map<std::string, uint64_t> by_metric;
  for (const auto& sample : engine->telemetry().Snapshot()) {
    by_metric[sample.metric] += sample.value;
  }
  // If the stream name matched a real ring, a torn slot was recorded and
  // skipped; either way no group may exceed the clean aggregate.
  for (const auto& [key, count] : CountsByGroup(rows)) {
    auto it = ref_counts.find(key);
    ASSERT_NE(it, ref_counts.end());
    EXPECT_LE(count, it->second);
  }
  EXPECT_FALSE(rows.empty());
}

TEST(EngineProcessTest, StopProcessesWithoutFlushIsSafe) {
  // StopProcesses (no drain) must kill workers, adopt their nodes, and
  // leave the engine in a state where single-process pumping still works.
  std::vector<net::Packet> batch = MakeBatch(2000);
  EngineOptions options;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine.AddQuery(kAggQuery).ok());
  auto sub = engine.Subscribe("agg", 8192);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartProcesses(2).ok());
  for (const net::Packet& packet : batch) {
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
  }
  engine.StopProcesses();
  EXPECT_FALSE(engine.processes_running());
  engine.StopProcesses();  // idempotent
  engine.FlushAll();       // drains whatever survived, in-process
  engine.FlushAll();       // idempotent after stop
  int rows = 0;
  while ((*sub)->NextRow()) ++rows;
  EXPECT_GT(rows, 0);
}

// Collects the cumulative metrics from a snapshot keyed by
// (entity, metric); used to pin monotonicity across worker restarts.
std::map<std::pair<std::string, std::string>, uint64_t> CumulativeByKey(
    const std::vector<telemetry::MetricSample>& samples) {
  static const char* kCumulative[] = {"tuples_in", "tuples_out", "packets",
                                      "ring_pushed", "ring_popped",
                                      "eval_errors"};
  std::map<std::pair<std::string, std::string>, uint64_t> out;
  for (const auto& sample : samples) {
    for (const char* metric : kCumulative) {
      if (sample.metric == metric) out[{sample.entity, sample.metric}] =
          sample.value;
    }
  }
  return out;
}

TEST(EngineProcessTest, StatsMonotoneAcrossWorkerRestart) {
  // Worker counters live in shared cells that each new incarnation keeps
  // counting in, so every cumulative counter stays monotone across an
  // abort-fault restart — a reader polling gs_stats through the crash
  // must never see a value go backwards.
  std::vector<net::Packet> batch = MakeBatch(6000);
  FaultConfig fault;
  fault.kind = FaultConfig::Kind::kAbort;
  fault.worker = 0;
  fault.after_msgs = 10;
  EngineOptions options;
  options.punctuation_interval = 32;
  options.supervisor.heartbeat_period_ms = 5;
  options.fault = fault;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine.AddQuery(kAggQuery).ok());
  auto sub = engine.Subscribe("agg", 8192);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(engine.StartProcesses(1).ok());

  size_t half = batch.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", batch[i]).ok());
  }
  auto before = CumulativeByKey(engine.telemetry().Snapshot());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.supervisor()->restarts() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    engine.Pump();
    usleep(1000);
  }
  ASSERT_GE(engine.supervisor()->restarts(), 1u) << "no restart observed";

  // Right after the restart: the replacement worker forked from the
  // parent, whose operator state is pristine; its counters must still
  // read at least what the dead incarnation had counted.
  auto after_restart = CumulativeByKey(engine.telemetry().Snapshot());
  for (const auto& [key, value] : before) {
    auto it = after_restart.find(key);
    ASSERT_NE(it, after_restart.end()) << key.first << "/" << key.second;
    EXPECT_GE(it->second, value)
        << key.first << "/" << key.second << " went backwards across restart";
  }
  // Mid-run, the HFTA node is still worker-owned: its gs_stats row is
  // tagged with the worker process, not the parent.
  bool saw_worker_proc = false;
  for (const auto& sample : engine.telemetry().Snapshot()) {
    if (sample.entity == "agg" && sample.metric == "tuples_out") {
      EXPECT_EQ(sample.proc, "w0");
      saw_worker_proc = true;
    }
  }
  EXPECT_TRUE(saw_worker_proc);

  for (size_t i = half; i < batch.size(); ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", batch[i]).ok());
  }
  engine.FlushAll();
  auto final_counts = CumulativeByKey(engine.telemetry().Snapshot());
  for (const auto& [key, value] : after_restart) {
    auto it = final_counts.find(key);
    ASSERT_NE(it, final_counts.end());
    EXPECT_GE(it->second, value)
        << key.first << "/" << key.second << " went backwards at seal";
  }
  // After the seal adopted the worker's nodes, ownership reverts to the
  // parent and every row reads as proc=rts again.
  for (const auto& sample : engine.telemetry().Snapshot()) {
    EXPECT_EQ(sample.proc, "rts") << sample.entity << "/" << sample.metric;
  }
  std::map<std::string, uint64_t> by_metric;
  for (const auto& sample : engine.telemetry().Snapshot()) {
    by_metric[sample.metric] += sample.value;
  }
  EXPECT_GE(by_metric["worker_restarts"], 1u);
}

TEST(EngineProcessTest, ProcessStatsTotalsMatchSingleProcess) {
  // The acceptance bar for the telemetry plane: under --processes the
  // aggregated per-node tuple counters must equal the single-process
  // run's byte for byte — the process split changes where counters are
  // written (shared cells vs heap), never what they count. Each (entity,
  // metric) also appears exactly once, tagged with its owning process, so
  // the per-proc rows trivially sum to the aggregate.
  std::vector<net::Packet> batch = MakeBatch(4000);
  Engine* single = nullptr;
  ASSERT_FALSE(RunAgg(batch, 0, FaultConfig{}, &single).empty());
  std::map<std::pair<std::string, std::string>, uint64_t> reference;
  for (const auto& sample : single->telemetry().Snapshot()) {
    if (sample.metric == "tuples_in" || sample.metric == "tuples_out") {
      reference[{sample.entity, sample.metric}] = sample.value;
    }
  }
  ASSERT_FALSE(reference.empty());

  Engine* multi = nullptr;
  ASSERT_FALSE(RunAgg(batch, 2, FaultConfig{}, &multi).empty());
  std::map<std::pair<std::string, std::string>, uint64_t> seen;
  for (const auto& sample : multi->telemetry().Snapshot()) {
    if (sample.metric != "tuples_in" && sample.metric != "tuples_out") {
      continue;
    }
    auto [it, inserted] = seen.emplace(
        std::make_pair(sample.entity, sample.metric), sample.value);
    EXPECT_TRUE(inserted) << "duplicate row for " << sample.entity << "/"
                          << sample.metric
                          << ": per-proc rows would double-count";
    (void)it;
  }
  for (const auto& [key, value] : reference) {
    auto it = seen.find(key);
    ASSERT_NE(it, seen.end()) << key.first << "/" << key.second;
    EXPECT_EQ(it->second, value)
        << key.first << "/" << key.second
        << " diverged between single-process and --processes runs";
  }
}

TEST(EngineProcessTest, ManyWorkerNodesCountInTheParent) {
  // The parent reads every worker node's counters however many nodes the
  // workers own: 100 split aggregates put 100 HFTA nodes, each with its
  // counters and histograms, on two worker processes.
  const std::vector<net::Packet> batch = MakeBatch(2000);
  const auto run = [&batch](size_t workers) {
    EngineOptions options;
    options.channel_capacity = 64;  // keeps 100 shm rings cheap
    Engine engine(options);
    engine.AddInterface("eth0");
    for (int q = 0; q < 100; ++q) {
      const std::string query =
          "DEFINE { query_name agg" + std::to_string(q) +
          "; } SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
          "GROUP BY time AS tb, destIP";
      EXPECT_TRUE(engine.AddQuery(query).ok()) << query;
    }
    if (workers > 0) {
      EXPECT_TRUE(engine.StartProcesses(workers).ok());
    }
    for (const net::Packet& packet : batch) {
      EXPECT_TRUE(engine.InjectPacket("eth0", packet).ok());
    }
    engine.FlushAll();
    std::map<std::pair<std::string, std::string>, uint64_t> counts;
    for (const auto& sample : engine.telemetry().Snapshot()) {
      if (sample.metric == "tuples_in" || sample.metric == "tuples_out") {
        counts[{sample.entity, sample.metric}] = sample.value;
      }
    }
    return counts;
  };
  const auto single = run(0);
  const auto processes = run(2);
  EXPECT_GT(single.at({"agg0", "tuples_in"}), 0u);
  EXPECT_GT(single.at({"agg99", "tuples_in"}), 0u);
  ASSERT_EQ(processes.size(), single.size());
  for (const auto& [key, value] : single) {
    EXPECT_EQ(processes.at(key), value)
        << key.first << "/" << key.second
        << " diverged between single-process and --processes runs";
  }
}

/// Drains `sub` into sorted rows formatted as RunAgg formats them.
std::vector<std::string> SortedRows(TupleSubscription* sub) {
  std::vector<std::string> rows;
  while (auto row = sub->NextRow()) {
    std::string text;
    for (const Value& value : *row) text += value.ToString() + "\t";
    rows.push_back(text);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

constexpr char kTcpQuery[] =
    "DEFINE { query_name tcp; } "
    "SELECT time, len FROM eth0.PKT WHERE protocol = 6";

TEST(EngineProcessTest, SharesExactlyTheRingsWorkersTouch) {
  // StartProcesses shares the rings a worker node reads or publishes
  // into: the split aggregate's LFTA->HFTA ring and its output ring.
  // Every other ring keeps both ends in the parent and stays on the heap:
  // an LFTA-only query's output, gs_stats. The raw packet stream has no
  // ring at all: its source feeds both LFTAs in place.
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine.AddQuery(kTcpQuery).ok());
  ASSERT_TRUE(engine.AddQuery(kAggQuery).ok());
  std::vector<std::unique_ptr<TupleSubscription>> subs;
  for (const char* stream : {"tcp", "agg", "gs_stats"}) {
    auto sub = engine.Subscribe(stream, 8192);
    ASSERT_TRUE(sub.ok()) << stream;
    subs.push_back(std::move(sub).value());
  }
  ASSERT_TRUE(engine.StartProcesses(1).ok());
  for (const char* stream : {"agg_lfta", "agg", "tcp", "gs_stats"}) {
    EXPECT_FALSE(engine.registry().Subscribers(stream).empty()) << stream;
  }
  EXPECT_TRUE(engine.registry().Subscribers("eth0.PKT").empty());
  for (const std::string& stream : engine.registry().StreamNames()) {
    const bool crosses = stream == "agg_lfta" || stream == "agg";
    for (const rts::Subscription& ring :
         engine.registry().Subscribers(stream)) {
      EXPECT_EQ(ring->is_shm(), crosses) << stream;
    }
  }
  engine.StopProcesses();
}

TEST(EngineProcessTest, OutputQueuedBeforeStartIsDelivered) {
  // Rows already waiting in a ring when StartProcesses shares it stay in
  // its heap slots and are read before the ones the worker publishes.
  const std::vector<net::Packet> batch = MakeBatch(4000);
  const std::vector<std::string> reference = RunAgg(batch, 0);
  ASSERT_FALSE(reference.empty());
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine.AddQuery(kAggQuery).ok());
  auto sub = engine.Subscribe("agg", 8192);
  ASSERT_TRUE(sub.ok());
  const size_t half = batch.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", batch[i]).ok());
  }
  engine.PumpUntilIdle();
  ASSERT_GT((*sub)->pending(), 0u);  // output queued on the heap
  ASSERT_TRUE(engine.StartProcesses(1).ok());
  for (size_t i = half; i < batch.size(); ++i) {
    ASSERT_TRUE(engine.InjectPacket("eth0", batch[i]).ok());
  }
  engine.FlushAll();
  EXPECT_EQ(engine.supervisor()->degraded_count(), 0u);
  EXPECT_EQ(SortedRows(sub->get()), reference);
}

TEST(EngineProcessTest, WorkerRingsShowHistogramsInTheParent) {
  // A shared ring keeps its producer-written histograms in its segment,
  // so the parent sees the pushes a worker made: on every ring the
  // batch-size samples sum to the messages pushed, with one occupancy
  // sample per batch.
  Engine* engine = nullptr;
  ASSERT_FALSE(RunAgg(MakeBatch(2000), 1, FaultConfig{}, &engine).empty());
  EXPECT_GT(engine->registry().Total(&RingChannel::pushed, "agg"), 0u);
  for (const std::string& stream : engine->registry().StreamNames()) {
    for (const rts::Subscription& ring :
         engine->registry().Subscribers(stream)) {
      const telemetry::HistogramSnapshot sizes =
          ring->batch_size_histogram().Snapshot();
      EXPECT_EQ(sizes.sum, ring->pushed()) << stream;
      EXPECT_EQ(ring->occupancy_histogram().Snapshot().count, sizes.count)
          << stream;
    }
  }
}

TEST(EngineProcessTest, TornFaultOnAStreamNoWorkerTouchesIsRefused) {
  // Only a shared ring has slots to tear. eth0.PKT feeds the LFTA on the
  // inject thread, so its rings stay on the heap: StartProcesses refuses
  // the fault before any worker starts, and the engine runs on in single
  // mode. A stream that does not exist is refused the same way.
  const std::vector<net::Packet> batch = MakeBatch(2000);
  const std::vector<std::string> reference = RunAgg(batch, 0);
  ASSERT_FALSE(reference.empty());
  for (const char* stream : {"nosuchstream", "eth0.PKT"}) {
    EngineOptions options;
    options.fault.kind = FaultConfig::Kind::kTorn;
    options.fault.stream = stream;
    Engine engine(options);
    engine.AddInterface("eth0");
    ASSERT_TRUE(engine.AddQuery(kAggQuery).ok());
    auto sub = engine.Subscribe("agg", 8192);
    ASSERT_TRUE(sub.ok());
    const Status started = engine.StartProcesses(1);
    EXPECT_EQ(started.code(), Status::Code::kInvalidArgument);
    EXPECT_NE(started.message().find(stream), std::string::npos)
        << started.ToString();
    EXPECT_FALSE(engine.processes_running());
    EXPECT_EQ(engine.supervisor(), nullptr);
    for (const net::Packet& packet : batch) {
      ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
    }
    engine.FlushAll();
    EXPECT_EQ(SortedRows(sub->get()), reference) << stream;
  }
}

/// Counts the tuples of its input and emits the count as its one row at
/// Flush, after a sleep longer than the hang window of the test below:
/// one long call, silent throughout, inside a kFlushNode command.
class SlowSealCounter : public rts::QueryNode {
 public:
  static gsql::StreamSchema Schema() {
    return gsql::StreamSchema(
        "tcp_count", gsql::StreamKind::kStream,
        {{"count", gsql::DataType::kUint, gsql::OrderSpec::None()}});
  }

  SlowSealCounter(rts::Subscription input, rts::StreamRegistry* registry)
      : QueryNode("tcp_count"), input_(std::move(input)), registry_(registry) {
    RegisterInput(input_);
  }

  size_t Poll(size_t budget) override {
    size_t processed = 0;
    while (processed < budget && input_->TryPop(&batch_)) {
      for (const rts::BatchItem& item : batch_.items()) {
        ++processed;
        if (item.kind == MessageKind::kTuple) ++count_;
      }
    }
    return processed;
  }

  void Flush() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    StreamBatch out;
    out.AppendTuple(rts::TupleCodec(Schema()), {Value::Uint(count_)});
    registry_->PublishBatch(name(), std::move(out));
  }

 private:
  rts::Subscription input_;
  rts::StreamRegistry* registry_;
  StreamBatch batch_;
  uint64_t count_ = 0;
};

TEST(EngineProcessTest, LongSealIsNotAHang) {
  // A worker serving a command is busy, not hung: its node's Flush()
  // stays silent for three hang windows, and the worker must be neither
  // killed nor adopted (that would flush a pristine copy of the node and
  // lose the count). The miss is still counted.
  const std::vector<net::Packet> batch = MakeBatch(2000);
  const auto run = [&batch](size_t workers, uint64_t* misses,
                            uint64_t* degraded) {
    EngineOptions options;
    options.supervisor.heartbeat_period_ms = 5;
    options.supervisor.miss_threshold = 4;  // a 20 ms hang window
    Engine engine(options);
    engine.AddInterface("eth0");
    EXPECT_TRUE(engine.AddQuery(kTcpQuery).ok());
    EXPECT_TRUE(
        engine.registry().DeclareStream(SlowSealCounter::Schema()).ok());
    auto input = engine.registry().Subscribe("tcp", 8192);
    EXPECT_TRUE(input.ok());
    EXPECT_TRUE(engine
                    .AddNode(std::make_unique<SlowSealCounter>(
                        *input, &engine.registry()))
                    .ok());
    auto sub = engine.Subscribe("tcp_count", 16);
    EXPECT_TRUE(sub.ok());
    if (workers > 0) {
      EXPECT_TRUE(engine.StartProcesses(workers).ok());
    }
    for (const net::Packet& packet : batch) {
      EXPECT_TRUE(engine.InjectPacket("eth0", packet).ok());
    }
    engine.FlushAll();
    if (workers > 0) {
      *misses = engine.supervisor()->heartbeat_misses();
      *degraded = engine.supervisor()->degraded_count();
    }
    const std::optional<rts::Row> row = (*sub)->NextRow();
    return row.has_value() ? (*row)[0].uint_value() : uint64_t{0};
  };
  uint64_t misses = 0;
  uint64_t degraded = 0;
  const uint64_t single = run(0, &misses, &degraded);
  ASSERT_GT(single, 0u);
  EXPECT_EQ(run(1, &misses, &degraded), single);
  EXPECT_GT(misses, 0u);  // the seal was silent
  EXPECT_EQ(degraded, 0u);
}

TEST(EngineProcessTest, ThreadsAndProcessesAreExclusive) {
  EngineOptions options;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine.AddQuery(kAggQuery).ok());
  ASSERT_TRUE(engine.StartProcesses(1).ok());
  EXPECT_EQ(engine.StartThreads(2).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(engine.AddQuery("DEFINE { query_name late; } "
                            "SELECT time FROM eth0.PKT")
                .status()
                .code(),
            Status::Code::kFailedPrecondition);
  engine.StopProcesses();
}

TEST(EngineProcessTest, WorkerDeliversItsParkedPunctuationOnceDrained) {
  // The HFTA's output ring to a one-slot subscriber fills, so the bound of
  // the next window it closes parks in the worker process. Once the parent
  // drains the ring, that bound must arrive with no further input and no
  // FlushAll.
  const auto tcp_packet = [](SimTime timestamp) {
    net::TcpPacketSpec spec;
    spec.src_addr = 0xac100001;
    spec.dst_addr = 0x0a000001;
    spec.src_port = 40000;
    spec.dst_port = 80;
    spec.payload = "x";
    net::Packet packet;
    packet.bytes = net::BuildTcpPacket(spec);
    packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
    packet.timestamp = timestamp;
    return packet;
  };
  const auto wait_for = [](const std::function<bool()>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  Engine engine;
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb")
                  .ok());
  auto schema = engine.registry().GetSchema("agg");
  ASSERT_TRUE(schema.ok());
  auto ring = engine.registry().Subscribe("agg", /*capacity=*/1);
  ASSERT_TRUE(ring.ok());
  ASSERT_TRUE(engine.StartProcesses(1).ok());
  ASSERT_TRUE((*ring)->is_shm());
  // Second 1's heartbeat closes bucket 0: its row and bound fill the ring.
  ASSERT_TRUE(engine.InjectPacket("eth0", tcp_packet(kNanosPerSecond / 2))
                  .ok());
  ASSERT_TRUE(engine.InjectHeartbeat("eth0", kNanosPerSecond).ok());
  ASSERT_TRUE(wait_for([&] { return (*ring)->pushed() == 2; }));
  // Second 2's closes bucket 1 on the full ring: its row drops, the bound
  // parks.
  ASSERT_TRUE(
      engine.InjectPacket("eth0", tcp_packet(3 * kNanosPerSecond / 2)).ok());
  ASSERT_TRUE(engine.InjectHeartbeat("eth0", 2 * kNanosPerSecond).ok());
  ASSERT_TRUE(wait_for([&] { return (*ring)->dropped() == 1; }));
  StreamBatch batch;
  ASSERT_TRUE((*ring)->TryPop(&batch));
  EXPECT_EQ(batch.size(), 2u);

  ASSERT_TRUE(wait_for([&] { return (*ring)->TryPop(&batch); }));
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(batch.item(0).kind, MessageKind::kPunctuation);
  const uint8_t* bound = rts::FindBound(batch.payload(0), *schema, 0);
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(LoadLe64(bound), 2u);
  EXPECT_EQ(engine.supervisor()->restarts(), 0u);
  engine.StopProcesses();
}

}  // namespace
}  // namespace gigascope::core
