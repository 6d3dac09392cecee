#ifndef GIGASCOPE_CORE_WORKER_H_
#define GIGASCOPE_CORE_WORKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/fault.h"
#include "rts/node.h"
#include "telemetry/histogram.h"

namespace gigascope::core {

/// Parent -> worker requests carried through a worker's mailbox.
enum class WorkerCommand : uint32_t {
  kNone = 0,
  /// Flush the worker-local node at index `arg` of the worker's group and
  /// drain; ack_value = messages the worker has processed in total.
  kFlushNode = 1,
  /// Pump the worker's nodes until idle; ack_value as for kFlushNode.
  kDrain = 2,
  /// Acknowledge and leave the worker loop.
  kExit = 3,
};

/// One worker's control block: a heartbeat and a command mailbox. Thread
/// workers keep it on the heap; process workers in shared memory mapped
/// before any fork, so parent and every child incarnation address the same
/// cache lines.
///
/// Single-writer disciplines: `heartbeat`, `msgs_processed`, `fault_fired`,
/// `ack_seq`, and `ack_value` are written only by the (one live) worker;
/// `generation`, `cmd_seq`, `cmd_code`, and `cmd_arg` only by the parent.
/// Mailbox protocol: the parent writes cmd_code/cmd_arg then publishes by
/// storing cmd_seq (release); the worker observes cmd_seq != ack_seq,
/// executes, writes ack_value, and publishes by storing ack_seq = cmd_seq
/// (release). A command posted to a worker process that dies before
/// acking is re-observed by the restarted incarnation — or failed over by
/// the parent once the worker degrades.
struct WorkerControl {
  alignas(64) std::atomic<uint64_t> heartbeat{0};
  std::atomic<uint64_t> msgs_processed{0};
  std::atomic<uint32_t> generation{0};
  /// FaultInjector's fire-once-per-run latch (survives restarts).
  std::atomic<uint32_t> fault_fired{0};
  alignas(64) std::atomic<uint64_t> cmd_seq{0};
  std::atomic<uint32_t> cmd_code{0};
  std::atomic<uint64_t> cmd_arg{0};
  alignas(64) std::atomic<uint64_t> ack_seq{0};
  std::atomic<uint64_t> ack_value{0};

  /// Parent side: publishes a command; returns its sequence number.
  uint64_t Post(WorkerCommand command, uint64_t arg);
  /// Parent side: whether command `seq` has been acknowledged; if so and
  /// `value` is non-null, stores the worker's ack value there.
  bool Acked(uint64_t seq, uint64_t* value) const;
  /// Worker side: the pending command, or kNone. On a command, *arg and
  /// *seq are filled; the worker must Ack(seq) exactly once after
  /// executing it.
  WorkerCommand Pending(uint64_t* arg, uint64_t* seq);
  void Ack(uint64_t seq, uint64_t value);
  /// Worker side: one liveness beat.
  void Beat() {
    heartbeat.store(heartbeat.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  }
};

/// The share of the node network one worker owns: only that worker polls
/// these nodes (the rings' single-consumer rule) and publishes into their
/// output streams, until the parent adopts them. Each node's writer
/// retries its own parked punctuations when its poll flushes it.
struct WorkerGroup {
  std::vector<rts::QueryNode*> nodes;
};

/// The loop every worker runs, on a thread or in a forked process: beat,
/// serve the mailbox, poll the group's nodes, and after a short idle spin
/// call `idle_wait` (a thread parks on its waker, a process sleeps).
/// Returns after acking kExit. `faults` (nullable) injects the configured
/// abort or stall.
void RunWorkerLoop(WorkerControl* control, const WorkerGroup& group,
                   size_t poll_budget, FaultInjector* faults,
                   const std::function<void()>& idle_wait);

/// A set of workers, each pumping one WorkerGroup off the inject thread.
/// The engine drives every backend through this interface alone: start,
/// commands (per-node flush, drain), liveness checks, seal, and stop.
/// Single-threaded execution is zero workers and no pool.
class WorkerPool {
 public:
  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  virtual ~WorkerPool() = default;

  /// Starts every worker. Call once, after the groups are final.
  virtual Status Start() = 0;

  /// Runs `command` inside worker `worker` and waits for its ack (stored
  /// in *ack when non-null). Returns false when the worker cannot serve
  /// it — it is gone — so the caller adopts its nodes.
  virtual bool Call(size_t worker, WorkerCommand command, uint64_t arg,
                    uint64_t* ack) = 0;

  /// Whether `worker` no longer runs its nodes (failed for good, or
  /// stopped): the caller adopts them.
  virtual bool Gone(size_t worker) const = 0;

  /// Enters the end-of-stream drain. A process pool stops replacing
  /// workers that fail; a thread pool stops its threads, handing every
  /// node back whole, so the seal runs on the calling thread alone —
  /// deterministic, and without command round trips that busy-wait on
  /// both sides.
  virtual void BeginSeal() = 0;

  /// Stops every worker without draining. Idempotent.
  virtual void StopAll() = 0;

  /// Whether operator state survives StopAll: a thread's nodes live in
  /// this process, a killed process takes its partial windows with it
  /// (the adopter must resynchronize their inputs).
  virtual bool keeps_state() const = 0;

  /// Restarts `worker` has consumed.
  virtual uint32_t restarts(size_t worker) const = 0;
};

/// Workers as threads of this process (the threaded pump mode, DESIGN.md
/// §9). An idle thread parks on a waker wired to its nodes' input rings;
/// a push wakes it. Threads are never restarted, and take no commands:
/// BeginSeal stops them, so every node is adopted before a seal's first
/// command.
class ThreadPool : public WorkerPool {
 public:
  /// `park_ns[w]` (non-null, outliving the pool) records worker w's park
  /// times.
  ThreadPool(std::vector<WorkerGroup> groups, size_t poll_budget,
             std::vector<telemetry::Histogram*> park_ns);
  ~ThreadPool() override;

  Status Start() override;
  /// Never serves a command: only a stopped (gone) worker is called.
  bool Call(size_t worker, WorkerCommand command, uint64_t arg,
            uint64_t* ack) override;
  bool Gone(size_t) const override { return stopped_; }
  void BeginSeal() override { StopAll(); }
  void StopAll() override;
  bool keeps_state() const override { return true; }
  uint32_t restarts(size_t) const override { return 0; }

 private:
  struct Worker {
    WorkerGroup group;
    telemetry::Histogram* park_ns = nullptr;
    WorkerControl control;
    std::shared_ptr<rts::ConsumerWaker> waker;
    std::thread thread;
  };

  size_t poll_budget_;
  bool stopped_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace gigascope::core

#endif  // GIGASCOPE_CORE_WORKER_H_
