#ifndef GIGASCOPE_CORE_SUPERVISOR_H_
#define GIGASCOPE_CORE_SUPERVISOR_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/worker.h"
#include "rts/shm.h"

namespace gigascope::core {

/// Supervision knobs for the multi-process HFTA mode.
struct SupervisorOptions {
  /// Monitor tick period and expected heartbeat cadence, wall-clock ms.
  uint64_t heartbeat_period_ms = 20;
  /// Consecutive stale monitor ticks before a live-but-silent worker is
  /// declared hung and SIGKILLed (then restarted like a crash). The
  /// default window is 2 s (100 x 20 ms): a worker that is descheduled on
  /// a loaded host is slow, not hung, and killing it loses its rows to the
  /// resync gap. Ticks while a command is in flight count as misses but
  /// never toward this threshold: a worker busy in one long seal is bound
  /// by SendCommand's deadline instead.
  uint32_t miss_threshold = 100;
  /// Restarts allowed per worker before it is declared degraded and its
  /// nodes are adopted by the parent. 0 = never restart.
  uint32_t restart_budget = 3;
  /// Exponential-backoff window before each restart: initial delay, then
  /// x2 per consecutive restart, capped at backoff_max_ms.
  uint64_t backoff_initial_ms = 10;
  uint64_t backoff_max_ms = 1000;
};

/// Forks and babysits the HFTA worker processes (the paper's §4 model: each
/// HFTA is "an application process" fed through shared memory). Liveness is
/// watched two ways — waitpid for death, a shm heartbeat counter for hangs —
/// and a failed worker is re-forked under exponential backoff until its
/// restart budget runs out, at which point it is declared degraded and the
/// engine adopts its nodes in-process.
///
/// Because the parent never runs HFTA operator code, a re-fork inherits the
/// operators' pristine copy-on-write state: restart *is* recovery, and the
/// restarted incarnation resynchronizes its input rings at the next
/// punctuation boundary (RingChannel::BeginResync).
///
/// As a WorkerPool it is the engine's process backend: Call is
/// SendCommand, a degraded or stopped worker is Gone, and node state does
/// not survive StopAll.
class Supervisor : public WorkerPool {
 public:
  enum class WorkerState : uint32_t {
    kStopped = 0,   // never started, or StopAll completed
    kRunning,       // child process alive (as far as the monitor knows)
    kBackoff,       // died; restart scheduled after the backoff window
    kDegraded,      // restart budget exhausted (or died while sealing)
  };

  /// Runs the worker's pump loop inside the child; must not return state
  /// through memory (the child is a separate process) and must not throw.
  /// The child _exits(0) when this returns.
  using ChildMain = std::function<void(size_t worker, uint32_t generation)>;

  Supervisor(const SupervisorOptions& options, size_t workers,
             ChildMain child_main);
  ~Supervisor() override;

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Forks every worker and starts the monitor thread. Call once, from the
  /// thread that owns engine setup, before any data flows.
  Status Start() override;

  /// Enters the drain phase: no further restarts. Workers already waiting
  /// in backoff degrade immediately; a worker that dies after this call
  /// degrades instead of restarting, so FlushAll never waits on a respawn.
  void BeginSeal() override;

  /// Posts a command and waits for the ack. Returns false — without
  /// blocking for the full timeout — when the worker is (or becomes)
  /// degraded or stopped, so the caller can fail over to in-process
  /// execution of that worker's nodes. A worker that stays unanswering
  /// for five hang windows (5 x heartbeat_period_ms x miss_threshold) is
  /// SIGKILLed, reaped and degraded before the false return, so the
  /// caller never shares the worker's rings with a live child.
  bool SendCommand(size_t worker, WorkerCommand command, uint64_t arg,
                   uint64_t* ack_value);
  bool Call(size_t worker, WorkerCommand command, uint64_t arg,
            uint64_t* ack) override {
    return SendCommand(worker, command, arg, ack);
  }
  bool Gone(size_t worker) const override {
    const WorkerState st = state(worker);
    return st == WorkerState::kDegraded || st == WorkerState::kStopped;
  }
  bool keeps_state() const override { return false; }
  uint32_t restarts(size_t worker) const override {
    return restarts_used(worker);
  }

  /// Stops everything: best-effort kExit commands, SIGKILL for stragglers,
  /// reaps all children, joins the monitor thread. Idempotent; degraded
  /// workers stay marked degraded for introspection.
  void StopAll() override;

  size_t workers() const { return slots_.size(); }
  WorkerState state(size_t worker) const {
    return slots_[worker]->state.load(std::memory_order_acquire);
  }
  WorkerControl* control(size_t worker) const { return &controls_[worker]; }
  pid_t pid(size_t worker) const {
    return slots_[worker]->pid.load(std::memory_order_relaxed);
  }

  uint64_t restarts() const {
    return restarts_.load(std::memory_order_relaxed);
  }
  /// Restarts consumed by one worker (for ANALYZE process placement).
  uint32_t restarts_used(size_t worker) const {
    return slots_[worker]->restarts_used.load(std::memory_order_relaxed);
  }
  uint64_t heartbeat_misses() const {
    return heartbeat_misses_.load(std::memory_order_relaxed);
  }
  uint64_t degraded_count() const {
    return degraded_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<pid_t> pid{-1};
    std::atomic<WorkerState> state{WorkerState::kStopped};
    // Monitor-thread bookkeeping (mutated under mutex_; restarts_used is
    // atomic so the ANALYZE path can read it without taking the monitor's
    // mutex).
    std::atomic<uint32_t> restarts_used{0};
    uint64_t backoff_ms = 0;
    int64_t restart_at_ns = 0;
    uint64_t last_beat = 0;
    uint32_t stale_ticks = 0;
  };

  /// Forks worker `w` (mutex_ held). The child never returns.
  void SpawnLocked(size_t w);
  /// Books one worker death: schedules a backoff restart, or degrades it
  /// when the budget is spent / the supervisor is sealing (mutex_ held).
  void HandleDeathLocked(size_t w);
  /// A command timed out: kills and reaps a running worker, and degrades
  /// it (or one waiting in backoff) so it is never restarted.
  void DegradeUnresponsive(size_t w);
  void MonitorLoop();

  SupervisorOptions options_;
  ChildMain child_main_;
  std::unique_ptr<rts::ShmSegment> shm_;
  WorkerControl* controls_ = nullptr;
  std::vector<std::unique_ptr<Slot>> slots_;

  std::mutex mutex_;  // guards state transitions + spawn/reap
  std::thread monitor_;
  std::atomic<bool> stop_monitor_{false};
  std::atomic<bool> sealing_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<uint64_t> restarts_{0};
  std::atomic<uint64_t> heartbeat_misses_{0};
  std::atomic<uint64_t> degraded_count_{0};
};

}  // namespace gigascope::core

#endif  // GIGASCOPE_CORE_SUPERVISOR_H_
