#include "core/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/logging.h"
#include "telemetry/histogram.h"

namespace gigascope::core {

namespace {

constexpr int64_t kMilli = 1000 * 1000;

/// Reaps `pid` without blocking. Returns true when the child is gone
/// (exited, signalled, or already reaped elsewhere — ECHILD).
bool TryReap(pid_t pid) {
  int status = 0;
  const pid_t r = waitpid(pid, &status, WNOHANG);
  return r == pid || (r < 0 && errno == ECHILD);
}

}  // namespace

Supervisor::Supervisor(const SupervisorOptions& options, size_t workers,
                       ChildMain child_main)
    : options_(options), child_main_(std::move(child_main)) {
  GS_CHECK(workers > 0);
  shm_ = rts::ShmSegment::Create(workers * sizeof(WorkerControl));
  controls_ = shm_->As<WorkerControl>(0);
  for (size_t w = 0; w < workers; ++w) new (&controls_[w]) WorkerControl();
  slots_.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

Supervisor::~Supervisor() { StopAll(); }

Status Supervisor::Start() {
  if (started_) {
    return Status::FailedPrecondition("Supervisor::Start called twice");
  }
  started_ = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t w = 0; w < slots_.size(); ++w) SpawnLocked(w);
  }
  monitor_ = std::thread([this] { MonitorLoop(); });
  return Status::Ok();
}

void Supervisor::SpawnLocked(size_t w) {
  WorkerControl* ctrl = &controls_[w];
  const uint32_t generation =
      ctrl->generation.load(std::memory_order_relaxed) + 1;
  ctrl->generation.store(generation, std::memory_order_relaxed);
  Slot& slot = *slots_[w];
  slot.last_beat = ctrl->heartbeat.load(std::memory_order_relaxed);
  slot.stale_ticks = 0;
  const pid_t pid = fork();
  if (pid == 0) {
    // Child. Run the pump loop and leave via _exit: no atexit handlers, no
    // static destructors — the parent owns every shared resource, and the
    // child's heap copies just vanish with the address space.
    child_main_(w, generation);
    _exit(0);
  }
  GS_CHECK(pid > 0);  // fork failure is unrecoverable here
  slot.pid.store(pid, std::memory_order_relaxed);
  slot.state.store(WorkerState::kRunning, std::memory_order_release);
}

void Supervisor::HandleDeathLocked(size_t w) {
  Slot& slot = *slots_[w];
  slot.pid.store(-1, std::memory_order_relaxed);
  if (sealing_.load(std::memory_order_relaxed) ||
      slot.restarts_used.load(std::memory_order_relaxed) >=
          options_.restart_budget) {
    slot.state.store(WorkerState::kDegraded, std::memory_order_release);
    degraded_count_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot.restarts_used.fetch_add(1, std::memory_order_relaxed);
  restarts_.fetch_add(1, std::memory_order_relaxed);
  slot.backoff_ms = slot.backoff_ms == 0
                        ? options_.backoff_initial_ms
                        : std::min(slot.backoff_ms * 2, options_.backoff_max_ms);
  slot.restart_at_ns = telemetry::MonotonicNowNs() +
                       static_cast<int64_t>(slot.backoff_ms) * kMilli;
  slot.state.store(WorkerState::kBackoff, std::memory_order_release);
}

void Supervisor::MonitorLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_monitor_) {
    const int64_t now = telemetry::MonotonicNowNs();
    for (size_t w = 0; w < slots_.size(); ++w) {
      Slot& slot = *slots_[w];
      const WorkerState state =
          slot.state.load(std::memory_order_relaxed);
      if (state == WorkerState::kRunning) {
        const pid_t pid = slot.pid.load(std::memory_order_relaxed);
        if (TryReap(pid)) {
          HandleDeathLocked(w);
          continue;
        }
        const uint64_t beat =
            controls_[w].heartbeat.load(std::memory_order_relaxed);
        if (beat != slot.last_beat) {
          slot.last_beat = beat;
          slot.stale_ticks = 0;
          continue;
        }
        heartbeat_misses_.fetch_add(1, std::memory_order_relaxed);
        // A worker serving a command may be in one long node Flush():
        // busy, not hung. SendCommand's deadline bounds that wait.
        const bool serving =
            controls_[w].cmd_seq.load(std::memory_order_relaxed) !=
            controls_[w].ack_seq.load(std::memory_order_relaxed);
        slot.stale_ticks = serving ? 0 : slot.stale_ticks + 1;
        if (!serving && slot.stale_ticks >= options_.miss_threshold) {
          // Alive but silent: hung, stalled, or spinning uselessly. Kill
          // it and take the crash path — restart is the same recovery.
          kill(pid, SIGKILL);
          waitpid(pid, nullptr, 0);
          HandleDeathLocked(w);
        }
      } else if (state == WorkerState::kBackoff) {
        if (sealing_.load(std::memory_order_relaxed)) {
          slot.state.store(WorkerState::kDegraded,
                           std::memory_order_release);
          degraded_count_.fetch_add(1, std::memory_order_relaxed);
        } else if (now >= slot.restart_at_ns) {
          SpawnLocked(w);
        }
      }
    }
    // The tick's wait releases mutex_ and ends early when StopAll asks.
    monitor_wake_.wait_for(
        lock, std::chrono::milliseconds(options_.heartbeat_period_ms),
        [this] { return stop_monitor_; });
  }
}

void Supervisor::DegradeUnresponsive(size_t w) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = *slots_[w];
  const WorkerState st = slot.state.load(std::memory_order_relaxed);
  if (st == WorkerState::kRunning) {
    const pid_t pid = slot.pid.load(std::memory_order_relaxed);
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  } else if (st != WorkerState::kBackoff) {
    return;  // already degraded or stopped
  }
  slot.pid.store(-1, std::memory_order_relaxed);
  slot.state.store(WorkerState::kDegraded, std::memory_order_release);
  degraded_count_.fetch_add(1, std::memory_order_relaxed);
}

void Supervisor::BeginSeal() {
  sealing_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    if (slot.state.load(std::memory_order_relaxed) == WorkerState::kBackoff) {
      slot.state.store(WorkerState::kDegraded, std::memory_order_release);
      degraded_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool Supervisor::SendCommand(size_t worker, WorkerCommand command,
                             uint64_t arg, uint64_t* ack_value) {
  GS_CHECK(worker < slots_.size());
  WorkerControl* ctrl = &controls_[worker];
  const uint64_t seq = ctrl->Post(command, arg);
  // Five hang windows: the monitor usually declares the worker dead or
  // hung well before this expires, and the wait also aborts as soon as
  // the worker degrades. 10 s at the defaults.
  const int64_t timeout_ms = static_cast<int64_t>(
      5 * options_.heartbeat_period_ms * options_.miss_threshold);
  const int64_t deadline = telemetry::MonotonicNowNs() + timeout_ms * kMilli;
  for (int spins = 0;; ++spins) {
    if (ctrl->Acked(seq, ack_value)) return true;
    const WorkerState st = state(worker);
    if (st == WorkerState::kDegraded || st == WorkerState::kStopped) {
      return false;
    }
    if (telemetry::MonotonicNowNs() > deadline) {
      DegradeUnresponsive(worker);
      return false;
    }
    // A healthy worker acks within one loop iteration; yielding hands it
    // the CPU on single-core boxes, so most round trips resolve in
    // microseconds. Sleep only once the fast path clearly missed (the
    // worker was mid-poll or mid-sleep).
    if (spins < 256) {
      std::this_thread::yield();
    } else {
      usleep(200);
    }
  }
}

void Supervisor::StopAll() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_monitor_ = true;
  }
  monitor_wake_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  // Fire-and-forget exit commands; a healthy worker acks and _exits within
  // one loop iteration.
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t w = 0; w < slots_.size(); ++w) {
    if (slots_[w]->pid.load(std::memory_order_relaxed) <= 0) continue;
    controls_[w].Post(WorkerCommand::kExit, 0);
  }
  const int64_t deadline = telemetry::MonotonicNowNs() + 2000 * kMilli;
  for (size_t w = 0; w < slots_.size(); ++w) {
    Slot& slot = *slots_[w];
    pid_t pid = slot.pid.load(std::memory_order_relaxed);
    if (pid > 0) {
      bool reaped = false;
      while (telemetry::MonotonicNowNs() < deadline) {
        if (TryReap(pid)) {
          reaped = true;
          break;
        }
        usleep(1000);
      }
      if (!reaped) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
      }
      slot.pid.store(-1, std::memory_order_relaxed);
    }
    if (slot.state.load(std::memory_order_relaxed) != WorkerState::kDegraded) {
      slot.state.store(WorkerState::kStopped, std::memory_order_release);
    }
  }
}

}  // namespace gigascope::core
