#include "core/worker.h"

#include <unistd.h>

#include <chrono>

#include "common/logging.h"
#include "telemetry/histogram.h"

namespace gigascope::core {

uint64_t WorkerControl::Post(WorkerCommand command, uint64_t arg) {
  const uint64_t seq = cmd_seq.load(std::memory_order_relaxed) + 1;
  cmd_code.store(static_cast<uint32_t>(command), std::memory_order_relaxed);
  cmd_arg.store(arg, std::memory_order_relaxed);
  cmd_seq.store(seq, std::memory_order_release);
  return seq;
}

bool WorkerControl::Acked(uint64_t seq, uint64_t* value) const {
  if (ack_seq.load(std::memory_order_acquire) < seq) return false;
  if (value != nullptr) *value = ack_value.load(std::memory_order_relaxed);
  return true;
}

WorkerCommand WorkerControl::Pending(uint64_t* arg, uint64_t* seq) {
  const uint64_t posted = cmd_seq.load(std::memory_order_acquire);
  if (posted == ack_seq.load(std::memory_order_relaxed)) {
    return WorkerCommand::kNone;
  }
  *seq = posted;
  *arg = cmd_arg.load(std::memory_order_relaxed);
  const uint32_t code = cmd_code.load(std::memory_order_relaxed);
  if (code == 0 || code > static_cast<uint32_t>(WorkerCommand::kExit)) {
    // Unknown command: never leave the mailbox wedged; ack it as a no-op.
    Ack(posted, 0);
    return WorkerCommand::kNone;
  }
  return static_cast<WorkerCommand>(code);
}

void WorkerControl::Ack(uint64_t seq, uint64_t value) {
  ack_value.store(value, std::memory_order_relaxed);
  ack_seq.store(seq, std::memory_order_release);
}

namespace {

/// Pumps the group until a round makes no progress (kFlushNode/kDrain),
/// beating throughout so a long drain never reads as a hang.
size_t DrainGroup(WorkerControl* control, const WorkerGroup& group,
                  size_t poll_budget) {
  size_t total = 0;
  for (;;) {
    size_t round = 0;
    for (rts::QueryNode* node : group.nodes) {
      round += node->PollCounted(poll_budget);
    }
    control->Beat();
    if (round == 0) return total;
    total += round;
  }
}

}  // namespace

void RunWorkerLoop(WorkerControl* control, const WorkerGroup& group,
                   size_t poll_budget, FaultInjector* faults,
                   const std::function<void()>& idle_wait) {
  // Spin briefly on idle before the backend's longer wait.
  constexpr int kSpinRounds = 64;
  uint64_t processed_total =
      control->msgs_processed.load(std::memory_order_relaxed);
  auto count = [&](size_t processed) {
    processed_total += processed;
    control->msgs_processed.store(processed_total, std::memory_order_relaxed);
  };
  int idle_rounds = 0;
  for (;;) {
    if (faults != nullptr && faults->MaybeFire(processed_total)) {
      // Stalled by fault injection: alive but silent — no heartbeat, no
      // work, exactly what a hung worker looks like from outside.
      usleep(1000);
      continue;
    }
    control->Beat();
    uint64_t arg = 0;
    uint64_t seq = 0;
    const WorkerCommand command = control->Pending(&arg, &seq);
    if (command == WorkerCommand::kExit) {
      control->Ack(seq, 0);
      return;
    }
    if (command != WorkerCommand::kNone) {
      if (command == WorkerCommand::kFlushNode && arg < group.nodes.size()) {
        group.nodes[arg]->Flush();
      }
      count(DrainGroup(control, group, poll_budget));
      control->Ack(seq, processed_total);
      continue;
    }
    size_t processed = 0;
    for (rts::QueryNode* node : group.nodes) {
      processed += node->PollCounted(poll_budget);
    }
    if (processed > 0) {
      count(processed);
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < kSpinRounds) {
      std::this_thread::yield();
    } else {
      idle_rounds = kSpinRounds;
      idle_wait();
    }
  }
}

ThreadPool::ThreadPool(std::vector<WorkerGroup> groups, size_t poll_budget,
                       std::vector<telemetry::Histogram*> park_ns)
    : poll_budget_(poll_budget) {
  for (size_t w = 0; w < groups.size(); ++w) {
    auto worker = std::make_unique<Worker>();
    worker->group = std::move(groups[w]);
    worker->park_ns = park_ns[w];
    worker->waker = std::make_shared<rts::ConsumerWaker>();
    workers_.push_back(std::move(worker));
  }
}

ThreadPool::~ThreadPool() { StopAll(); }

Status ThreadPool::Start() {
  // Wire each node's input rings to its worker's waker so pushes (tuples
  // and punctuations) un-park it. Done before the threads start, so the
  // writes are published by thread creation.
  for (const auto& worker : workers_) {
    for (rts::QueryNode* node : worker->group.nodes) {
      for (const rts::Subscription& channel : node->inputs()) {
        channel->SetWaker(worker->waker);
      }
    }
  }
  for (const auto& worker : workers_) {
    Worker* self = worker.get();
    worker->thread = std::thread([this, self] {
      // A push into any owned ring wakes the park; the timeout bounds any
      // lost-wakeup window.
      constexpr std::chrono::microseconds kParkTimeout{200};
      RunWorkerLoop(&self->control, self->group, poll_budget_,
                    /*faults=*/nullptr, [self] {
                      const int64_t start = telemetry::MonotonicNowNs();
                      self->waker->Park(kParkTimeout);
                      self->park_ns->Record(static_cast<uint64_t>(
                          telemetry::MonotonicNowNs() - start));
                    });
    });
  }
  return Status::Ok();
}

bool ThreadPool::Call(size_t, WorkerCommand, uint64_t, uint64_t*) {
  GS_CHECK(stopped_);
  return false;
}

void ThreadPool::StopAll() {
  stopped_ = true;
  for (const auto& worker : workers_) {
    if (!worker->thread.joinable()) continue;
    worker->control.Post(WorkerCommand::kExit, 0);
    worker->waker->Wake();
  }
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

}  // namespace gigascope::core
